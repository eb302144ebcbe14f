/**
 * @file
 * Self-test of the benchmark harness math: quantiles, the tail rule,
 * windowed tails and rates, request accounting, and span self time. run.py runs it before every benchmark run; it
 * exits non-zero if any answer is wrong. Expected values are worked by hand (quantiles match
 * numpy's default percentile).
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

int g_failures = 0;

void
expectNear(const char *what, double got, double want, double tol = 1e-12)
{
    if (!(std::fabs(got - want) <= tol)) {
        std::fprintf(stderr, "FAIL %s: got %.17g, want %.17g\n", what, got,
                     want);
        ++g_failures;
    }
}

void
expectEq(const char *what, uint64_t got, uint64_t want)
{
    if (got != want) {
        std::fprintf(stderr, "FAIL %s: got %llu, want %llu\n", what,
                     static_cast<unsigned long long>(got),
                     static_cast<unsigned long long>(want));
        ++g_failures;
    }
}

qbench::Span
span(const char *name, int64_t start, int64_t end, int parent)
{
    qbench::Span s;
    s.name = name;
    s.start_ns = start;
    s.end_ns = end;
    s.parent = parent;
    return s;
}

} // namespace

int
main()
{
    using namespace qbench;

    // Quantiles: numpy.percentile([1, 2, 3, 4], 25) == 1.75.
    const std::vector<double> four = {4, 1, 3, 2};
    expectNear("q25", quantile(four, 0.25), 1.75);
    expectNear("median even", median(four), 2.5);
    expectNear("median odd", median({5, 1, 3}), 3.0);
    expectNear("q0", quantile(four, 0.0), 1.0);
    expectNear("q1", quantile(four, 1.0), 4.0);
    expectNear("empty", quantile({}, 0.5), 0.0);
    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i)
        hundred.push_back(i);
    expectNear("p99 of 1..100", quantile(hundred, 0.99), 99.01, 1e-9);
    expectNear("mean", mean(four), 2.5);
    expectNear("geomean", geomean({1, 4, 16}), 4.0, 1e-12);

    // The tail rule: at least 10 samples beyond the percentile.
    expectEq("tail p75", minSamplesForTail(75.0), 40);
    expectEq("tail p90", minSamplesForTail(90.0), 100);
    expectEq("tail p95", minSamplesForTail(95.0), 200);
    expectEq("tail p99", minSamplesForTail(99.0), 1000);
    expectEq("tail p99.9", minSamplesForTail(99.9), 10000);

    // Request accounting.
    PhaseCount a{"a", 10, 8, 1, 1};
    PhaseCount b{"b", 5, 5, 0, 0};
    const PhaseCount t = totalOf({a, b});
    expectEq("total sent", t.sent, 15);
    expectEq("total ok", t.ok, 13);
    expectEq("balanced", t.balanced(), 1);
    expectNear("failed fraction", failedFraction(t), 2.0 / 15.0);
    PhaseCount lost{"lost", 3, 1, 0, 0};
    expectEq("unbalanced", lost.balanced(), 0);
    expectNear("failed fraction empty", failedFraction(PhaseCount{}), 0.0);

    // Self time: root [0, 100) holds children [10, 40) and [50, 90);
    // the second child holds a grandchild [60, 70).
    const std::vector<Span> spans = {
        span("root", 0, 100, -1), span("a", 10, 40, 0),
        span("b", 50, 90, 0), span("c", 60, 70, 2),
        span("a", 200, 210, -1)};
    const auto totals = spanTotals(spans);
    expectNear("root self", totals.at("root").self_ms, 30e-6, 1e-15);
    expectNear("b self", totals.at("b").self_ms, 30e-6, 1e-15);
    expectNear("c self", totals.at("c").self_ms, 10e-6, 1e-15);
    expectNear("a total", totals.at("a").total_ms, 40e-6, 1e-15);
    expectEq("a count", totals.at("a").count, 2);
    // Roots: [0, 100) covered 70 by children; [200, 210) covered 0.
    expectNear("coverage", rootCoverage(spans), 70.0 / 110.0);
    expectNear("coverage of one root", rootCoverage(spans, "root"), 0.7);
    expectNear("coverage of no root", rootCoverage(spans, "none"), 0.0);

    // Windowed tail: one stalled window does not move the median of
    // the per-window p99s. The in-place forms reorder their input, so
    // each check gets its own copy.
    const auto windowed = [](std::vector<double> v, double q,
                             size_t window = 100) {
        return windowedQuantileInPlace(v.data(), v.size(), q, window);
    };
    std::vector<double> steady(4000, 1.0);
    for (size_t i = 0; i < 200; ++i)
        steady[i] = 50.0; // a stall across the first two windows
    expectNear("windowed p99", windowed(steady, 0.99), 1.0);
    expectNear("plain p99", quantile(steady, 0.99), 50.0);
    expectNear("windowed max", windowed(hundred, 1.0, 10), 55.0);
    expectNear("short sample", windowed({1, 2, 3}, 1.0), 3.0);
    std::vector<double> shuffled = {3, 1, 4, 1, 5, 9, 2, 6};
    expectNear("median in place",
               quantileInPlace(shuffled.data(), shuffled.size(), 0.5), 3.5);
    expectEq("sorted in place",
             shuffled.front() == 1 && shuffled.back() == 9, 1);
    expectNear("empty in place", quantileInPlace(nullptr, 0, 0.5), 0.0);

    // Steady rate: 10 events/s, with a slow start and a late straggler
    // trimmed away.
    std::vector<double> times = {0.0, 5.0};
    for (int i = 0; i < 18; ++i)
        times.push_back(1.0 + 0.1 * i);
    expectNear("steady rate", steadyRateInPlace(times.data(), times.size()),
               10.0, 1e-9);
    double one = 1.0;
    expectNear("rate of one event", steadyRateInPlace(&one, 1), 0.0);

    // The recorder nests by call order.
    Tracer tracer;
    {
        Scope outer(&tracer, "outer", 7);
        Scope inner(&tracer, "inner", 7);
    }
    Scope off(nullptr, "ignored");
    expectEq("recorded", tracer.spans().size(), 2);
    expectEq("inner parent",
             static_cast<uint64_t>(tracer.spans()[1].parent), 0);
    expectEq("outer root", tracer.spans()[0].parent == -1, 1);

    expectEq("json escape",
             jsonString("a\"b\\c\n") == "\"a\\\"b\\\\c\\n\"", 1);
    expectEq("json nan", jsonNumber(std::nan("")) == "null", 1);

    if (g_failures == 0)
        std::printf("qbench selftest: ok\n");
    return g_failures == 0 ? 0 : 1;
}

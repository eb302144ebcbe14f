/**
 * @file
 * Tests for the util library: RNG determinism and distributions,
 * statistics, table rendering, logging failure modes.
 */

#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace qbasis {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(ThreadPool, ParallelForRunsEveryIndexOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    std::vector<std::atomic<int>> counts(257);
    for (auto &c : counts)
        c.store(0);
    pool.parallelFor(counts.size(),
                     [&](size_t i) { counts[i].fetch_add(1); });
    for (const auto &c : counts)
        EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, NestedSubmissionFromWorkers)
{
    // Tasks submitting tasks (the engine's depth waves do this) must
    // not deadlock, including on a single-thread pool.
    for (int threads : {1, 3}) {
        ThreadPool pool(threads);
        std::atomic<int> done{0};
        pool.parallelFor(8, [&](size_t) {
            pool.submit([&] { done.fetch_add(1); });
        });
        // Drain: the nested tasks have no completion handle, so spin
        // briefly through another barrier.
        while (done.load() < 8)
            pool.parallelFor(1, [](size_t) {});
        EXPECT_EQ(done.load(), 8);
    }
}

TEST(ThreadPool, ParallelForPropagatesExceptions)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(4,
                                  [](size_t i) {
                                      if (i == 2)
                                          fatal("boom %zu", i);
                                  }),
                 std::runtime_error);
}

TEST(Rng, DeriveSeedIsDeterministicAndDecorrelated)
{
    // Same inputs -> same stream; nearby stream indices -> unrelated
    // seeds (the property the per-restart synthesis streams rely on).
    EXPECT_EQ(Rng::deriveSeed(7, 3), Rng::deriveSeed(7, 3));
    EXPECT_NE(Rng::deriveSeed(7, 3), Rng::deriveSeed(7, 4));
    EXPECT_NE(Rng::deriveSeed(7, 3), Rng::deriveSeed(8, 3));
    // Consecutive streams should not produce correlated first draws.
    double prev = Rng(Rng::deriveSeed(1234, 0)).uniform();
    int distinct = 0;
    for (uint64_t k = 1; k < 32; ++k) {
        const double cur = Rng(Rng::deriveSeed(1234, k)).uniform();
        if (std::abs(cur - prev) > 1e-6)
            ++distinct;
        prev = cur;
    }
    EXPECT_GE(distinct, 30);
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntervalRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformMeanConverges)
{
    Rng rng(11);
    RunningStats s;
    for (int i = 0; i < 200000; ++i)
        s.add(rng.uniform());
    EXPECT_NEAR(s.mean(), 0.5, 0.01);
    EXPECT_NEAR(s.stddev(), std::sqrt(1.0 / 12.0), 0.01);
}

TEST(Rng, NormalMoments)
{
    Rng rng(13);
    RunningStats s;
    for (int i = 0; i < 200000; ++i)
        s.add(rng.normal());
    EXPECT_NEAR(s.mean(), 0.0, 0.02);
    EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, NormalShifted)
{
    Rng rng(13);
    RunningStats s;
    for (int i = 0; i < 100000; ++i)
        s.add(rng.normal(5.0, 0.25));
    EXPECT_NEAR(s.mean(), 5.0, 0.01);
    EXPECT_NEAR(s.stddev(), 0.25, 0.01);
}

TEST(Rng, UniformIntBounds)
{
    Rng rng(3);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.uniformInt(17), 17u);
}

TEST(Rng, UniformIntCoversAllValues)
{
    Rng rng(5);
    std::vector<int> counts(8, 0);
    for (int i = 0; i < 8000; ++i)
        counts[rng.uniformInt(8)]++;
    for (int c : counts)
        EXPECT_GT(c, 800);
}

TEST(Rng, UniformIntZeroPanics)
{
    Rng rng(5);
    EXPECT_THROW(rng.uniformInt(0), std::logic_error);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(99);
    Rng b = a.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 3);
}

TEST(Rng, ShufflePermutes)
{
    Rng rng(21);
    std::vector<size_t> v{0, 1, 2, 3, 4, 5, 6, 7};
    auto orig = v;
    rng.shuffle(v);
    auto sorted = v;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, orig);
}

TEST(RunningStats, Basics)
{
    RunningStats s;
    s.add(1.0);
    s.add(2.0);
    s.add(3.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
    EXPECT_DOUBLE_EQ(s.sum(), 6.0);
    EXPECT_NEAR(s.stddev(), 1.0, 1e-12);
}

TEST(RunningStats, EmptyIsZero)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Stats, VectorHelpers)
{
    std::vector<double> v{4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(mean(v), 2.5);
    EXPECT_DOUBLE_EQ(median(v), 2.5);
    EXPECT_NEAR(stddev(v), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, MedianOdd)
{
    std::vector<double> v{9.0, 1.0, 5.0};
    EXPECT_DOUBLE_EQ(median(v), 5.0);
}

TEST(TextTable, RendersAllCells)
{
    TextTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addSeparator();
    t.addRow({"beta", "22"});
    const std::string s = t.render();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("beta"), std::string::npos);
    EXPECT_NE(s.find("22"), std::string::npos);
    EXPECT_NE(s.find("name"), std::string::npos);
}

TEST(TextTable, ArityMismatchPanics)
{
    TextTable t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), std::logic_error);
}

TEST(Format, FixedAndPercent)
{
    EXPECT_EQ(fmtFixed(1.23456, 2), "1.23");
    EXPECT_EQ(fmtPercent(0.123456, 3), "12.3%");
}

TEST(Logging, FatalThrowsRuntimeError)
{
    EXPECT_THROW(fatal("user error %d", 42), std::runtime_error);
}

TEST(Logging, PanicThrowsLogicError)
{
    EXPECT_THROW(panic("bug %s", "here"), std::logic_error);
}

TEST(Logging, StrformatFormats)
{
    EXPECT_EQ(strformat("x=%d y=%.1f", 3, 2.5), "x=3 y=2.5");
}

/** Occurrences of `needle` in `haystack`. */
size_t
countOf(const std::string &haystack, const std::string &needle)
{
    size_t n = 0;
    for (size_t pos = haystack.find(needle); pos != std::string::npos;
         pos = haystack.find(needle, pos + 1))
        ++n;
    return n;
}

TEST(Logging, RepeatedWarningsCollapseIntoOneCountedLine)
{
    const LogLevel saved = logLevel();
    setLogLevel(LogLevel::Warn);
    flushRepeatedWarnings(); // start from an empty ledger

    testing::internal::CaptureStderr();
    for (int i = 0; i < 5; ++i)
        warn("collapse-test repeat %d", i);
    warn("collapse-test single %s", "once");
    flushRepeatedWarnings();
    // A flush forgets the format: the next repeat prints again.
    warn("collapse-test repeat %d", 9);
    flushRepeatedWarnings();
    const std::string err = testing::internal::GetCapturedStderr();
    setLogLevel(saved);

    EXPECT_EQ(countOf(err, "\n"), 4u) << err;
    EXPECT_EQ(countOf(err, "warn: collapse-test repeat 0\n"), 1u);
    for (int i = 1; i < 5; ++i)
        EXPECT_EQ(countOf(err, strformat("repeat %d", i)), 0u) << err;
    EXPECT_EQ(countOf(err, "collapse-test repeat 0 (4 more like this)"),
              1u)
        << err;
    // A warning printed once gets no count line.
    EXPECT_EQ(countOf(err, "collapse-test single once\n"), 1u) << err;
    EXPECT_EQ(countOf(err, "warn: collapse-test repeat 9\n"), 1u);
}

TEST(Logging, ConcurrentRepeatsAreCountedExactly)
{
    const LogLevel saved = logLevel();
    setLogLevel(LogLevel::Warn);
    flushRepeatedWarnings();

    testing::internal::CaptureStderr();
    ThreadPool pool(4);
    pool.parallelFor(200, [](size_t i) {
        warn("collapse-test concurrent %zu", i);
    });
    flushRepeatedWarnings();
    const std::string err = testing::internal::GetCapturedStderr();
    setLogLevel(saved);

    EXPECT_EQ(countOf(err, "\n"), 2u) << err;
    EXPECT_EQ(countOf(err, "(199 more like this)"), 1u) << err;
}

} // namespace
} // namespace qbasis

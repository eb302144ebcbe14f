/**
 * @file
 * qbench: one workload of the qbasis benchmark per invocation.
 *
 *   qbench --workload cold_zoo|zipf_serve|drift_cycle --seed N
 *          --seconds S --trace 0|1 --out report.json [--spans f.json]
 *
 * Prints a human-readable table and writes the full report (metrics,
 * exact counters, determinism digest, phase counts, provenance) to
 * --out. Exit status: 0 when every output check passed, 1 when one
 * failed, 2 on a usage error. See ../README.md.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <array>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "bench.hpp"
#include "linalg/mat4_kernels.hpp"
#include "obs/metrics.hpp"
#include "transpile/plan.hpp"
#include "util/fnv.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

#ifndef QBENCH_BUILD_TYPE
#define QBENCH_BUILD_TYPE "unknown"
#endif
#ifndef QBENCH_COMPILER
#define QBENCH_COMPILER "unknown"
#endif

namespace qbench {
namespace {

using namespace qbasis;

constexpr int kSetups = 3;  ///< Set-ups per run; setup_s is their median.
constexpr int kClients = 4; ///< Closed-loop client threads.
/** Samples one traffic phase may record (see SampleLog): about six
 *  times what the fastest workload records in a segment. */
constexpr size_t kSampleCapacity = size_t{1} << 19;
/** Open-loop ladder (see runWorkload), in shares of the closed-loop
 *  capacity. */
constexpr double kReferenceShare = 0.5;
constexpr double kSearchHigh = 1.5;
constexpr int kSearchRungs = 5;
/** Share of a recomposed compile its stage spans must account for. */
constexpr double kMinCompileCoverage = 0.9;
constexpr int kCheckRequests = 4; ///< Recomposed and simulated requests.
constexpr int kCheckEdges = 6;    ///< Recomposed tuneup edges.

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out;
    std::string spans;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + key);
        const std::string value = argv[++i];
        if (key == "--workload")
            a.workload = value;
        else if (key == "--seed")
            a.seed = std::stoull(value);
        else if (key == "--seconds")
            a.seconds = std::stod(value);
        else if (key == "--trace")
            a.trace = value == "1";
        else if (key == "--out")
            a.out = value;
        else if (key == "--spans")
            a.spans = value;
        else
            throw std::invalid_argument("unknown option " + key);
    }
    if (a.workload.empty() || a.out.empty() || !(a.seconds > 0.0))
        throw std::invalid_argument(
            "need --workload, --out and --seconds > 0");
    return a;
}

/** Everything one run measured, as named values with units. */
class Report
{
  public:
    void
    metric(const std::string &name, double value, const char *unit)
    {
        metrics_.push_back({name, value, unit});
    }
    void
    exact(const std::string &name, uint64_t value)
    {
        exact_.emplace_back(name, value);
    }
    void
    varying(const std::string &name, double value)
    {
        varying_.emplace_back(name, value);
    }
    void phase(const PhaseCount &c) { phases_.push_back(c); }
    /** One JSON object appended to the report's `section` array. */
    void
    detail(const std::string &section, std::string json)
    {
        details_[section].push_back(std::move(json));
    }
    void fail(const std::string &why) { failures_.push_back(why); }
    void
    provenance(const std::string &key, const std::string &json_value)
    {
        provenance_.emplace_back(key, json_value);
    }

    bool correct() const { return failures_.empty(); }
    const std::vector<PhaseCount> &phases() const { return phases_; }

    void
    print(const std::string &workload) const
    {
        std::printf("\n== %s ==\n", workload.c_str());
        std::printf("%-16s %8s %8s %8s %8s\n", "phase", "sent", "ok",
                    "failed", "rejected");
        for (const PhaseCount &p : phases_) {
            std::printf("%-16s %8llu %8llu %8llu %8llu\n", p.name.c_str(),
                        static_cast<unsigned long long>(p.sent),
                        static_cast<unsigned long long>(p.ok),
                        static_cast<unsigned long long>(p.failed),
                        static_cast<unsigned long long>(p.rejected));
        }
        for (const Metric &m : metrics_) {
            std::printf("%-28s %14.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        }
        for (const auto &[name, value] : exact_) {
            std::printf("exact %-22s %14llu\n", name.c_str(),
                        static_cast<unsigned long long>(value));
        }
        for (const auto &[name, value] : varying_)
            std::printf("varying %-20s %14.6g\n", name.c_str(), value);
        for (const auto &[section, items] : details_) {
            for (const std::string &item : items)
                std::printf("%s %s\n", section.c_str(), item.c_str());
        }
        for (const std::string &f : failures_)
            std::printf("CHECK FAILED: %s\n", f.c_str());
    }

    std::string
    json(const std::string &workload, uint64_t seed, bool trace,
         const std::string &digest) const
    {
        const PhaseCount total = totalOf(phases_);
        std::string out = "{";
        out += "\"workload\":" + jsonString(workload);
        out += ",\"seed\":" + std::to_string(seed);
        out += ",\"trace\":" + std::string(trace ? "1" : "0");
        out += ",\"correct\":" + std::string(correct() ? "true" : "false");
        out += ",\"attempted\":" + std::to_string(total.sent);
        out += ",\"failed\":"
               + std::to_string(total.failed + total.rejected);
        out += ",\"digest\":" + jsonString(digest);
        out += ",\"metrics\":{";
        for (size_t i = 0; i < metrics_.size(); ++i) {
            out += (i ? "," : "") + jsonString(metrics_[i].name)
                   + ":{\"value\":" + jsonNumber(metrics_[i].value)
                   + ",\"unit\":" + jsonString(metrics_[i].unit) + "}";
        }
        out += "},\"exact\":{";
        for (size_t i = 0; i < exact_.size(); ++i) {
            out += (i ? "," : "") + jsonString(exact_[i].first) + ":"
                   + std::to_string(exact_[i].second);
        }
        out += "},\"scheduling_dependent\":{";
        for (size_t i = 0; i < varying_.size(); ++i) {
            out += (i ? "," : "") + jsonString(varying_[i].first) + ":"
                   + jsonNumber(varying_[i].second);
        }
        out += "},\"phases\":[";
        for (size_t i = 0; i < phases_.size(); ++i) {
            const PhaseCount &p = phases_[i];
            out += std::string(i ? "," : "") + "{\"name\":"
                   + jsonString(p.name)
                   + ",\"sent\":" + std::to_string(p.sent)
                   + ",\"ok\":" + std::to_string(p.ok)
                   + ",\"failed\":" + std::to_string(p.failed)
                   + ",\"rejected\":" + std::to_string(p.rejected) + "}";
        }
        out += "]";
        for (const auto &[section, items] : details_) {
            out += "," + jsonString(section) + ":[";
            for (size_t i = 0; i < items.size(); ++i)
                out += (i ? "," : "") + items[i];
            out += "]";
        }
        out += ",\"failures\":[";
        for (size_t i = 0; i < failures_.size(); ++i)
            out += (i ? "," : "") + jsonString(failures_[i]);
        out += "],\"provenance\":{";
        for (size_t i = 0; i < provenance_.size(); ++i) {
            out += (i ? "," : "") + jsonString(provenance_[i].first) + ":"
                   + provenance_[i].second;
        }
        out += "}}\n";
        return out;
    }

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    std::vector<std::pair<std::string, uint64_t>> exact_;
    std::vector<std::pair<std::string, double>> varying_;
    std::vector<PhaseCount> phases_;
    std::map<std::string, std::vector<std::string>> details_;
    std::vector<std::string> failures_;
    std::vector<std::pair<std::string, std::string>> provenance_;
};

uint64_t
registryCounter(const char *name)
{
    return metricsSnapshot().counterValue(name);
}

bool
hasOneQubitParams(const Circuit &c)
{
    for (const Gate &g : c.gates()) {
        if (!g.isTwoQubit() && !g.params.empty())
            return true;
    }
    return false;
}

std::string
hex64(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Nanoseconds one span costs the recorder (open + close). */
double
nsPerSpan()
{
    Tracer probe;
    constexpr int kSpans = 20000;
    const auto t0 = Clock::now();
    for (int i = 0; i < kSpans; ++i)
        Scope s(&probe, "probe", static_cast<uint64_t>(i));
    return msSince(t0) * 1e6 / kSpans;
}

/** What one closed-loop segment measured. */
struct SegmentFigures
{
    PhaseCount count;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    size_t latencies = 0; ///< Successful requests.
    double rps = 0.0;
    double p50_ms = 0.0;
    double tail_ms = 0.0;
    double queue_p50_ms = 0.0;
    double queue_p99_ms = 0.0;
    double handoff_p50_ms = 0.0;
    double snapshot_wait_mean_ms = 0.0;
    std::array<uint64_t, 3> tiers{}; ///< Responses per PlanServePath.
    std::array<double, 3> tier_ms{}; ///< See tierMedians.
};

/** Figures of a closed loop whose samples are in `log`. */
SegmentFigures
figuresOf(const ClosedLoop &loop, SampleLog *log)
{
    SegmentFigures f;
    f.count = loop.count;
    f.wall_s = loop.wall_s;
    f.cpu_s = loop.cpu_s;
    const auto ok = [](const Sample &s) { return s.ok; };
    double *v = log->scratch();
    size_t n = log->column([](const Sample &s) { return s.done_s; }, ok);
    f.rps = steadyRateInPlace(v, n);
    n = log->column([](const Sample &s) { return s.latency_ms; }, ok);
    f.latencies = n;
    // The windowed tail reorders only within its windows, so it runs
    // before the median sorts the whole column.
    f.tail_ms = windowedQuantileInPlace(v, n, kTailPct / 100.0,
                                        minSamplesForTail(kTailPct) * 10);
    f.p50_ms = quantileInPlace(v, n, 0.5);
    n = log->column([](const Sample &s) { return s.queue_ms; }, ok);
    f.queue_p99_ms = quantileInPlace(v, n, 0.99);
    f.queue_p50_ms = quantileInPlace(v, n, 0.5);
    n = log->column(
        [](const Sample &s) {
            return s.latency_ms - s.queue_ms - s.compile_ms
                   - s.snapshot_wait_ms;
        },
        ok);
    f.handoff_p50_ms = quantileInPlace(v, n, 0.5);
    n = log->column([](const Sample &s) { return s.snapshot_wait_ms; }, ok);
    double wait_sum = 0.0;
    for (size_t i = 0; i < n; ++i)
        wait_sum += v[i];
    f.snapshot_wait_mean_ms = n > 0 ? wait_sum / static_cast<double>(n) : 0.0;
    for (size_t i = 0; i < log->size(); ++i) {
        if ((*log)[i].ok)
            ++f.tiers[static_cast<size_t>((*log)[i].path)];
    }
    f.tier_ms = tierMedians(log);
    return f;
}

/** (device, shape, parameters): what the memo tier keys a request by
 *  (with the basis epochs). */
std::tuple<int, uint64_t, uint64_t>
memoKey(const CompileRequest &req)
{
    return {req.device_id, structuralCircuitHash(req.circuit),
            circuitParamFingerprint(req.circuit)};
}

/**
 * The first request of `reqs` that repeats an earlier one of them
 * (same memo key) and whose key is not in `stored`, or null. The
 * plan tier of such a repeat depends on scheduling: it hits the memo
 * only when its first copy has finished compiling.
 */
const CompileRequest *
firstUnstoredRepeat(const std::vector<CompileRequest> &reqs,
                    const std::vector<CompileRequest> &stored)
{
    std::set<std::tuple<int, uint64_t, uint64_t>> known, seen;
    for (const CompileRequest &req : stored)
        known.insert(memoKey(req));
    for (const CompileRequest &req : reqs) {
        const auto key = memoKey(req);
        if (known.count(key) == 0 && !seen.insert(key).second)
            return &req;
    }
    return nullptr;
}

int
runWorkload(const Args &args)
{
    const WorkloadSpec w = workloadSpec(args.workload, args.seed);
    const int nproc =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    Report report;
    Tracer tracer;
    Tracer *tr = args.trace ? &tracer : nullptr;
    // Allocated and written before anything else (see SampleLog).
    SampleLog log(kSampleCapacity);

    // -- Set-up, timed kSetups times with one instance alive at a time:
    // the first is discarded, the second serves the traffic, and the
    // last, made once the traffic is over and the serving instance is
    // gone, is the independent twin the checks compile on.
    std::vector<double> setup_s;
    double setup_cpu_s = 0.0;
    const auto timedSetUp = [&] {
        const double cpu0 = processCpuSeconds();
        double s = 0.0;
        std::unique_ptr<CompileService> inst = setUp(w, &s);
        setup_cpu_s += processCpuSeconds() - cpu0;
        setup_s.push_back(s);
        return inst;
    };
    for (int r = 0; r < kSetups - 2; ++r)
        timedSetUp(); // timed only: destroyed at once
    std::unique_ptr<CompileService> svc = timedSetUp();

    // -- Traffic: closed-loop segments 0..kSegments-1, each later one
    // after a gap of drift cycles, then (traced runs) the open-loop
    // ladder. A host slowdown of a few seconds then hits one or two
    // segments, and the end-to-end closed-loop figures are medians
    // over them.
    // Every segment runs at least this many requests, enough for the
    // fixed tail percentile; segment 0 at least the exact set's.
    const size_t always = minSamplesForTail(kTailPct);
    const size_t exact_n = std::max(always, w.exact_requests);
    std::vector<SegmentFigures> segs;
    std::vector<Served> exact_served;
    std::vector<Cycle> cycles;
    std::vector<Rung> rungs;
    uint64_t batches = 0, completed = 0, class_hits = 0, class_misses = 0,
             restarts_run = 0, restarts_pruned = 0;
    const auto segment = [&](uint64_t k) {
        const CompileServiceStats serve0 = svc->snapshot();
        const SharedDecompositionCache::Stats cache0 =
            svc->driver().cache().stats();
        const uint64_t run0 = registryCounter("synth.restarts_run");
        const uint64_t pruned0 = registryCounter("synth.restarts_pruned");
        ClosedLoop loop = closedLoop(
            *svc,
            [&w, k](uint64_t i) { return w.stream(k * kSegmentIndex + i); },
            kClients, args.seconds * w.closed_share / kSegments,
            k == 0 ? exact_n : always, k == 0 ? exact_n : 0, &log);
        if (k == 0)
            exact_served = std::move(loop.served);
        segs.push_back(figuresOf(loop, &log));
        segs.back().count.name = "closed_loop_" + std::to_string(k);
        report.phase(segs.back().count);
        const CompileServiceStats serve1 = svc->snapshot();
        const SharedDecompositionCache::Stats cache1 =
            svc->driver().cache().stats();
        batches += serve1.batches - serve0.batches;
        completed += serve1.completed - serve0.completed;
        class_hits += cache1.hits - cache0.hits;
        class_misses += cache1.misses - cache0.misses;
        restarts_run += registryCounter("synth.restarts_run") - run0;
        restarts_pruned += registryCounter("synth.restarts_pruned") - pruned0;
    };

    segment(0);
    for (int k = 1; k < kSegments; ++k) {
        for (int c = 0; c < kCyclesPerGap; ++c) {
            cycles.push_back(driftCycle(
                *svc, w, static_cast<uint64_t>(cycles.size() + 1), &log));
        }
        // Refill what the retunes invalidated, as set-up did, so every
        // segment measures the same warm serving.
        for (const CompileRequest &req : w.warm_fill)
            svc->compileSync(req);
        segment(static_cast<uint64_t>(k));
    }

    // Peak RSS while serving: one service instance has lived at a time,
    // and the fixed sample log is the harness's, not the program's. The
    // ladder comes after: its top rungs overload the service on
    // purpose, and the backlog they build scales with its capacity.
    const double peak_rss_mb =
        peakRssMb() - static_cast<double>(log.bytes()) / (1024.0 * 1024.0);

    // -- Open-loop ladder, traced runs only (its answers are per-layer
    // metrics), in shares of the closed-loop capacity (the median
    // segment rate): a reference rung at kReferenceShare, then a
    // bisection for the highest rate that meets the limit, below
    // kSearchHigh. The answer is the service's own figure, to a
    // resolution of (kSearchHigh - kReferenceShare) / 2^kSearchRungs.
    std::vector<double> capacity;
    for (const SegmentFigures &f : segs)
        capacity.push_back(f.rps);
    const double cap_rps = median(capacity);
    uint64_t open_index = kOpenIndexBase;
    double sla_rps = 0.0;
    const auto rung = [&](double share) {
        rungs.push_back(openRung(*svc, w.stream, open_index,
                                 share * cap_rps,
                                 args.seconds * w.rung_share,
                                 w.open_limit_ms, &log));
        open_index += rungs.back().count.sent;
        if (rungs.back().meets)
            sla_rps = std::max(sla_rps, rungs.back().sent_rps);
        return rungs.back().meets;
    };
    if (args.trace) {
        double lo = rung(kReferenceShare) ? kReferenceShare : 0.0;
        double hi = kSearchHigh;
        for (int i = 0; i < kSearchRungs; ++i) {
            const double mid = 0.5 * (lo + hi);
            (rung(mid) ? lo : hi) = mid;
        }
    }

    std::vector<PhaseCount> pass_counts;
    for (const Cycle &c : cycles)
        pass_counts.push_back(c.pass.count);
    PhaseCount passes = totalOf(pass_counts);
    passes.name = "cycle_passes";
    report.phase(passes);
    for (const Rung &r : rungs)
        report.phase(r.count);

    svc.reset();
    std::unique_ptr<CompileService> twin = timedSetUp();
    double setup_wall_s = 0.0;
    for (const double s : setup_s)
        setup_wall_s += s;
    const double setup_cpu_util = setup_cpu_s / (setup_wall_s * nproc);

    double closed_cpu_s = 0.0, closed_wall_s = 0.0;
    for (const SegmentFigures &f : segs) {
        closed_cpu_s += f.cpu_s;
        closed_wall_s += f.wall_s;
    }
    const double closed_cpu_util = closed_cpu_s / (closed_wall_s * nproc);
    const double batch_mean = static_cast<double>(completed)
                              / std::max<double>(1.0, static_cast<double>(
                                                          batches));
    for (const Rung &r : rungs) {
        char buf[512];
        std::snprintf(buf, sizeof(buf),
                      "{\"rate_rps\":%s,\"sent_rps\":%.1f,\"p50_ms\":%s,"
                      "\"tail_q\":%s,\"p99_ms\":%s,\"end_p50_ms\":%s,"
                      "\"max_ms\":%s,\"max_lag_ms\":%s,\"drain_ms\":%s,"
                      "\"overloaded\":%s,\"meets\":%s}",
                      jsonNumber(r.rate_rps).c_str(), r.sent_rps,
                      jsonNumber(r.p50_ms).c_str(),
                      jsonNumber(r.tail_q).c_str(),
                      jsonNumber(r.p99_ms).c_str(),
                      jsonNumber(r.end_p50_ms).c_str(),
                      jsonNumber(r.max_ms).c_str(),
                      jsonNumber(r.max_lag_ms).c_str(),
                      jsonNumber(r.drain_ms).c_str(),
                      r.overloaded ? "true" : "false",
                      r.meets ? "true" : "false");
        report.detail("open_loop", buf);
    }

    for (const SegmentFigures &f : segs) {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "{\"requests\":%llu,\"wall_s\":%s,\"rps\":%s,"
                      "\"p50_ms\":%s,\"tail_ms\":%s}",
                      static_cast<unsigned long long>(f.count.sent),
                      jsonNumber(f.wall_s).c_str(), jsonNumber(f.rps).c_str(),
                      jsonNumber(f.p50_ms).c_str(),
                      jsonNumber(f.tail_ms).c_str());
        report.detail("segments", buf);
    }
    for (const Cycle &c : cycles) {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "{\"cycle\":%llu,\"edges\":%d,\"retune_ms\":%s,"
                      "\"retire_ms\":%s,\"pass_ms\":%s,\"cycle_ms\":%s}",
                      static_cast<unsigned long long>(c.cycle), c.edges,
                      jsonNumber(c.retune_ms).c_str(),
                      jsonNumber(c.retire_ms).c_str(),
                      jsonNumber(c.pass_ms).c_str(),
                      jsonNumber(c.cycle_ms).c_str());
        report.detail("cycles", buf);
    }
    {
        std::string setups = "[";
        for (size_t i = 0; i < setup_s.size(); ++i)
            setups += (i ? "," : "") + jsonNumber(setup_s[i]);
        report.provenance("setup_s_each", setups + "]");
    }

    CheckResult chk;
    {
        // Recompose the tuneup of a seeded sample of device-0 edges.
        const int n_edges = static_cast<int>(
            twin->driver().device(0).device.coupling().edges().size());
        std::vector<int> edges;
        Rng rng(Rng::deriveSeed(args.seed, 0x70e0ull));
        while (static_cast<int>(edges.size())
               < std::min(kCheckEdges, n_edges)) {
            const int e = static_cast<int>(
                rng.uniformInt(static_cast<uint64_t>(n_edges)));
            if (std::find(edges.begin(), edges.end(), e) == edges.end())
                edges.push_back(e);
        }
        std::sort(edges.begin(), edges.end());
        checkTuneup(twin->driver(), 0, edges, tr, &chk);
    }

    // -- Checks, on the twin. The exact set: segment 0's fixed first
    // requests and every zoo pass.
    std::vector<Served> all_served = exact_served;
    for (const Cycle &c : cycles)
        all_served.insert(all_served.end(), c.pass.served.begin(),
                          c.pass.served.end());
    std::sort(all_served.begin(), all_served.end(),
              [](const Served &a, const Served &b) {
                  return a.resp.request_id < b.resp.request_id;
              });
    std::vector<CompileRequest> pool;
    for (size_t i = 0; i < exact_n; ++i)
        pool.push_back(w.stream(i));
    // The exact set's plan tiers are exact counters only when it holds
    // no scheduling-dependent repeat: segment 0 starts on what set-up
    // stored, and each zoo pass on none (the retune before it bumped
    // every device's basis epoch, which kills every plan).
    if (const CompileRequest *r = firstUnstoredRepeat(pool, w.warm_fill))
        report.fail("segment 0 repeats " + r->name + " (request "
                    + std::to_string(r->request_id)
                    + "): its plan tier depends on scheduling");
    if (const CompileRequest *r = firstUnstoredRepeat(w.zoo_pass, {}))
        report.fail("the zoo pass repeats " + r->name
                    + ": its plan tier depends on scheduling");
    // Distinct shapes, half narrow enough to simulate when the pool
    // has wide ones.
    std::vector<CompileRequest> sample;
    for (int pass = 0; pass < 2; ++pass) {
        int narrow = 0;
        int wide = 0;
        for (const CompileRequest &req : pool) {
            if (static_cast<int>(sample.size()) >= kCheckRequests)
                break;
            const bool seen = std::any_of(
                sample.begin(), sample.end(),
                [&](const CompileRequest &s) { return s.name == req.name; });
            const bool is_narrow = req.circuit.numQubits() <= 10;
            const bool room = pass == 1
                              || (is_narrow ? narrow < kCheckRequests / 2
                                            : wide < kCheckRequests / 2);
            if (seen || !room)
                continue;
            (is_narrow ? narrow : wide) += 1;
            sample.push_back(req);
        }
    }
    const auto check_t0 = Clock::now();
    checkCompiles(twin->driver(), all_served, sample, tr, &chk);

    // Tier probe on the twin: full (or memo) -> memo -> replay of the
    // first request with 1Q parameters.
    std::vector<Served> probes;
    const auto probe = std::find_if(
        pool.begin(), pool.end(), [](const CompileRequest &req) {
            return hasOneQubitParams(req.circuit);
        });
    if (probe == pool.end()) {
        report.fail("the tier probe found no parametric request");
    } else {
        for (int k = 0; k < 2; ++k)
            probes.push_back({twin->compileSync(*probe)});
        if (probes.back().resp.plan_path != PlanServePath::Memo)
            report.fail("repeat of " + probe->name + " missed the memo tier");
        CompileRequest shifted = *probe;
        shifted.request_id = probe->request_id + 500000;
        shifted.circuit =
            shiftOneQubitAngles(probe->circuit, shifted.request_id);
        checkReplays(*twin, {shifted}, tr, &probes, &chk);
    }
    const double check_ms = msSince(check_t0);
    for (const std::string &f : chk.failures)
        report.fail(f);

    // -- Accounting of every request sent.
    for (const PhaseCount &p : report.phases()) {
        if (!p.balanced())
            report.fail("phase " + p.name + " lost requests");
    }

    // -- End-to-end metrics.
    report.metric("setup_s", median(setup_s), "s");
    std::vector<double> rps, p50, tail;
    for (const SegmentFigures &f : segs) {
        if (f.latencies < always)
            report.fail("too few latency samples for the fixed tail");
        rps.push_back(f.rps);
        p50.push_back(f.p50_ms);
        tail.push_back(f.tail_ms);
    }
    report.metric("compile_rps", median(rps), "1/s");
    report.metric("latency_p50_ms", median(p50), "ms");
    report.metric("latency_tail_ms", median(tail), "ms");
    // The ladder's answer (see above), and the p99 at the reference
    // rate. Both are per-layer: on cold_zoo the answer is too noisy to
    // gate (see README.md).
    if (!rungs.empty()) {
        report.metric("sla_rate_rps", sla_rps, "1/s");
        report.metric("open_p99_ms", rungs.front().p99_ms, "ms");
    }
    double edges = 0.0, retune_ms = 0.0;
    std::vector<double> cycle_ms;
    for (const Cycle &c : cycles) {
        edges += c.edges;
        retune_ms += c.retune_ms;
        cycle_ms.push_back(c.cycle_ms);
    }
    report.metric("retune_edges_per_s", edges / (retune_ms / 1000.0),
                  "1/s");
    report.metric("cycle_p50_ms", median(cycle_ms), "ms");

    // Output quality over the exact set (deterministic per seed).
    std::vector<double> fidelity, makespan_us;
    Fnv64 digest;
    uint64_t swaps = 0, memo = 0, replay = 0, miss = 0;
    for (const Served &s : all_served) {
        digest.mix(s.resp.request_id);
        digest.mix(compileResponseDigest(s.resp));
        if (s.resp.status != CompileStatus::Ok)
            continue;
        fidelity.push_back(s.resp.result.fidelity);
        makespan_us.push_back(s.resp.result.makespan_ns / 1000.0);
        swaps += s.resp.result.swaps_inserted;
        memo += s.resp.plan_path == PlanServePath::Memo;
        replay += s.resp.plan_path == PlanServePath::Replay;
        miss += s.resp.plan_path == PlanServePath::None;
    }
    report.metric("fidelity_geomean", geomean(fidelity), "ratio");
    report.metric("makespan_us_mean", mean(makespan_us), "us");
    report.metric("peak_rss_mb", peak_rss_mb, "MiB");
    const PhaseCount total = totalOf(report.phases());
    report.metric("failed_frac", failedFraction(total), "ratio");

    // -- Exact counters: pure functions of (workload, seed, code).
    uint64_t presynth = 0, recalibrated = 0;
    for (const Cycle &c : cycles) {
        presynth += c.presynth_owned;
        recalibrated += static_cast<uint64_t>(c.edges);
    }
    report.exact("requests", all_served.size());
    report.exact("transpile.swaps", swaps);
    report.exact("plan.memo", memo);
    report.exact("plan.replay", replay);
    report.exact("plan.miss", miss);
    report.exact("synth.class_lookups", chk.class_lookups);
    report.exact("synth.class_misses", chk.class_misses);
    report.exact("calib.presynth_owned", presynth);
    report.exact("calib.recalibrated_edges", recalibrated);
    report.exact("check.compiles", static_cast<uint64_t>(chk.compiles_checked));
    report.exact("check.simulated", static_cast<uint64_t>(chk.sims_checked));
    report.exact("check.tuneup_edges", static_cast<uint64_t>(chk.edges_checked));

    // -- Per-layer metrics: medians of the per-segment figures.
    std::vector<double> queue50, queue99, handoff, snap_wait;
    std::array<uint64_t, 3> tiers{};
    // Tier latencies over every phase the run saw (the tier probe
    // supplies the tiers a workload's own traffic never reaches).
    std::array<std::vector<double>, 3> tier_ms;
    const auto addTiers = [&tier_ms](const std::array<double, 3> &t) {
        for (size_t i = 0; i < 3; ++i) {
            if (std::isfinite(t[i]))
                tier_ms[i].push_back(t[i]);
        }
    };
    for (const SegmentFigures &f : segs) {
        queue50.push_back(f.queue_p50_ms);
        queue99.push_back(f.queue_p99_ms);
        handoff.push_back(f.handoff_p50_ms);
        snap_wait.push_back(f.snapshot_wait_mean_ms);
        for (size_t i = 0; i < 3; ++i)
            tiers[i] += f.tiers[i];
        addTiers(f.tier_ms);
    }
    for (const Cycle &c : cycles)
        addTiers(c.tier_ms);
    for (const Served &s : probes) {
        tier_ms[static_cast<size_t>(s.resp.plan_path)].push_back(
            s.resp.compile_ms);
    }
    const auto tierOf = [](PlanServePath p) { return static_cast<size_t>(p); };
    const double p_total = std::max<double>(
        1.0, static_cast<double>(tiers[0] + tiers[1] + tiers[2]));
    report.metric("serve.queue_ms.p50", median(queue50), "ms");
    report.metric("serve.queue_ms.p99", median(queue99), "ms");
    report.metric("serve.handoff_ms.p50", median(handoff), "ms");
    report.metric("serve.batch_size.mean", batch_mean, "count");
    report.metric("plan.memo_frac",
                  tiers[tierOf(PlanServePath::Memo)] / p_total, "ratio");
    report.metric("plan.replay_frac",
                  tiers[tierOf(PlanServePath::Replay)] / p_total, "ratio");
    report.metric("plan.miss_frac",
                  tiers[tierOf(PlanServePath::None)] / p_total, "ratio");
    report.metric("plan.memo_ms.p50",
                  median(tier_ms[tierOf(PlanServePath::Memo)]), "ms");
    report.metric("plan.replay_ms.p50",
                  median(tier_ms[tierOf(PlanServePath::Replay)]), "ms");
    report.metric("plan.full_ms.p50",
                  median(tier_ms[tierOf(PlanServePath::None)]), "ms");
    const double lookups = static_cast<double>(class_hits + class_misses);
    report.metric("synth.class_lookups", lookups, "count");
    report.metric("synth.class_misses", static_cast<double>(class_misses),
                  "count");
    report.metric("synth.hit_ratio",
                  lookups > 0.0 ? class_hits / lookups : 0.0, "ratio");
    report.metric("synth.restarts_run", static_cast<double>(restarts_run),
                  "count");
    report.metric("synth.restarts_pruned",
                  static_cast<double>(restarts_pruned), "count");
    report.metric("transpile.swaps", static_cast<double>(swaps), "count");
    report.metric("core.snapshot_wait_ms", mean(snap_wait), "ms");
    double retire_ms = 0.0, busy_ms = 0.0;
    uint64_t classes_retired = 0, plans_retired = 0, retries = 0,
             extensions = static_cast<uint64_t>(chk.window_extensions);
    for (const Cycle &c : cycles) {
        retire_ms += c.retire_ms;
        busy_ms += c.busy_ms;
        classes_retired += c.classes_retired;
        plans_retired += c.plans_retired;
        retries += c.retries;
        extensions += c.window_extensions;
    }
    report.metric("core.retire_ms", retire_ms / cycles.size(), "ms");
    report.metric("core.classes_retired",
                  static_cast<double>(classes_retired), "count");
    report.metric("plan.retired", static_cast<double>(plans_retired),
                  "count");
    report.metric("calib.retune_busy_ms", busy_ms / edges, "ms");
    report.metric("calib.presynth_owned", static_cast<double>(presynth),
                  "count");
    report.metric("calib.retries", static_cast<double>(retries), "count");
    report.metric("calib.recalibrated_edges", edges, "count");
    report.metric("sim.window_extensions", static_cast<double>(extensions),
                  "count");
    report.metric("proc.cpu_util", closed_cpu_util, "ratio");
    report.metric("proc.setup_cpu_util", setup_cpu_util, "ratio");
    report.varying("check.worst_infidelity", chk.worst_infidelity);
    report.varying("check.worst_allowance", chk.worst_allowance);
    report.varying("synth.restarts_pruned", static_cast<double>(restarts_pruned));
    report.varying("core.classes_retired", static_cast<double>(classes_retired));
    report.varying("plan.retired", static_cast<double>(plans_retired));

    if (tr != nullptr) {
        const auto totals = spanTotals(tracer.spans());
        const auto self = [&totals](const char *name) {
            const auto it = totals.find(name);
            return it == totals.end() ? 0.0 : it->second.self_ms;
        };
        const auto count = [&totals](const char *name) {
            const auto it = totals.find(name);
            return it == totals.end()
                       ? 1.0
                       : std::max<double>(1.0, static_cast<double>(
                                                   it->second.count));
        };
        const double compiles = count("compile");
        const double tuned = count("tuneup");
        report.metric("synth.batch_ms", self("synth.batch") / compiles,
                      "ms");
        report.metric("transpile.layout_ms",
                      self("transpile.layout") / compiles, "ms");
        report.metric("transpile.route_ms",
                      self("transpile.route") / compiles, "ms");
        report.metric("transpile.merge_ms",
                      self("transpile.merge") / compiles, "ms");
        report.metric("transpile.translate_ms",
                      self("transpile.translate") / compiles, "ms");
        report.metric("transpile.replay_ms",
                      self("transpile.replay") / count("replay"), "ms");
        report.metric("circuit.schedule_ms",
                      self("circuit.schedule") / count("circuit.schedule"),
                      "ms");
        report.metric("noise.score_ms",
                      self("noise.score") / count("noise.score"), "ms");
        report.metric("sim.bias_ms", self("sim.bias") / tuned, "ms");
        report.metric("sim.drive_freq_ms", self("sim.drive_freq") / tuned,
                      "ms");
        report.metric("sim.trajectory_ms", self("sim.trajectory") / tuned,
                      "ms");
        report.metric("core.select_ms", self("core.select") / tuned, "ms");
        report.metric("trace.coverage", rootCoverage(tracer.spans()),
                      "ratio");
        const double compile_coverage =
            rootCoverage(tracer.spans(), "compile");
        if (compile_coverage < kMinCompileCoverage) {
            report.fail("compile stage spans cover only "
                        + std::to_string(compile_coverage)
                        + " of the recomposed request time");
        }
        report.metric("trace.overhead",
                      static_cast<double>(tracer.spans().size())
                          * nsPerSpan() * 1e-6 / check_ms,
                      "ratio");
        if (!args.spans.empty()) {
            std::ofstream f(args.spans);
            f << tracer.chromeJson();
        }
    }

    // -- Provenance.
    report.provenance("build_type", jsonString(QBENCH_BUILD_TYPE));
    report.provenance("compiler", jsonString(QBENCH_COMPILER));
    report.provenance("mat4_backend", jsonString(mat4BackendBanner()));
    report.provenance("nproc", std::to_string(nproc));
    report.provenance("seed", std::to_string(args.seed));
    report.provenance("seconds", jsonNumber(args.seconds));
    std::string rates = "[";
    for (size_t i = 0; i < rungs.size(); ++i)
        rates += (i ? "," : "") + jsonNumber(rungs[i].rate_rps);
    report.provenance("open_loop_rates_rps", rates + "]");
    report.provenance("open_loop_capacity_rps", jsonNumber(cap_rps));
    report.provenance("open_loop_limit_ms", jsonNumber(w.open_limit_ms));
    report.provenance("tail_percentile", jsonNumber(kTailPct));
    report.provenance("clients", std::to_string(kClients));
    report.provenance("pool_workers",
                      std::to_string(w.service.fleet.threads));

    report.print(w.name);
    const std::string json =
        report.json(w.name, args.seed, args.trace, hex64(digest.h));
    std::ofstream out(args.out);
    out << json;
    if (!out) {
        std::fprintf(stderr, "qbench: cannot write %s\n", args.out.c_str());
        return 1;
    }
    return report.correct() ? 0 : 1;
}

} // namespace
} // namespace qbench

int
main(int argc, char **argv)
{
    qbasis::setLogLevel(qbasis::LogLevel::Warn);
    qbench::Args args;
    try {
        args = qbench::parseArgs(argc, argv);
        return qbench::runWorkload(args);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "qbench: %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "qbench: %s failed: %s\n",
                     args.workload.c_str(), e.what());
        return 1;
    }
}

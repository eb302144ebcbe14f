#ifndef QBENCH_BENCH_HPP
#define QBENCH_BENCH_HPP

/**
 * @file
 * Shared types of the qbasis benchmark: workload definitions, the
 * traffic drivers (closed loop, open-loop ladder, drift cycles), and
 * the output checks. Every input is a pure function of the workload
 * seed; the program under test only ever sees CompileRequests and
 * RecalibEdgeRequests.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "serve/compile_service.hpp"

namespace qbench {

/** Deterministic request stream: index -> request, id included. */
using RequestSource = std::function<qbasis::CompileRequest(uint64_t)>;

/** Stream index offsets: segment k starts at k * kSegmentIndex, the
 *  open loop at kOpenIndexBase. Drift-cycle passes use request ids
 *  from kPassIndexBase on. */
constexpr uint64_t kSegmentIndex = 1000000;
constexpr uint64_t kPassIndexBase = 90 * kSegmentIndex;
constexpr uint64_t kOpenIndexBase = 100 * kSegmentIndex;

/** What a served request leaves behind. */
struct Sample
{
    float latency_ms = 0.0f; ///< Client-observed (open loop: from due).
    float queue_ms = 0.0f;
    float compile_ms = 0.0f;
    float snapshot_wait_ms = 0.0f;
    float done_s = 0.0f; ///< Completion, from the phase start.
    qbasis::PlanServePath path = qbasis::PlanServePath::None;
    bool ok = false;
};

/**
 * Fixed-capacity store of the samples of one traffic phase, plus a
 * scratch column for order statistics. Both are allocated and written
 * once, before set-up, and reused by every phase, so the harness's
 * memory does not grow with throughput: peak_rss_mb subtracts bytes().
 * A phase that fills the log stops (its sample budget is spent).
 */
class SampleLog
{
  public:
    explicit SampleLog(size_t capacity)
        : samples_(capacity), scratch_(capacity, 0.0)
    {
    }

    void clear() { size_.store(0); }

    /** Record `s` (thread-safe); false when the log is full. */
    bool
    append(const Sample &s)
    {
        const size_t i = size_.fetch_add(1);
        if (i >= samples_.size())
            return false;
        samples_[i] = s;
        return true;
    }

    size_t size() const { return std::min(size_.load(), samples_.size()); }
    size_t capacity() const { return samples_.size(); }
    const Sample &operator[](size_t i) const { return samples_[i]; }

    /**
     * Copy `field` of the samples that pass `keep` into the scratch
     * column, in log order; returns how many. The column is reordered
     * freely by the *InPlace order statistics.
     */
    template <typename Field, typename Keep>
    size_t
    column(Field field, Keep keep)
    {
        size_t n = 0;
        for (size_t i = 0; i < size(); ++i) {
            if (keep(samples_[i]))
                scratch_[n++] = static_cast<double>(field(samples_[i]));
        }
        return n;
    }
    double *scratch() { return scratch_.data(); }

    size_t
    bytes() const
    {
        return samples_.size() * sizeof(Sample)
               + scratch_.size() * sizeof(double);
    }

  private:
    std::vector<Sample> samples_;
    std::vector<double> scratch_;
    std::atomic<size_t> size_{0};
};

/** A request of the fixed set every run serves: its full response. */
struct Served
{
    qbasis::CompileResponse resp;
};

/** Results of one closed-loop run; its samples are in the log. */
struct ClosedLoop
{
    PhaseCount count;
    std::vector<Served> served;   ///< The first keep_served, by id.
    double wall_s = 0.0;
    double cpu_s = 0.0;
};

/** One rate of the open-loop ladder. */
struct Rung
{
    double rate_rps = 0.0;
    PhaseCount count;
    double p50_ms = 0.0;      ///< From each request's due time.
    double tail_q = 0.99;     ///< The quantile p99_ms holds.
    double p99_ms = 0.0;      ///< Windowed (see windowedQuantileInPlace).
    double max_ms = 0.0;
    /** Median latency of the requests due in the rung's last tenth. */
    double end_p50_ms = 0.0;
    double sent_rps = 0.0;    ///< Achieved send rate of the generator.
    double max_lag_ms = 0.0;  ///< Worst generator lateness.
    double drain_ms = 0.0;    ///< Last completion - last due time.
    bool overloaded = false;  ///< Stopped early on a growing backlog.
    bool meets = false;       ///< p99 within the limit, no backlog.
};

/** One drift cycle. */
struct Cycle
{
    uint64_t cycle = 0;
    int edges = 0;
    double retune_ms = 0.0; ///< recalibrate -> drain.
    double retire_ms = 0.0;
    double pass_ms = 0.0;   ///< Post-retune zoo pass.
    double cycle_ms = 0.0;
    size_t classes_retired = 0;
    uint64_t plans_retired = 0;
    uint64_t presynth_owned = 0;
    uint64_t retries = 0;
    uint64_t window_extensions = 0;
    double busy_ms = 0.0;
    ClosedLoop pass;
    /** Median compile_ms of the pass's responses per plan tier,
     *  indexed by PlanServePath; NaN for an absent tier. */
    std::array<double, 3> tier_ms{};
};

/** Closed-loop segments per run: segment 0, then one after each
 *  gap of kCyclesPerGap drift cycles. */
constexpr int kSegments = 10;
constexpr int kCyclesPerGap = 1;

/**
 * The latency tail percentile of every workload, supported by every
 * segment (see minSamplesForTail). Not p99: at tens of thousands of
 * requests a second (zipf_serve), host stalls of a few ms (several a
 * second on a shared VM) set the p99 of sub-millisecond latencies.
 */
constexpr double kTailPct = 90.0;

/** Static description of one workload. */
struct WorkloadSpec
{
    std::string name;
    std::vector<qbasis::FleetDeviceSpec> devices;
    qbasis::CompileServiceOptions service;
    /** Warm-fill requests compiled during set-up (zipf_serve). */
    std::vector<qbasis::CompileRequest> warm_fill;
    /** Closed-loop and open-loop traffic (open loop from index
     *  kOpenIndexBase on, so its requests are fresh). */
    RequestSource stream;
    std::vector<qbasis::CompileRequest> zoo_pass; ///< Per drift cycle.
    double closed_share = 0.4;  ///< Of --seconds, all closed loops.
    double rung_share = 0.05;   ///< Of --seconds, per open-loop rung.
    /** Open-loop latency limit, fixed per workload: a few times its
     *  closed-loop tail, and short against a rung, so that a backlog
     *  growing through a rung fails it. */
    double open_limit_ms = 20.0;
    /** Segment 0's first requests, served on every run: with the zoo
     *  passes, the exact set (determinism digest, exact counters,
     *  output quality). At least the fixed tail's sample size. */
    size_t exact_requests = 100;
};

WorkloadSpec workloadSpec(const std::string &name, uint64_t seed);

// -- Traffic ---------------------------------------------------------

/** Time one set-up: construct a service, start the fleet, and
 *  compile the warm fill (not timed separately). */
std::unique_ptr<qbasis::CompileService> setUp(const WorkloadSpec &w,
                                              double *seconds);

/**
 * Closed loop: `clients` threads each submit their next request only
 * after the previous one completes, drawing stream indices from one
 * counter, until `seconds` have passed AND `min_requests` were sent,
 * or the log is full. Samples go to `log` (cleared first); the first
 * `keep_served` responses come back in full, sorted by request id.
 */
ClosedLoop closedLoop(qbasis::CompileService &svc,
                      const RequestSource &source, int clients,
                      double seconds, size_t min_requests,
                      size_t keep_served, SampleLog *log);

/** Closed loop over a fixed list (every request exactly once, every
 *  response kept). */
ClosedLoop closedLoopList(qbasis::CompileService &svc,
                          const std::vector<qbasis::CompileRequest> &reqs,
                          int clients, SampleLog *log);

/**
 * One open-loop rung: a single generator thread sends requests
 * `first`, `first + 1`, ... of `source` at `rate` for `seconds`;
 * latency runs from when a request was due (samples go to `log`). The
 * rung meets the limit when every request was sent and served, and
 * both its windowed p99 (or, on a short rung, the highest percentile
 * with ten samples beyond it) and the median latency of the requests
 * due in its last tenth (no growing backlog) are within `limit_ms`.
 * It stops early once far more requests are in flight than the limit
 * allows.
 */
Rung openRung(qbasis::CompileService &svc, const RequestSource &source,
              uint64_t first, double rate, double seconds,
              double limit_ms, SampleLog *log);

/**
 * Stream seed of the device drift. The drift is part of each workload,
 * like its lattice, and not of the run's --seed: every run retunes the
 * same edges to the same parameters, so retune work does not vary
 * with the seed.
 */
constexpr uint64_t kDriftSeed = 0xd71f7ull;

/** Drift cycles retune this share of each device's edges. */
constexpr int kRetunePeriod = 4;

/** Drifted-edge requests of one cycle: a fixed rotation through a
 *  quarter of each device's edges. */
std::vector<qbasis::RecalibEdgeRequest>
cycleEdges(const qbasis::FleetDriver &driver, uint64_t cycle);

/** recalibrate -> drain -> retire -> zoo pass. */
Cycle driftCycle(qbasis::CompileService &svc, const WorkloadSpec &w,
                 uint64_t cycle, SampleLog *log);

/** Median compile_ms of the logged responses per plan tier, indexed
 *  by PlanServePath; NaN for a tier with no response. */
std::array<double, 3> tierMedians(SampleLog *log);

/** Copy of `c` with every 1Q rotation angle shifted by a seeded
 *  amount: same shape and Weyl classes, new parameters. */
qbasis::Circuit shiftOneQubitAngles(const qbasis::Circuit &c,
                                    uint64_t seed);

// -- Checks ----------------------------------------------------------

/** Outcome of the recomposition and semantic checks. */
struct CheckResult
{
    std::vector<std::string> failures;
    int compiles_checked = 0;
    int sims_checked = 0;
    double worst_infidelity = 0.0;
    double worst_allowance = 0.0;
    int edges_checked = 0;
    uint64_t class_lookups = 0; ///< Recomposed synthesis requests.
    uint64_t class_misses = 0;  ///< Classes synthesized by them.
    int replays = 0;
    int window_extensions = 0;
};

/** Slack added to the summed decomposition error bound. */
constexpr double kInfidelitySlack = 1e-6;

/**
 * Recompose runCompile stage by stage for each request against the
 * fleet `driver` serves (spans on `tracer` when non-null), require
 * scores bit-identical to `expected`, then compile each through
 * transpileCircuit and compare logical and physical statevectors.
 */
void checkCompiles(qbasis::FleetDriver &driver,
                   const std::vector<Served> &expected,
                   const std::vector<qbasis::CompileRequest> &requests,
                   Tracer *tracer, CheckResult *out);

/**
 * Replay each request's stored plan from outside (plan lookup,
 * replayTranspilePlan, schedule, score), then serve the request,
 * append the response to `served`, and require the replay tier to
 * answer with the same scores.
 */
void checkReplays(qbasis::CompileService &svc,
                  const std::vector<qbasis::CompileRequest> &requests,
                  Tracer *tracer, std::vector<Served> *served,
                  CheckResult *out);

/**
 * Recompose the initial tuneup of `edges` on device `device_id`
 * (PairSimulator, calibrateDriveFrequency, simulateTrajectory,
 * selectBasisGate) and require the bases initDevices selected.
 */
void checkTuneup(const qbasis::FleetDriver &driver, int device_id,
                 const std::vector<int> &edges, Tracer *tracer,
                 CheckResult *out);

} // namespace qbench

#endif // QBENCH_BENCH_HPP

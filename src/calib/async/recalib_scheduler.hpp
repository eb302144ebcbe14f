#ifndef QBASIS_CALIB_ASYNC_RECALIB_SCHEDULER_HPP
#define QBASIS_CALIB_ASYNC_RECALIB_SCHEDULER_HPP

/**
 * @file
 * Asynchronous per-edge recalibration scheduler -- the paper's daily
 * "retuning" stage reorganized so a retuning edge never stalls fleet
 * compilation.
 *
 * Each drifted edge becomes a three-stage pipeline running on the
 * fleet's shared ThreadPool, entirely in the Background lane:
 *
 *   1. *simulate*  -- rebuild the unit-cell simulator on the drifted
 *      parameters, recalibrate the drive frequency, and integrate
 *      the Cartan trajectory (re-entered with a doubled window when
 *      no sample satisfies the criterion, exactly like the
 *      synchronous calibrateDevice() loop);
 *   2. *select*    -- first-intersection basis-gate selection on the
 *      sampled trajectory (core/selector);
 *   3. *resynthesize + publish* -- warm the SWAP/CNOT Weyl classes
 *      of the *new* basis through DecompositionCache's
 *      claim/publish protocol (never wait(): pool workers must not
 *      block, and a Pending class is already being synthesized by
 *      its claim owner), then atomically swap the edge's
 *      EdgeCalibration into the device's VersionedBasisSet.
 *
 * Tasks for the same (device, edge) run in FIFO order -- cycle c+1
 * can be scheduled while cycle c is still in flight and will observe
 * its result -- while distinct edges recalibrate concurrently.
 *
 * Compilation never blocks on any of this: transpile passes snapshot
 * the versioned set and keep serving the last published basis; the
 * basis hash inside every cache key keeps decompositions against the
 * old and new basis coexisting. Barenco et al. universality is what
 * makes serving the stale basis sound -- it still realizes every
 * gate, just at yesterday's fidelity.
 *
 * Determinism: a recalibration outcome is a pure function of
 * (drifted parameters, options), drifted parameters are pure
 * functions of (seed, edge, cycle), and per-edge FIFO order fixes
 * the final published state -- so the post-drain calibration state
 * is bit-identical whether the cycle ran synchronously (schedule +
 * drain before compiling) or fully overlapped, at any shard or
 * thread count.
 */

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "core/recalib.hpp"

namespace qbasis {

/** One edge-recalibration request. */
struct RecalibJob
{
    const GridDevice *device = nullptr; ///< Owning device (outlives
                                        ///< the scheduler's tasks).
    VersionedBasisSet *target = nullptr; ///< Publish destination.
    int device_id = 0;
    int edge_id = 0;
    uint64_t cycle = 0;                 ///< Drift cycle index.
    PairDeviceParams params;            ///< Drifted unit cell.
    double xi = 0.04;
    SelectionCriterion criterion = SelectionCriterion::Criterion1;
    std::string label;                  ///< For the EdgeBasis table.
};

/**
 * Failure-domain policy: what happens when an edge's pipeline throws.
 *
 * Backoff is cycle-denominated, never wall-clock: a failed task is
 * retried immediately (bounded by max_stage_retries), and when the
 * retry budget is exhausted the edge is quarantined until a job
 * stamped `failure cycle + quarantine_cycles` arrives. The quarantined
 * edge keeps serving its last-good VersionedBasisSet -- Barenco
 * universality makes the stale basis sound, just at yesterday's
 * fidelity -- and per-edge staleness is surfaced via quarantined()
 * and the fleet's HealthReport.
 */
struct RecalibPolicy
{
    /** Contain pipeline failures (retry/quarantine). When false,
     *  failures propagate out of drain() exactly as before. */
    bool contain_failures = true;
    /** Whole-pipeline restarts of a failed task before the edge is
     *  quarantined (stage 1 is not re-entrant mid-failure, so a
     *  retry restarts the task from scratch). */
    int max_stage_retries = 2;
    /** Drift cycles a quarantined edge sits out; jobs stamped below
     *  `failure cycle + quarantine_cycles` are skipped (clamped to
     *  >= 1 so a quarantined edge never retries in-cycle). */
    uint64_t quarantine_cycles = 2;
};

/** One quarantined edge, as reported by quarantined(). */
struct EdgeQuarantine
{
    int device_id = 0;
    int edge_id = 0;
    uint64_t since_cycle = 0;   ///< Cycle whose task exhausted retries.
    uint64_t release_cycle = 0; ///< First cycle allowed to retune.
    /** Contained attempts (initial + retries) accumulated across
     *  every quarantine of this edge. */
    uint64_t failures = 0;
    std::string error; ///< Last contained error message.
    /** Cycles since the edge's basis was last published; filled by
     *  FleetDriver::cycleReport from the live snapshot (the
     *  scheduler itself does not track publish ages). */
    uint64_t stale_cycles = 0;
};

/** Options of the scheduler (shared by every job). */
struct RecalibSchedulerOptions
{
    DeviceCalibrationOptions calib; ///< Sim/selector/window settings.
    SynthOptions synth;             ///< For the class warm-up; must
                                    ///< match the fleet's compile
                                    ///< options to share cache lines.
    bool presynthesize = true;      ///< Run stage 3's class warm-up.
    RecalibPolicy policy;           ///< Retry/quarantine behavior.
};

/** Per-edge async recalibration pipeline on a borrowed pool. */
class RecalibScheduler
{
  public:
    /** Pool and cache must outlive the scheduler. */
    RecalibScheduler(ThreadPool &pool, DecompositionCache &cache,
                     RecalibSchedulerOptions opts = {});

    /** Drains before destruction (swallows nothing: terminate-safe
     *  only when drain() was called; see ~RecalibScheduler()). */
    ~RecalibScheduler();

    RecalibScheduler(const RecalibScheduler &) = delete;
    RecalibScheduler &operator=(const RecalibScheduler &) = delete;

    /**
     * Enqueue one edge recalibration and return immediately. Jobs
     * for the same (device, edge) run in submission order; distinct
     * edges interleave freely.
     */
    void schedule(RecalibJob job);

    /**
     * Block until every scheduled job has completed, then rethrow
     * the first error in (device, edge, cycle) order, if any. Must
     * be called from a non-pool thread.
     */
    void drain();

    /** Pipeline accounting (all counters cumulative). */
    struct Stats
    {
        uint64_t scheduled = 0;
        uint64_t completed = 0;
        uint64_t published = 0;
        uint64_t window_extensions = 0;
        /** Stage-3 class warm-ups this scheduler synthesized /
         *  found published / found claimed by a concurrent owner. */
        uint64_t presynth_owned = 0;
        uint64_t presynth_ready = 0;
        uint64_t presynth_pending = 0;
        /** Failed tasks restarted under RecalibPolicy (one per
         *  whole-pipeline retry, not per stage). */
        uint64_t retries = 0;
        /** Tasks whose retry budget ran out and whose edge was
         *  quarantined instead of failing drain(). */
        uint64_t contained_errors = 0;
        /** Jobs dropped because their edge was quarantined and the
         *  job's cycle was below the release cycle. */
        uint64_t quarantine_skipped = 0;
        double busy_ms = 0.0; ///< Sum of stage execution times.
        /** Task-execution window since the scheduler epoch (or the
         *  last resetWindow()); <0 when no task ran yet. The bench
         *  intersects this with its compile window to measure the
         *  overlap ratio. */
        double window_start_ms = -1.0;
        double window_end_ms = -1.0;
    };

    Stats stats() const;

    /**
     * Currently quarantined edges, sorted by (device, edge) --
     * deterministic for a fixed fault seed. stale_cycles is zero
     * here; the fleet driver fills it from live snapshots.
     */
    std::vector<EdgeQuarantine> quarantined() const;

    /** Restart the stats window (per-cycle overlap measurements). */
    void resetWindow();

    /** Milliseconds since the scheduler epoch, on the same clock the
     *  stats window uses (bench-side timestamps). */
    double nowMs() const;

  private:
    struct Task; // One in-flight edge pipeline.

    using EdgeKey = std::pair<int, int>; // (device_id, edge_id)

    struct EdgeQueue
    {
        std::deque<RecalibJob> pending;
        bool running = false;
    };

    void submitSimulate(std::shared_ptr<Task> task);
    void submitSelect(std::shared_ptr<Task> task);
    void submitResynthesize(std::shared_ptr<Task> task);
    void stageSimulate(const std::shared_ptr<Task> &task);
    void stageSelect(const std::shared_ptr<Task> &task);
    void stageResynthesize(const std::shared_ptr<Task> &task);
    void completeTask(const std::shared_ptr<Task> &task,
                      std::exception_ptr error);
    void noteStage(double t0_ms);

    ThreadPool &pool_;
    DecompositionCache &cache_;
    RecalibSchedulerOptions opts_;
    std::chrono::steady_clock::time_point epoch_;

    /** Quarantine record of one edge (map key carries the ids). */
    struct Quarantine
    {
        uint64_t since_cycle = 0;
        uint64_t release_cycle = 0;
        uint64_t failures = 0;
        std::string error;
    };

    mutable std::mutex mutex_;
    std::condition_variable idle_cv_;
    std::map<EdgeKey, EdgeQueue> queues_;
    std::map<EdgeKey, Quarantine> quarantine_;
    size_t inflight_ = 0; ///< Edges with a running pipeline.
    std::map<std::tuple<int, int, uint64_t>, std::exception_ptr>
        errors_;
    Stats stats_;
};

} // namespace qbasis

#endif // QBASIS_CALIB_ASYNC_RECALIB_SCHEDULER_HPP

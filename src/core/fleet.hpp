#ifndef QBASIS_CORE_FLEET_HPP
#define QBASIS_CORE_FLEET_HPP

/**
 * @file
 * Fleet-level experiment driver: N simulated devices calibrated,
 * summarized (Table I), and compiled against (Table II) concurrently.
 *
 * The driver owns one process-wide ThreadPool and one process-wide
 * DecompositionCache. Devices are dealt round-robin onto
 * `shards` shard threads; each shard runs its devices in increasing
 * device order through the driver's one SynthEngine, which borrows
 * the shared pool. Every synthesis job, regardless of originating
 * device, lands in the shared cache keyed by (basis hash, options,
 * Weyl class) -- so two devices with byte-identical bases (replicated
 * hardware, or a device whose drift left an edge unchanged)
 * synthesize each class exactly once fleet-wide. A device's
 * calibration tuneup runs its edges as tasks on the same pool, so
 * one device saturates the workers.
 *
 * Determinism: per-device work only reads fleet-global state through
 * the shared cache, whose published entries are pure functions of
 * (class gate, basis, options) with derived RNG streams. Reports are
 * therefore bit-identical for a fixed seed at 1 shard and at N
 * shards; see fleetReportsBitIdentical(), which the bench and tests
 * gate on. Per-device drift streams derive from the fleet seed via
 * Rng::deriveSeed(seed, device_id), independent of shard layout.
 */

#include <atomic>
#include <climits>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "calib/async/recalib_scheduler.hpp"
#include "core/experiment.hpp"
#include "core/recalib.hpp"
#include "obs/metrics.hpp"
#include "synth/cache.hpp"
#include "synth/cache_io.hpp"
#include "synth/plan_cache.hpp"

namespace qbasis {

/** One device of the fleet. */
struct FleetDeviceSpec
{
    GridDeviceParams grid;   ///< Device sample (seed may be shared
                             ///< across devices to model replicated
                             ///< hardware).
    double xi = 0.04;        ///< Drive amplitude for calibration.
    SelectionCriterion criterion = SelectionCriterion::Criterion1;
    std::string label;       ///< Defaults to "dev<id>".
    /**
     * Give this device its own drifted unit-cell parameters: each
     * edge's PairDeviceParams drifts on a stream derived from the
     * fleet seed and the device id, so replicated devices with
     * drift disabled stay byte-identical (and share cache lines)
     * while drifted ones diverge (and synthesize their own classes).
     */
    bool apply_drift = false;
    DriftModel drift;        ///< Magnitudes when apply_drift is set.
};

/** A named logical circuit compiled on every device (Table II). */
struct FleetCircuit
{
    std::string name;
    Circuit circuit;
};

/** Options of the fleet driver. */
struct FleetOptions
{
    /** Shard threads; <= 0 means one shard per device. */
    int shards = 0;
    /** Workers in the shared pool; 0 = hardware concurrency. */
    int threads = 0;
    /** Fleet master seed (per-device drift streams derive from it). */
    uint64_t seed = 2022;
    DeviceCalibrationOptions calib; ///< Per-device calibration.
    SynthOptions synth;             ///< Fleet-wide synthesis options
                                    ///< (part of the cache key: all
                                    ///< devices must share them to
                                    ///< share classes).
    TranspileOptions transpile;     ///< Circuit compilation options.
    /** Failure-domain policy for async recalibration (retry budget,
     *  quarantine length, containment on/off). */
    RecalibPolicy recalib;
    double t_1q_ns = 20.0;
    double t_coherence_ns = 80e3;
};

/** One compiled circuit on one device. */
struct FleetCircuitResult
{
    std::string name;
    CompiledCircuitResult result;
};

/** Everything the fleet produced for one device. */
struct FleetDeviceReport
{
    int device_id = -1;
    std::string label;
    CalibratedBasisSet set;
    GateSetSummary summary;
    std::vector<FleetCircuitResult> circuits;
};

/**
 * Terminal state of one device in a run() pass. A failed device's
 * FleetDeviceReport keeps its id/label but carries no results; the
 * fleet keeps serving the other devices (failure-domain isolation --
 * a serving daemon must not tear down the fleet because one device
 * failed).
 */
struct FleetDeviceStatus
{
    int device_id = -1;
    bool ok = false;
    std::string error; ///< what() of the contained failure.
};

/** Fleet-wide outcome of one run() call. */
struct FleetReport
{
    std::vector<FleetDeviceReport> devices; ///< Indexed by device id.
    /** Per-device outcome, indexed by device id. Excluded from the
     *  bit-identical contract (fault-free runs keep every entry ok);
     *  failures also count into the HealthReport, whose fixed-fault-
     *  seed contract covers them. */
    std::vector<FleetDeviceStatus> statuses;
    DecompositionCache::Stats cache;  ///< Cumulative stats.
    int shards = 0;
    double wall_ms = 0.0;

    /** Devices whose status is not ok. */
    size_t
    failedDevices() const
    {
        size_t n = 0;
        for (const FleetDeviceStatus &s : statuses)
            n += s.ok ? 0 : 1;
        return n;
    }
};

/**
 * True when two reports are bit-identical in every result field
 * (basis matrices, durations, summaries, circuit scores). This is
 * the determinism contract the bench gates on: a fixed-seed fleet
 * must produce equal reports at 1 shard and at N shards.
 */
bool fleetReportsBitIdentical(const FleetReport &a,
                              const FleetReport &b);

/**
 * FNV-64 digest over exactly the fields fleetReportsBitIdentical
 * compares (defined beside it so the two can never drift apart).
 * The simd-determinism CI job runs the fleet smoke under
 * forced-scalar and auto-dispatch kernel backends and diffs this
 * digest for bit-identity.
 */
uint64_t fleetReportDigest(const FleetReport &report);

// ---------------------------------------------------------------------------
// Cycle serving: live devices with versioned calibrations, async
// per-edge recalibration overlapped with circuit compilation.
// ---------------------------------------------------------------------------

/** One live device of a serving fleet (see initDevices()). */
struct FleetDeviceState
{
    int device_id = -1;
    std::string label;
    FleetDeviceSpec spec;
    GridDevice device;
    VersionedBasisSet calibration;

    FleetDeviceState(int id, FleetDeviceSpec s)
        : device_id(id),
          label(s.label.empty() ? "dev" + std::to_string(id)
                                : s.label),
          spec(std::move(s)), device(spec.grid)
    {
    }
};

/** One drifted edge to retune asynchronously. */
struct RecalibEdgeRequest
{
    int device_id = 0;
    int edge_id = 0;
    uint64_t cycle = 0;
    PairDeviceParams params; ///< Drifted unit cell (e.g. from
                             ///< DriftCycle::paramsAt()).
};

/** One compile pass over the whole fleet (compileCircuits()). */
struct FleetCompilePass
{
    /** results[device][circuit], annotated with the calibration
     *  version each compile was served from. */
    std::vector<std::vector<VersionedCompileResult>> results;
    double wall_ms = 0.0;
    /** Total time compile threads spent acquiring calibration
     *  snapshots -- the only place the compile path could ever wait
     *  on recalibration state. Stays at microseconds by design. */
    double snapshot_wait_ms = 0.0;
};

/**
 * Accounting view of the shared Weyl-class cache against the fleet's
 * live calibrations (see FleetDriver::cacheManifest()).
 *
 * Live/dead is defined by basis-context refcounting: an entry is
 * live when its key.context (basis gate + synthesis options hash)
 * appears in at least one live VersionedBasisSet snapshot, dead
 * otherwise -- dead entries are what retireCache() drops. The warm
 * window starts at construction or at the last loadCache(), so
 * warm_hit_rate measures how much of the post-restore workload was
 * served without resynthesis.
 */
struct CacheManifest
{
    size_t entries = 0;       ///< Published classes in the cache.
    size_t bytes = 0;         ///< Encoded snapshot size (cache_io).
    size_t live_contexts = 0; ///< Distinct live basis contexts.
    size_t live_entries = 0;  ///< Entries keyed by a live context.
    size_t dead_entries = 0;  ///< Entries a retirement sweep drops.
    uint64_t warm_hits = 0;   ///< Hits since the warm window opened.
    uint64_t warm_misses = 0; ///< Misses since the warm window opened.

    double
    warmHitRate() const
    {
        const uint64_t total = warm_hits + warm_misses;
        return total > 0 ? static_cast<double>(warm_hits)
                               / static_cast<double>(total)
                         : 0.0;
    }
};

/** Post-drain state of one device after a drift cycle. */
struct RecalibDeviceCycle
{
    int device_id = -1;
    uint64_t calibration_version = 0;
    std::vector<EdgeCalibration> edges;
    std::vector<EdgeBasis> bases;
    std::vector<FleetCircuitResult> verify; ///< Compiled post-drain.
};

/**
 * Failure-domain accounting of one serving fleet, reported per cycle.
 *
 * Like CacheManifest, this is *excluded* from the bit-identical
 * contract over fault-free runs (recalibReportsBitIdentical ignores
 * it); its own determinism contract is weaker but still exact: for a
 * fixed fault seed, two runs produce bit-identical HealthReports
 * (healthReportsBitIdentical / healthReportDigest).
 */
struct HealthReport
{
    /** Quarantined edges, sorted by (device, edge), with
     *  stale_cycles filled in from the live snapshots (report cycle
     *  minus the edge's last published calibration cycle). */
    std::vector<EdgeQuarantine> quarantined;
    uint64_t stage_retries = 0;      ///< Pipeline restarts (scheduler).
    uint64_t contained_errors = 0;   ///< Tasks quarantined, not failed.
    uint64_t quarantine_skipped = 0; ///< Jobs dropped in quarantine.
    /** Synthesis restarts that threw and were contained as aborted
     *  slots (the driver's engine, since construction). */
    uint64_t synth_restarts_failed = 0;
    uint64_t cache_quarantines = 0;  ///< Snapshots renamed .quarantine.
    /** CacheIoStatus name of the last quarantined snapshot (empty
     *  when cache_quarantines == 0). */
    std::string last_cache_quarantine;
    /** Max stale_cycles over the quarantined edges (0 when none). */
    uint64_t max_stale_cycles = 0;
    /** run() devices whose failure was contained into a
     *  FleetDeviceStatus instead of tearing the fleet down. */
    uint64_t device_failures = 0;
    /** what() of the lowest-device-id contained failure so far
     *  (empty when device_failures == 0); deterministic regardless
     *  of shard interleaving. */
    std::string first_device_error;
};

/** Bitwise equality of two health reports -- the fixed-fault-seed
 *  replay contract (fault-free runs trivially satisfy it with empty
 *  reports). */
bool healthReportsBitIdentical(const HealthReport &a,
                               const HealthReport &b);

/** FNV-64 digest over exactly the fields healthReportsBitIdentical
 *  compares (defined beside it so the two can never drift apart);
 *  bench_recalib --faults diffs this across replayed runs. */
uint64_t healthReportDigest(const HealthReport &report);

/**
 * Post-cycle report: the settled calibration state plus verification
 * compiles against the final published sets. This is the object the
 * determinism contract quantifies over -- for a fixed seed it is
 * bit-identical whether the cycle's recalibration ran synchronously
 * or fully overlapped with serving, at 1 or N shards.
 */
struct RecalibCycleReport
{
    uint64_t cycle = 0;
    std::vector<RecalibDeviceCycle> devices;
    /** Cache accounting at report time. Excluded from the
     *  bit-identical contract: hit/miss history legitimately differs
     *  between a warm-started and a cold run that agree on every
     *  result. */
    CacheManifest cache;
    /** Failure-domain accounting. Excluded from the bit-identical
     *  contract like `cache` (fault-free runs keep it empty); gated
     *  separately by healthReportsBitIdentical under a fixed fault
     *  seed. */
    HealthReport health;
};

/** Bitwise equality of two post-cycle reports (the CacheManifest is
 *  excluded; see RecalibCycleReport::cache). */
bool recalibReportsBitIdentical(const RecalibCycleReport &a,
                                const RecalibCycleReport &b);

/** Bitwise equality of two compile passes' results (per-cell scores
 *  and served calibration versions; wall/wait times excluded). The
 *  warm-start contract gates on this: a fleet compilation restored
 *  from a snapshot must reproduce the cold pass exactly. */
bool compilePassesBitIdentical(const FleetCompilePass &a,
                               const FleetCompilePass &b);

/**
 * FNV-64 digest over exactly the fields compilePassesBitIdentical
 * compares (defined beside it so the two can never drift apart).
 * The CI persist-roundtrip job writes this next to the snapshot and
 * a later process asserts equality -- the cross-process form of the
 * bit-identical contract.
 */
uint64_t compilePassDigest(const FleetCompilePass &pass);

/** Shard-parallel fleet driver. */
class FleetDriver
{
  public:
    explicit FleetDriver(FleetOptions opts = {});

    /**
     * Calibrate + summarize every device and compile every circuit
     * on it, sharded across threads. A failing device never throws
     * out of run(): its error is contained into
     * FleetReport::statuses[d] (and counted into the HealthReport's
     * device_failures) while every other device completes normally.
     * The shared cache persists across run() calls (a warm fleet
     * recompiles without resynthesis); call cache().clear() between
     * calibration cycles instead.
     */
    FleetReport run(const std::vector<FleetDeviceSpec> &specs,
                    const std::vector<FleetCircuit> &circuits = {});

    // -- Cycle serving (async recalibration subsystem) --------------

    /**
     * Build persistent device state: sample every device, calibrate
     * it (sharded, like run()), and install the result behind a
     * VersionedBasisSet. Drains any in-flight recalibration first
     * (pipelines hold pointers into the states being replaced),
     * then replaces any previous device state.
     */
    void initDevices(const std::vector<FleetDeviceSpec> &specs);

    size_t deviceCount() const { return devices_.size(); }
    const FleetDeviceState &device(int device_id) const;

    /** Snapshot a device's current calibration (never blocks). */
    CalibrationSnapshot calibrationSnapshot(int device_id) const;

    /**
     * Schedule per-edge recalibration pipelines on the shared pool
     * (Background lane) and return immediately. Compilation keeps
     * serving the last published basis of every edge; each pipeline
     * atomically swaps its edge when done.
     */
    void recalibrate(const std::vector<RecalibEdgeRequest> &edges);

    /** Join every in-flight recalibration (rethrows task errors). */
    void drainRecalibration();

    /** Scheduler counters (zeroed when no recalibrate() ran yet). */
    RecalibScheduler::Stats recalibStats() const;

    /** Scheduler clock for overlap measurements (ms since the
     *  scheduler epoch); creates the scheduler on first use. */
    double recalibNowMs();

    /** Reset the scheduler's stats window (per-cycle overlap). */
    void resetRecalibWindow();

    /** Accounting of the driver's engine, which runs every
     *  synthesis of run(), compileCircuits() and cycleReport(). */
    SynthEngine::Stats engineStats() const { return engine_.stats(); }

    /**
     * Compile every circuit on every initDevices() device against
     * its current calibration snapshot, sharded across threads. The
     * compile path never blocks on recalibration: an edge
     * mid-recalibration serves its last published basis.
     */
    FleetCompilePass
    compileCircuits(const std::vector<FleetCircuit> &circuits);

    /**
     * Post-drain cycle report: final published calibrations plus
     * verification compiles of `verify` against them. Call after
     * drainRecalibration().
     */
    RecalibCycleReport
    cycleReport(uint64_t cycle,
                const std::vector<FleetCircuit> &verify = {});

    // -- Cache persistence + retirement ------------------------------

    /**
     * Snapshot the shared Weyl-class cache to `path` (synth/cache_io
     * format). Call after drainRecalibration() -- and, to keep files
     * from growing unboundedly, after retireCache() -- so the
     * snapshot holds exactly the settled, live-referenced state.
     */
    CacheIoResult saveCache(const std::string &path);

    /**
     * Warm-start: merge a snapshot into the shared cache (existing
     * entries win; see DecompositionCache::insertLoaded) and
     * open the warm-hit-rate window. Loaded classes are bit-identical
     * to freshly synthesized ones and re-dress through the same
     * canonicalKakDecompose() path, so a warm compile pass reproduces
     * the cold pass exactly.
     *
     * Failure domain: a *rejected* snapshot (bad magic, version or
     * quantum mismatch, truncation, checksum failure, malformed
     * contents) is quarantined -- renamed to `path + ".quarantine"`,
     * its CacheIoStatus logged and counted into the HealthReport --
     * and the fleet falls back to a cold start instead of aborting.
     * A missing/unreadable file (IoError) is a normal cold start and
     * is not quarantined.
     */
    CacheIoResult loadCache(const std::string &path);

    /**
     * Epoch-sweep retirement: drop every cached class whose basis
     * context no longer appears in any live device's VersionedBasisSet
     * snapshot, and every transpile plan whose basis-epoch vector
     * died (some device it references was recalibrated past the
     * epoch the plan was captured at, or no longer exists). Run
     * between drift cycles, after drainRecalibration() and before
     * saveCache() (a sweep during an in-flight recalibration could
     * drop classes presynthesized for a not yet published basis). A
     * no-op (returns 0) when no devices are live: run()-style fleets
     * have no versioned calibrations to refcount against. Returns the
     * number of *classes* retired; plan sweeps are reported through
     * planCache().stats().retired.
     */
    size_t retireCache();

    /** Sorted, deduplicated basis contexts of every live device --
     *  the refcount roots retireCache() sweeps against. */
    std::vector<uint64_t> liveContexts() const;

    /** Current (device id, basis epoch) of every live device, sorted
     *  by device id -- the liveness roots the plan sweep checks
     *  epoch vectors against. */
    std::vector<DeviceEpoch> liveDeviceEpochs() const;

    /** Cache accounting against the live calibrations (entry/byte
     *  counts, live/dead split, warm hit rate). */
    CacheManifest cacheManifest() const;

    DecompositionCache &cache() { return cache_; }
    /** Fleet-wide transpile-plan cache (tier above the Weyl-class
     *  cache; see synth/plan_cache.hpp). The serving layer consults
     *  it through runCompile's PlanCache overload. */
    PlanCache &planCache() { return plan_cache_; }
    ThreadPool &pool() { return pool_; }
    const FleetOptions &options() const { return opts_; }

  private:
    FleetDeviceReport
    runDevice(int device_id, const FleetDeviceSpec &spec,
              const std::vector<FleetCircuit> &circuits);

    /** Tune one device, its edges fanned over pool_ (see
     *  calibrateDevice()). Never call from a pool_ worker. */
    CalibratedBasisSet calibrateSpec(int device_id,
                                     const FleetDeviceSpec &spec,
                                     const GridDevice &device,
                                     const std::string &label);

    RecalibScheduler &scheduler();

    /** Run fn(device_id) for device ids [0, n), dealt round-robin
     *  onto opts_.shards shard threads; collects per-shard errors
     *  and rethrows the first in shard order (~ first failing
     *  device order). Shards inherit the caller's trace
     *  correlation. */
    void forEachDeviceSharded(
        size_t n, const std::function<void(int)> &fn) const;

    /** Shard threads used for `n` devices (opts_.shards clamped). */
    int shardCount(int n_devices) const;

    FleetOptions opts_;
    ThreadPool pool_;
    /** Every device's synthesis route (shard threads share it). */
    SynthEngine engine_;
    DecompositionCache cache_;
    PlanCache plan_cache_;
    std::vector<std::unique_ptr<FleetDeviceState>> devices_;
    std::unique_ptr<RecalibScheduler> recalib_;
    Counter cycles_;         ///< cycleReport() calls.
    Counter compile_passes_; ///< compileCircuits() calls.
    /** run() device failures contained into FleetDeviceStatus. */
    Counter device_failures_;
    /** Snapshots loadCache() rejected and renamed to .quarantine. */
    Counter cache_quarantines_;
    mutable std::mutex health_mutex_; ///< Guards the strings below.
    std::string last_cache_quarantine_;
    std::string first_device_error_;
    /** Device id of first_device_error_ (INT_MAX until a failure). */
    int first_device_error_id_ = INT_MAX;
    /** Cache counters at the last loadCache() (0 until then): the
     *  base of the warm-hit-rate window. */
    std::atomic<uint64_t> warm_base_hits_{0};
    std::atomic<uint64_t> warm_base_misses_{0};

    /** Last member: retires the counters before they are destroyed. */
    MetricsRegistration metrics_{
        {{"fleet.cycles", &cycles_},
         {"fleet.compile_passes", &compile_passes_},
         {"fleet.device_failures", &device_failures_},
         {"fleet.cache_quarantines", &cache_quarantines_}}};
};

} // namespace qbasis

#endif // QBASIS_CORE_FLEET_HPP

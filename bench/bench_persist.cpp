/**
 * @file
 * Cache-persistence benchmark: cold vs warm-start fleet compilation
 * through the versioned Weyl-class snapshot (synth/cache_io), plus
 * the cycle-aware retirement sweep. Emits BENCH_persist.json for the
 * CI bench gate (scripts/check_bench.py).
 *
 * Default mode (in-process round trip):
 *   1. cold  -- fresh fleet, compile the workload, save the snapshot;
 *   2. warm  -- fresh fleet (simulating a restarted process), load
 *      the snapshot, compile the same workload: every class is a
 *      pure lookup, results must be bit-identical to the cold pass;
 *   3. retire -- a basis-changing drift cycle retunes edges, the
 *      fleet recompiles (old- and new-basis classes now coexist),
 *      then the epoch sweep drops the dead classes and the snapshot
 *      written afterwards must be smaller than one written before;
 *   4. corrupt -- a byte-flipped and a truncated copy of the
 *      snapshot must both be rejected gracefully.
 *
 * Cross-process modes (the CI persist-roundtrip job):
 *   --write PATH   compile and save PATH + PATH.digest (an FNV-64
 *                  digest of the compile results). When PATH already
 *                  exists (a snapshot restored from a previous
 *                  workflow run's cache), the writer warm-starts
 *                  from it first -- the cross-run amortization the
 *                  artifact cache exists to provide.
 *   --read PATH    fresh process; loads PATH, compiles warm, asserts
 *                  warm hit rate >= 0.95 and that its own digest
 *                  equals PATH.digest -- bit-identical across
 *                  processes, which is the whole point.
 *
 * Usage: bench_persist [--quick|--smoke] [--threads N]
 *                      [--snapshot PATH] [--write PATH | --read PATH]
 *
 * JSON schema (BENCH_persist.json, default mode only):
 * {
 *   "quick": bool, "smoke": bool, "threads": int,
 *   "fleet": { "devices": int, "circuits": int },
 *   "snapshot": { "format_version": int, "bytes": int,
 *                 "entries": int },
 *   "cold": { "wall_ms": double, "classes": int, "misses": int },
 *   "warm": { "wall_ms": double, "hits": int, "misses": int,
 *             "hit_rate": double },
 *   "speedup": double,            // cold.wall / warm.wall
 *   "results_match": bool,        // warm pass bit-identical to cold
 *   "corrupt_rejected": bool,
 *   "retirement": { "retired": int, "entries_before": int,
 *                   "entries_after": int, "bytes_before": int,
 *                   "bytes_after": int, "reduced": bool }
 * }
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/bv.hpp"
#include "apps/qaoa.hpp"
#include "apps/qft.hpp"
#include "core/fleet.hpp"
#include "synth/cache_io.hpp"
#include "synth/depth_cache.hpp"
#include "util/logging.hpp"

using namespace qbasis;

namespace {

/** Warm hit-rate floor shared with bench/baselines.json and the CI
 *  persist-roundtrip job: a restored fleet recompiling its own
 *  workload must serve >= 95% of lookups from the snapshot. */
constexpr double kWarmHitRateFloor = 0.95;

/** Bench-scale synthesis settings (cheap but converging). */
SynthOptions
benchSynth()
{
    SynthOptions s;
    s.restarts = 3;
    s.adam_iters = 350;
    s.polish_iters = 120;
    s.max_layers = 4;
    s.target_infidelity = 1e-8;
    return s;
}

struct BenchConfig
{
    int devices = 4;
    int edge_limit = -1;
    int threads = 0;
    bool smoke = false;
    bool quick = false;
    uint64_t drift_seed = 4242;
};

FleetOptions
benchFleetOptions(const BenchConfig &cfg)
{
    FleetOptions opts;
    opts.shards = cfg.devices;
    opts.threads = cfg.threads;
    opts.synth = benchSynth();
    opts.calib.edge_limit = cfg.edge_limit;
    // Bench-scale simulator settings (same coarsening as
    // bench_recalib): calibration must stay cheap relative to the
    // synthesis work whose persistence is being measured.
    opts.calib.sim.dt = 0.01;
    opts.calib.sim.probe_dt = 0.04;
    opts.calib.sim.probe_duration = 60.0;
    opts.calib.sim.drive_scan_points = 7;
    return opts;
}

std::vector<FleetDeviceSpec>
benchFleet(int devices)
{
    std::vector<FleetDeviceSpec> specs;
    specs.reserve(static_cast<size_t>(devices));
    for (int d = 0; d < devices; ++d) {
        FleetDeviceSpec spec;
        spec.grid.rows = 2;
        spec.grid.cols = 2;
        spec.grid.seed = 97 + static_cast<uint64_t>(d);
        spec.xi = 0.04;
        specs.push_back(std::move(spec));
    }
    return specs;
}

std::vector<FleetCircuit>
benchCircuits(const BenchConfig &cfg)
{
    // Distinct CPhase/RZZ angles populate many Weyl classes per
    // basis -- the resynthesis bill a restarted process re-pays
    // without the snapshot.
    std::vector<FleetCircuit> circuits;
    if (cfg.smoke) {
        circuits.push_back({"qft3", qftCircuit(3)});
    } else {
        circuits.push_back({"qft4", qftCircuit(4)});
        circuits.push_back({"bv3", bvAllOnesCircuit(3)});
    }
    const int qaoa = cfg.smoke ? 1 : cfg.quick ? 2 : 4;
    for (int k = 0; k < qaoa; ++k) {
        QaoaParams qp;
        qp.gamma = 0.3 + 0.2 * k;
        qp.beta = 0.25;
        circuits.push_back({"qaoa4_g" + std::to_string(k),
                            qaoaErdosRenyiCircuit(4, 0.5, qp)});
    }
    return circuits;
}

std::string
digestHex(uint64_t digest)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(digest));
    return buf;
}

struct PassResult
{
    double wall_ms = 0.0;
    FleetCompilePass pass;
    DecompositionCache::Stats stats;
};

/** Time one compile pass over the whole fleet. */
PassResult
runPass(FleetDriver &driver,
        const std::vector<FleetCircuit> &circuits)
{
    PassResult r;
    const double t0 = driver.recalibNowMs();
    r.pass = driver.compileCircuits(circuits);
    r.wall_ms = driver.recalibNowMs() - t0;
    r.stats = driver.cache().stats();
    return r;
}

/** Byte-flipped and truncated copies of the snapshot must both be
 *  rejected without touching the destination cache. */
bool
corruptionRejected(const std::string &path)
{
    std::vector<uint8_t> bytes;
    if (!readFileBytes(path, &bytes)) {
        std::printf("corrupt check: cannot reopen %s\n", path.c_str());
        return false;
    }
    if (bytes.size() < 128) {
        std::printf("corrupt check: snapshot too small\n");
        return false;
    }

    bool ok = true;
    // Payload byte flip: the section CRC must catch it.
    {
        std::vector<uint8_t> flipped = bytes;
        flipped[flipped.size() - 9] ^= 0x40u;
        std::vector<CacheSnapshotEntry> out;
        const CacheIoResult r =
            decodeCacheSnapshot(flipped.data(), flipped.size(), &out);
        if (r.ok() || !out.empty()) {
            std::printf("corrupt check: byte flip accepted\n");
            ok = false;
        }
    }
    // Truncation: must be reported as such, not crash.
    {
        std::vector<CacheSnapshotEntry> out;
        const CacheIoResult r = decodeCacheSnapshot(
            bytes.data(), bytes.size() / 2, &out);
        if (r.ok() || !out.empty()) {
            std::printf("corrupt check: truncated snapshot accepted\n");
            ok = false;
        }
    }
    return ok;
}

struct RetireResult
{
    size_t retired = 0;
    CacheManifest before;
    CacheManifest after;

    bool
    reduced() const
    {
        return retired > 0 && after.bytes < before.bytes;
    }
};

/**
 * One basis-changing drift cycle: retune every edge of the first
 * `retire_devices` devices (drifted parameters select new basis
 * gates, so the old contexts of those devices go dead), recompile,
 * then run the epoch sweep on the DriftCycle's retire cadence.
 */
RetireResult
runRetirement(FleetDriver &driver, const BenchConfig &cfg,
              int retire_devices,
              const std::vector<FleetCircuit> &circuits)
{
    std::vector<RecalibEdgeRequest> requests;
    bool retire = false;
    for (int d = 0; d < retire_devices; ++d) {
        const FleetDeviceState &state = driver.device(d);
        const int n_edges =
            static_cast<int>(state.device.coupling().edges().size());
        DriftCycleOptions dopts;
        dopts.recalibrate_fraction = 1.0; // every edge changes basis
        dopts.retire_period = 1;          // sweep after this cycle
        dopts.seed = Rng::deriveSeed(cfg.drift_seed,
                                     static_cast<uint64_t>(d));
        DriftCycle drift(n_edges, dopts);
        const DriftCycle::Step step = drift.advance();
        retire = retire || step.retire_cache;
        for (const int e : step.drifted_edges) {
            RecalibEdgeRequest req;
            req.device_id = d;
            req.edge_id = e;
            req.cycle = step.cycle;
            req.params = drift.paramsAt(state.device.edgeParams(e), e,
                                        step.cycle);
            requests.push_back(std::move(req));
        }
    }
    driver.recalibrate(requests);
    driver.drainRecalibration();
    // Serve against the new bases: old- and new-basis classes now
    // coexist in the cache, which is exactly the unbounded growth
    // the sweep bounds.
    driver.compileCircuits(circuits);

    RetireResult r;
    r.before = driver.cacheManifest();
    if (retire)
        r.retired = driver.retireCache();
    r.after = driver.cacheManifest();
    return r;
}

void
writeJson(const char *path, const BenchConfig &cfg, size_t circuits,
          const CacheIoResult &saved, const PassResult &cold,
          const PassResult &warm, double warm_hit_rate, double speedup,
          bool results_match, bool corrupt_rejected,
          const RetireResult &retire)
{
    FILE *f = std::fopen(path, "w");
    if (f == nullptr) {
        warn("bench_persist: cannot write %s", path);
        return;
    }
    std::fprintf(
        f,
        "{\n  \"quick\": %s,\n  \"smoke\": %s,\n  \"threads\": %d,\n"
        "  \"fleet\": { \"devices\": %d, \"circuits\": %zu },\n"
        "  \"snapshot\": {\n"
        "    \"format_version\": %u,\n"
        "    \"bytes\": %zu,\n"
        "    \"entries\": %zu\n  },\n"
        "  \"cold\": {\n"
        "    \"wall_ms\": %.3f,\n"
        "    \"classes\": %zu,\n"
        "    \"misses\": %llu\n  },\n"
        "  \"warm\": {\n"
        "    \"wall_ms\": %.3f,\n"
        "    \"hits\": %llu,\n"
        "    \"misses\": %llu,\n"
        "    \"hit_rate\": %.4f\n  },\n"
        "  \"speedup\": %.4f,\n"
        "  \"results_match\": %s,\n"
        "  \"corrupt_rejected\": %s,\n"
        "  \"retirement\": {\n"
        "    \"retired\": %zu,\n"
        "    \"entries_before\": %zu,\n"
        "    \"entries_after\": %zu,\n"
        "    \"bytes_before\": %zu,\n"
        "    \"bytes_after\": %zu,\n"
        "    \"reduced\": %s\n  }\n}\n",
        cfg.quick ? "true" : "false", cfg.smoke ? "true" : "false",
        cfg.threads, cfg.devices, circuits, kCacheFormatVersion,
        saved.bytes, saved.entries, cold.wall_ms, cold.stats.classes,
        static_cast<unsigned long long>(cold.stats.misses),
        warm.wall_ms,
        static_cast<unsigned long long>(warm.stats.hits),
        static_cast<unsigned long long>(warm.stats.misses),
        warm_hit_rate, speedup, results_match ? "true" : "false",
        corrupt_rejected ? "true" : "false", retire.retired,
        retire.before.entries, retire.after.entries,
        retire.before.bytes, retire.after.bytes,
        retire.reduced() ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", path);
}

bool
writeDigestFile(const std::string &path, uint64_t digest)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "%s\n", digestHex(digest).c_str());
    return std::fclose(f) == 0;
}

bool
readDigestFile(const std::string &path, std::string *out)
{
    FILE *f = std::fopen(path.c_str(), "r");
    if (f == nullptr)
        return false;
    char buf[64] = {0};
    const bool ok = std::fgets(buf, sizeof(buf), f) != nullptr;
    std::fclose(f);
    if (!ok)
        return false;
    std::string s(buf);
    while (!s.empty() && (s.back() == '\n' || s.back() == '\r'))
        s.pop_back();
    *out = s;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchConfig cfg;
    std::string snapshot_path = "BENCH_persist_snapshot.qbwc";
    std::string write_path;
    std::string read_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            cfg.quick = true;
        else if (std::strcmp(argv[i], "--smoke") == 0)
            cfg.smoke = true;
        else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
            cfg.threads = std::atoi(argv[++i]);
        else if (std::strcmp(argv[i], "--snapshot") == 0
                 && i + 1 < argc)
            snapshot_path = argv[++i];
        else if (std::strcmp(argv[i], "--write") == 0 && i + 1 < argc)
            write_path = argv[++i];
        else if (std::strcmp(argv[i], "--read") == 0 && i + 1 < argc)
            read_path = argv[++i];
        else {
            std::fprintf(stderr,
                         "usage: bench_persist [--quick|--smoke] "
                         "[--threads N] [--snapshot PATH] "
                         "[--write PATH | --read PATH]\n");
            return 2;
        }
    }

    setLogLevel(LogLevel::Warn);
    std::printf("=== bench_persist: warm-start fleet compilation from "
                "the Weyl-class snapshot ===\n");
    std::printf("mode: %s%s\n",
                cfg.smoke ? "smoke" : cfg.quick ? "quick" : "full",
                !write_path.empty()  ? " (write phase)"
                : !read_path.empty() ? " (read phase)"
                                     : "");

    if (cfg.smoke) {
        cfg.devices = 2;
        cfg.edge_limit = 1;
    } else if (cfg.quick) {
        cfg.devices = 3;
        cfg.edge_limit = 1;
    } else {
        cfg.devices = 4;
        cfg.edge_limit = -1;
    }
    const std::vector<FleetCircuit> circuits = benchCircuits(cfg);
    const std::vector<FleetDeviceSpec> specs = benchFleet(cfg.devices);

    // -- Cross-process write phase --------------------------------------
    if (!write_path.empty()) {
        DepthOracleCache::shared().clear();
        FleetDriver driver(benchFleetOptions(cfg));
        driver.initDevices(specs);
        // Warm-start from a pre-existing snapshot when one was
        // restored (the CI job's actions/cache hands a previous
        // workflow run's snapshot to this step): cached classes are
        // pure functions of the key, so reusing them is exactly the
        // amortization the subsystem exists for. A missing or
        // incompatible file just means a cold write.
        const CacheIoResult prior = driver.loadCache(write_path);
        if (prior.ok())
            std::printf("warm-started from existing snapshot "
                        "(%zu entries, %zu merged)\n",
                        prior.entries, prior.merged);
        const PassResult written = runPass(driver, circuits);
        const CacheIoResult saved = driver.saveCache(write_path);
        if (!saved.ok()) {
            std::printf("FAIL: save: %s (%s)\n", saved.message.c_str(),
                        cacheIoStatusName(saved.status));
            return 1;
        }
        const uint64_t digest = compilePassDigest(written.pass);
        if (!writeDigestFile(write_path + ".digest", digest)) {
            std::printf("FAIL: cannot write %s.digest\n",
                        write_path.c_str());
            return 1;
        }
        std::printf("%s compile %.1f ms, %zu classes -> %s "
                    "(%zu bytes), digest %s\n",
                    prior.ok() ? "warm" : "cold", written.wall_ms,
                    written.stats.classes, write_path.c_str(),
                    saved.bytes, digestHex(digest).c_str());
        return 0;
    }

    // -- Cross-process read phase ---------------------------------------
    if (!read_path.empty()) {
        DepthOracleCache::shared().clear();
        FleetDriver driver(benchFleetOptions(cfg));
        driver.initDevices(specs);
        const CacheIoResult loaded = driver.loadCache(read_path);
        if (!loaded.ok()) {
            std::printf("FAIL: load: %s (%s)\n", loaded.message.c_str(),
                        cacheIoStatusName(loaded.status));
            return 1;
        }
        const PassResult warm = runPass(driver, circuits);
        const CacheManifest manifest = driver.cacheManifest();
        const double hit_rate = manifest.warmHitRate();
        const std::string digest = digestHex(compilePassDigest(warm.pass));
        std::string expected;
        const bool have_expected =
            readDigestFile(read_path + ".digest", &expected);
        std::printf("loaded %zu entries (%zu merged); warm compile "
                    "%.1f ms, hit rate %.4f, digest %s (expected "
                    "%s)\n",
                    loaded.entries, loaded.merged, warm.wall_ms,
                    hit_rate,
                    digest.c_str(),
                    have_expected ? expected.c_str() : "<missing>");
        bool ok = true;
        if (hit_rate < kWarmHitRateFloor) {
            std::printf("FAIL: warm hit rate %.4f below %.2f\n",
                        hit_rate, kWarmHitRateFloor);
            ok = false;
        }
        if (!have_expected || digest != expected) {
            std::printf("FAIL: warm results differ from the writing "
                        "process\n");
            ok = false;
        }
        return ok ? 0 : 1;
    }

    // -- Default mode: in-process cold/warm/retire round trip ------------

    std::printf("[cold] %d devices, %zu circuits...\n", cfg.devices,
                circuits.size());
    DepthOracleCache::shared().clear();
    FleetDriver cold_driver(benchFleetOptions(cfg));
    cold_driver.initDevices(specs);
    const PassResult cold = runPass(cold_driver, circuits);
    const CacheIoResult saved = cold_driver.saveCache(snapshot_path);
    if (!saved.ok()) {
        std::printf("FAIL: save: %s (%s)\n", saved.message.c_str(),
                    cacheIoStatusName(saved.status));
        return 1;
    }

    std::printf("[warm] restart, load %s (%zu entries, %zu bytes)...\n",
                snapshot_path.c_str(), saved.entries, saved.bytes);
    DepthOracleCache::shared().clear();
    FleetDriver warm_driver(benchFleetOptions(cfg));
    warm_driver.initDevices(specs);
    const CacheIoResult loaded = warm_driver.loadCache(snapshot_path);
    if (!loaded.ok()) {
        std::printf("FAIL: load: %s (%s)\n", loaded.message.c_str(),
                    cacheIoStatusName(loaded.status));
        return 1;
    }
    const PassResult warm = runPass(warm_driver, circuits);
    const double warm_hit_rate =
        warm_driver.cacheManifest().warmHitRate();
    const bool results_match =
        compilePassesBitIdentical(cold.pass, warm.pass);
    const double speedup =
        warm.wall_ms > 0.0 ? cold.wall_ms / warm.wall_ms : 0.0;

    std::printf("[retire] basis-changing drift cycle + epoch sweep...\n");
    const int retire_devices = cfg.smoke ? 1 : cfg.devices;
    const RetireResult retire =
        runRetirement(warm_driver, cfg, retire_devices, circuits);

    const bool corrupt_rejected = corruptionRejected(snapshot_path);

    // The post-sweep snapshot is what a serving loop would persist;
    // overwriting here keeps the on-disk file from growing across
    // cycles (the property the retirement sweep exists to provide).
    const CacheIoResult swept = warm_driver.saveCache(snapshot_path);

    std::printf("\n%-26s %12s %12s\n", "", "cold", "warm");
    std::printf("%-26s %12.1f %12.1f\n", "compile wall (ms)",
                cold.wall_ms, warm.wall_ms);
    std::printf("%-26s %12llu %12llu\n", "cache misses",
                static_cast<unsigned long long>(cold.stats.misses),
                static_cast<unsigned long long>(warm.stats.misses));
    std::printf("speedup (cold/warm wall): %.2fx\n", speedup);
    std::printf("warm hit rate: %.4f; results %s\n", warm_hit_rate,
                results_match ? "bit-identical" : "MISMATCH");
    std::printf("retirement: %zu classes retired, snapshot %zu -> %zu "
                "bytes (%s)\n",
                retire.retired, retire.before.bytes,
                retire.after.bytes,
                retire.reduced() ? "reduced" : "NOT REDUCED");
    std::printf("corrupt snapshots: %s\n",
                corrupt_rejected ? "rejected" : "ACCEPTED (BUG)");

    writeJson("BENCH_persist.json", cfg, circuits.size(), saved, cold,
              warm, warm_hit_rate, speedup, results_match,
              corrupt_rejected, retire);

    bool ok = results_match && corrupt_rejected && swept.ok();
    if (warm_hit_rate < kWarmHitRateFloor) {
        std::printf("FAIL: warm hit rate %.4f below %.2f\n",
                    warm_hit_rate, kWarmHitRateFloor);
        ok = false;
    }
    if (!retire.reduced()) {
        std::printf("FAIL: epoch sweep did not shrink the snapshot\n");
        ok = false;
    }
    return ok ? 0 : 1;
}

/**
 * @file
 * Fleet-driver and shared-cache tests: claim/publish semantics,
 * concurrent insert/lookup stress (the sanitizer job's canary),
 * cross-device Weyl-class dedupe, and bit-determinism of fleet
 * results at 1 vs N shards.
 */

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "apps/bv.hpp"
#include "apps/qft.hpp"
#include "core/fleet.hpp"
#include "synth/engine.hpp"
#include "util/logging.hpp"
#include "weyl/gates.hpp"

#include "synth_reference.hpp"

namespace qbasis {
namespace {

/** Cheap-but-converging synthesis settings for test fleets. */
SynthOptions
cheapSynth()
{
    SynthOptions s;
    s.restarts = 2;
    s.adam_iters = 250;
    s.polish_iters = 100;
    s.max_layers = 4;
    s.target_infidelity = 1e-7;
    return s;
}

/** Minimal fleet device: a 1x2 grid (single edge). */
FleetDeviceSpec
tinySpec(uint64_t grid_seed)
{
    FleetDeviceSpec spec;
    spec.grid.rows = 1;
    spec.grid.cols = 2;
    spec.grid.seed = grid_seed;
    spec.xi = 0.04;
    return spec;
}

/** Drifted 2x3 grid (7 edges): every edge has its own qubit
 *  frequencies and drift stream, so a tuneup runs seven distinct
 *  edge simulations. */
FleetDeviceSpec
multiEdgeSpec(uint64_t grid_seed)
{
    FleetDeviceSpec spec;
    spec.grid.rows = 2;
    spec.grid.cols = 3;
    spec.grid.seed = grid_seed;
    spec.xi = 0.04;
    spec.apply_drift = true;
    return spec;
}

/** One shard over a `threads`-worker pool, with the bench-scale
 *  simulator settings of bench_scale and bench_recalib. */
FleetOptions
multiEdgeFleetOptions(int threads)
{
    FleetOptions opts;
    opts.shards = 1;
    opts.threads = threads;
    opts.synth = cheapSynth();
    opts.calib.sim.dt = 0.01;
    opts.calib.sim.probe_dt = 0.04;
    opts.calib.sim.probe_duration = 60.0;
    opts.calib.sim.drive_scan_points = 7;
    return opts;
}

uint64_t
bits(double x)
{
    uint64_t u = 0;
    std::memcpy(&u, &x, sizeof u);
    return u;
}

void
expectMat4BitIdentical(const Mat4 &a, const Mat4 &b)
{
    for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
            EXPECT_EQ(bits(a(i, j).real()), bits(b(i, j).real()));
            EXPECT_EQ(bits(a(i, j).imag()), bits(b(i, j).imag()));
        }
    }
}

FleetOptions
tinyFleetOptions(int shards)
{
    FleetOptions opts;
    opts.shards = shards;
    opts.threads = 2;
    opts.synth = cheapSynth();
    return opts;
}

TwoQubitDecomposition
dummyDecomposition(double tag)
{
    TwoQubitDecomposition dec;
    dec.locals.resize(1);
    dec.infidelity = tag;
    return dec;
}

// --- DecompositionCache unit behavior -----------------------------

TEST(SharedCache, ClaimPublishLookupCounters)
{
    DecompositionCache cache;
    DecompositionCache::ClassKey key{42u, 1, 2, 3};

    const TwoQubitDecomposition *out = nullptr;
    ASSERT_EQ(cache.acquire(key, 0, 3, &out),
              DecompositionCache::Claim::Owner);
    // The claim is one miss; the other two batched lookups are hits.
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.size(), 0u); // not published yet

    const TwoQubitDecomposition *stored =
        cache.publish(key, dummyDecomposition(0.5));
    ASSERT_NE(stored, nullptr);
    EXPECT_EQ(cache.size(), 1u);

    // Second device: plain hit, counted as cross-device in stats.
    ASSERT_EQ(cache.acquire(key, 1, 2, &out),
              DecompositionCache::Claim::Ready);
    EXPECT_EQ(out, stored);
    EXPECT_EQ(cache.hits(), 4u);
    EXPECT_EQ(cache.misses(), 1u);

    const auto st = cache.stats();
    EXPECT_EQ(st.classes, 1u);
    EXPECT_EQ(st.multi_device_classes, 1u);
    EXPECT_EQ(st.cross_device_hits, 2u);
    EXPECT_NEAR(st.crossDeviceHitRate(), 2.0 / 5.0, 1e-12);
}

TEST(SharedCache, AbandonReleasesClaim)
{
    DecompositionCache cache;
    DecompositionCache::ClassKey key{7u, 0, 0, 0};
    ASSERT_EQ(cache.acquire(key, 0, 1, nullptr),
              DecompositionCache::Claim::Owner);
    cache.abandon(key);
    // Abandoned entry is gone; the next client re-claims.
    ASSERT_EQ(cache.acquire(key, 1, 1, nullptr),
              DecompositionCache::Claim::Owner);
    cache.publish(key, dummyDecomposition(0.25));
    EXPECT_EQ(cache.size(), 1u);
}

TEST(SharedCache, PendingWaitersSeePublishedEntry)
{
    DecompositionCache cache;
    DecompositionCache::ClassKey key{9u, 4, 5, 6};
    ASSERT_EQ(cache.acquire(key, 0, 1, nullptr),
              DecompositionCache::Claim::Owner);
    ASSERT_EQ(cache.acquire(key, 1, 1, nullptr),
              DecompositionCache::Claim::Pending);

    std::thread publisher(
        [&] { cache.publish(key, dummyDecomposition(0.125)); });
    const TwoQubitDecomposition *dec = cache.wait(key, 1);
    publisher.join();
    ASSERT_NE(dec, nullptr);
    EXPECT_EQ(dec->infidelity, 0.125);
    EXPECT_EQ(cache.hits() + cache.misses(), 2u);
}

TEST(SharedCache, ConcurrentInsertLookupStress)
{
    // Many threads race acquire/publish/wait over a small key space;
    // under the CI sanitizer job this is the striped-lock canary.
    constexpr int kThreads = 8;
    constexpr int kKeys = 48;
    constexpr int kRounds = 40;

    DecompositionCache cache;
    std::atomic<uint64_t> observed{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cache, &observed, t] {
            for (int r = 0; r < kRounds; ++r) {
                for (int k = 0; k < kKeys; ++k) {
                    // Distinct walk order per thread.
                    const int key_id =
                        (k * (t + 1) + r) % kKeys;
                    DecompositionCache::ClassKey key{
                        static_cast<uint64_t>(key_id), key_id, 0, 0};
                    const TwoQubitDecomposition *dec = nullptr;
                    switch (cache.acquire(key, t, 1, &dec)) {
                    case DecompositionCache::Claim::Owner:
                        cache.publish(
                            key, dummyDecomposition(
                                     static_cast<double>(key_id)));
                        break;
                    case DecompositionCache::Claim::Pending:
                        dec = cache.wait(key, 0);
                        ASSERT_NE(dec, nullptr);
                        [[fallthrough]];
                    case DecompositionCache::Claim::Ready:
                        ASSERT_NE(dec, nullptr);
                        ASSERT_EQ(dec->infidelity,
                                  static_cast<double>(key_id));
                        observed.fetch_add(1);
                        break;
                    }
                }
            }
        });
    }
    for (auto &t : threads)
        t.join();

    // Each class synthesized exactly once; every lookup accounted.
    EXPECT_EQ(cache.misses(), static_cast<uint64_t>(kKeys));
    EXPECT_EQ(cache.size(), static_cast<size_t>(kKeys));
    const uint64_t lookups =
        static_cast<uint64_t>(kThreads) * kRounds * kKeys;
    // wait(key, 0) credits no hits, so the counter totals fall short
    // of `lookups` by exactly the number of Pending resolutions.
    EXPECT_LE(cache.hits() + cache.misses(), lookups);
    EXPECT_GE(cache.hits() + cache.misses() + observed.load(),
              lookups);
    const auto st = cache.stats();
    EXPECT_EQ(st.classes, static_cast<size_t>(kKeys));
    EXPECT_EQ(st.multi_device_classes, static_cast<size_t>(kKeys));
}

// --- Engine shared-cache batches -----------------------------------

TEST(SharedBatch, BitIdenticalToLocalCacheBatch)
{
    // A batch on behalf of any device must produce byte-for-byte
    // the decompositions of synthesizing each class directly, with
    // counters as if every request were looked up in order.
    const SynthOptions opts = cheapSynth();
    std::vector<SynthRequest> requests;
    const Mat4 basis = canonicalGate(0.28, 0.21, 0.05);
    for (int e = 0; e < 3; ++e) {
        SynthRequest swap_req;
        swap_req.edge_id = e;
        swap_req.target = swapGate();
        swap_req.basis = basis;
        requests.push_back(swap_req);
        SynthRequest cnot_req = swap_req;
        cnot_req.target = cnotGate();
        requests.push_back(cnot_req);
    }

    ReferenceClasses classes;
    const auto base = referenceSynthesis(requests, opts, &classes);

    SynthEngine engine(2);
    DecompositionCache shared;
    const auto fleet =
        engine.synthesizeBatch(requests, shared, opts, /*device=*/5);

    ASSERT_EQ(base.size(), fleet.size());
    for (size_t i = 0; i < base.size(); ++i)
        EXPECT_TRUE(decompositionsBitIdentical(base[i], fleet[i]))
            << "request " << i;

    EXPECT_EQ(shared.misses(), classes.size());
    EXPECT_EQ(shared.hits(), requests.size() - classes.size());
}

TEST(SharedBatch, ConcurrentTranspilesIntoOneCallerOwnedCache)
{
    // Two client threads compile into one caller-owned cache and race
    // on the classes their circuits share. Each result must match a
    // compile that ran alone into a fresh cache, bit for bit.
    const CouplingMap cm = CouplingMap::grid(2, 3);
    std::vector<EdgeBasis> bases(cm.edges().size());
    for (EdgeBasis &b : bases) {
        b.gate = canonicalGate(0.28, 0.21, 0.05);
        b.duration_ns = 15.0;
        b.label = "xy";
    }
    TranspileOptions opts;
    opts.synth = cheapSynth();
    const std::vector<Circuit> circuits{qftCircuit(5), qftCircuit(6)};

    SynthEngine engine(2);
    std::vector<TranspileResult> alone;
    for (const Circuit &c : circuits) {
        DecompositionCache fresh;
        alone.push_back(
            transpileCircuit(c, cm, bases, {engine, fresh}, opts));
    }

    DecompositionCache cache;
    std::vector<TranspileResult> raced(circuits.size());
    std::vector<std::thread> clients;
    for (size_t i = 0; i < circuits.size(); ++i) {
        clients.emplace_back([&, i] {
            raced[i] = transpileCircuit(
                circuits[i], cm, bases,
                {engine, cache, static_cast<int>(i)}, opts);
        });
    }
    for (std::thread &t : clients)
        t.join();

    for (size_t i = 0; i < circuits.size(); ++i) {
        const std::vector<Gate> &a = alone[i].physical.gates();
        const std::vector<Gate> &b = raced[i].physical.gates();
        ASSERT_EQ(a.size(), b.size()) << "circuit " << i;
        for (size_t g = 0; g < a.size(); ++g) {
            ASSERT_EQ(a[g].qubits, b[g].qubits);
            const double diff =
                a[g].isTwoQubit()
                    ? a[g].matrix4().maxAbsDiff(b[g].matrix4())
                    : a[g].matrix2().maxAbsDiff(b[g].matrix2());
            EXPECT_EQ(diff, 0.0) << "circuit " << i << " gate " << g;
        }
    }
    // Every class the two circuits share was synthesized once.
    EXPECT_EQ(cache.misses(), cache.size());
}

TEST(SharedBatch, SecondDeviceHitsFirstDevicesClasses)
{
    const SynthOptions opts = cheapSynth();
    const Mat4 basis = canonicalGate(0.26, 0.2, 0.04);
    std::vector<SynthRequest> requests;
    SynthRequest req;
    req.edge_id = 0;
    req.target = cnotGate();
    req.basis = basis;
    requests.push_back(req);

    SynthEngine engine(2);
    DecompositionCache shared;
    const auto a = engine.synthesizeBatch(requests, shared, opts, 0);
    const uint64_t misses_after_first = shared.misses();
    const auto b = engine.synthesizeBatch(requests, shared, opts, 1);

    EXPECT_EQ(shared.misses(), misses_after_first); // pure reuse
    const auto st = shared.stats();
    EXPECT_GT(st.cross_device_hits, 0u);
    EXPECT_EQ(st.multi_device_classes, st.classes);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(decompositionsBitIdentical(a[0], b[0]));
}

// --- Fleet driver --------------------------------------------------

class FleetTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        setLogLevel(LogLevel::Warn);
    }
};

TEST_F(FleetTest, CrossDeviceDedupeOnReplicatedDevices)
{
    // Two byte-identical devices: the second must reuse every class
    // the first synthesized.
    std::vector<FleetDeviceSpec> specs{tinySpec(11), tinySpec(11)};
    FleetDriver fleet(tinyFleetOptions(2));
    const FleetReport report = fleet.run(specs);

    ASSERT_EQ(report.devices.size(), 2u);
    // Replicated devices produce identical summaries.
    EXPECT_EQ(report.devices[0].summary.avg_swap_ns,
              report.devices[1].summary.avg_swap_ns);
    EXPECT_EQ(report.devices[0].summary.avg_cnot_fidelity,
              report.devices[1].summary.avg_cnot_fidelity);
    EXPECT_GT(report.cache.multi_device_classes, 0u);
    EXPECT_GT(report.cache.cross_device_hits, 0u);
    // Dedupe means fleet-wide misses equal one device's classes.
    EXPECT_EQ(report.cache.misses,
              static_cast<uint64_t>(report.cache.classes));
    EXPECT_GT(report.cache.crossDeviceHitRate(), 0.0);
}

TEST_F(FleetTest, BitDeterministicAcrossShardCounts)
{
    // A pair of replicated devices plus one drifted outlier,
    // compiled workload included; 1 shard vs 3 shards must agree
    // bit-for-bit.
    std::vector<FleetDeviceSpec> specs{tinySpec(11), tinySpec(11),
                                       tinySpec(11)};
    specs[2].apply_drift = true;
    specs[2].drift.freq_rel = 1e-3;
    specs[2].drift.coupling_rel = 1e-2;
    std::vector<FleetCircuit> circuits;
    circuits.push_back({"bv2", bvAllOnesCircuit(2)});

    FleetDriver serial(tinyFleetOptions(1));
    const FleetReport a = serial.run(specs, circuits);
    FleetDriver sharded(tinyFleetOptions(3));
    const FleetReport b = sharded.run(specs, circuits);

    EXPECT_EQ(a.shards, 1);
    EXPECT_EQ(b.shards, 3);
    EXPECT_TRUE(fleetReportsBitIdentical(a, b));
    // Cross-device stats are deterministic too (defined against the
    // lowest device id, not the racy claim winner).
    EXPECT_EQ(a.cache.cross_device_hits, b.cache.cross_device_hits);
    EXPECT_EQ(a.cache.misses, b.cache.misses);
    EXPECT_EQ(a.cache.hits, b.cache.hits);

    // The drifted device genuinely diverged from the replicas.
    EXPECT_NE(a.devices[2].set.bases[0].duration_ns,
              a.devices[0].set.bases[0].duration_ns);
    // And circuit compilation produced sane scores everywhere.
    for (const FleetDeviceReport &dev : a.devices) {
        ASSERT_EQ(dev.circuits.size(), 1u);
        EXPECT_GT(dev.circuits[0].result.fidelity, 0.0);
        EXPECT_LE(dev.circuits[0].result.fidelity, 1.0);
        EXPECT_GT(dev.circuits[0].result.two_qubit_gates, 0u);
    }
}

TEST_F(FleetTest, ParallelTuneupBitIdenticalAcrossPoolSizes)
{
    // The tuneup fans a device's edges over the fleet pool; a 1- and
    // a 4-worker pool must produce the same calibration bit for bit.
    FleetDriver serial(multiEdgeFleetOptions(1));
    const FleetReport a = serial.run({multiEdgeSpec(7)});
    FleetDriver parallel(multiEdgeFleetOptions(4));
    const FleetReport b = parallel.run({multiEdgeSpec(7)});
    ASSERT_EQ(a.failedDevices(), 0u) << a.statuses[0].error;
    ASSERT_EQ(b.failedDevices(), 0u) << b.statuses[0].error;

    const CalibratedBasisSet &sa = a.devices[0].set;
    const CalibratedBasisSet &sb = b.devices[0].set;
    ASSERT_GE(sa.edges.size(), 6u);
    ASSERT_EQ(sa.edges.size(), sb.edges.size());
    ASSERT_EQ(sa.bases.size(), sb.bases.size());
    for (size_t e = 0; e < sa.edges.size(); ++e) {
        SCOPED_TRACE("edge " + std::to_string(e));
        const EdgeCalibration &ea = sa.edges[e];
        const EdgeCalibration &eb = sb.edges[e];
        EXPECT_EQ(ea.edge_id, static_cast<int>(e));
        EXPECT_EQ(ea.edge_id, eb.edge_id);
        EXPECT_EQ(bits(ea.xi), bits(eb.xi));
        EXPECT_EQ(bits(ea.omega_d), bits(eb.omega_d));
        EXPECT_EQ(bits(ea.omega_c0), bits(eb.omega_c0));
        EXPECT_EQ(bits(ea.zz_residual), bits(eb.zz_residual));
        EXPECT_EQ(ea.calibrated_cycle, eb.calibrated_cycle);
        EXPECT_EQ(ea.gate.index, eb.gate.index);
        EXPECT_EQ(bits(ea.gate.duration_ns), bits(eb.gate.duration_ns));
        expectMat4BitIdentical(ea.gate.gate, eb.gate.gate);
        EXPECT_EQ(bits(ea.gate.coords.tx), bits(eb.gate.coords.tx));
        EXPECT_EQ(bits(ea.gate.coords.ty), bits(eb.gate.coords.ty));
        EXPECT_EQ(bits(ea.gate.coords.tz), bits(eb.gate.coords.tz));
        EXPECT_EQ(bits(ea.gate.leakage), bits(eb.gate.leakage));
        EXPECT_EQ(bits(ea.gate.continuous_crossing_ns),
                  bits(eb.gate.continuous_crossing_ns));

        expectMat4BitIdentical(sa.bases[e].gate, sb.bases[e].gate);
        EXPECT_EQ(bits(sa.bases[e].duration_ns),
                  bits(sb.bases[e].duration_ns));
        EXPECT_EQ(sa.bases[e].label, sb.bases[e].label);
    }
    // Drift gives the edges distinct calibrations, so a mix-up of
    // edge indices could not pass the comparison above.
    EXPECT_NE(bits(sa.edges[0].omega_d), bits(sa.edges[1].omega_d));
    EXPECT_EQ(fleetReportDigest(a), fleetReportDigest(b));
}

TEST_F(FleetTest, TuneupFailureNamesLowestEdge)
{
    // A 1 ns window with no extensions fails every edge; the error
    // thrown must be edge 0's at any pool size.
    for (int threads : {1, 4}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        FleetOptions opts = multiEdgeFleetOptions(threads);
        opts.calib.max_ns = 1.0;
        opts.calib.max_extensions = 0;
        FleetDriver driver(opts);
        try {
            driver.initDevices({multiEdgeSpec(7)});
            ADD_FAILURE() << "tuneup did not fail";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("edge 0:"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST_F(FleetTest, DriftedCalibrationIsDeterministic)
{
    FleetDeviceSpec spec = tinySpec(11);
    spec.apply_drift = true;
    spec.drift.freq_rel = 1e-3;

    FleetDriver fleet_a(tinyFleetOptions(1));
    const FleetReport a = fleet_a.run({spec});
    FleetDriver fleet_b(tinyFleetOptions(1));
    const FleetReport b = fleet_b.run({spec});
    EXPECT_TRUE(fleetReportsBitIdentical(a, b));
}

} // namespace
} // namespace qbasis

/**
 * @file
 * Tests for the transpiler: coupling maps, SABRE routing validity and
 * semantic equivalence, layout, 1Q merging, basis translation onto
 * per-edge (including nonstandard) basis gates, and the full
 * pipeline; LayoutReference.* holds the shared SABRE core to the
 * old Gate-copying router bit for bit.
 */

#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "apps/qft.hpp"
#include "apps/workloads.hpp"
#include "circuit/schedule.hpp"
#include "circuit/unitary.hpp"
#include "linalg/random.hpp"
#include "transpile/merge_1q.hpp"
#include "transpile/pipeline.hpp"
#include "util/rng.hpp"
#include "weyl/gates.hpp"

#include "layout_reference.hpp"
#include "synth_reference.hpp"

namespace qbasis {
namespace {

TEST(CouplingMap, GridStructure)
{
    const CouplingMap cm = CouplingMap::grid(3, 4);
    EXPECT_EQ(cm.numQubits(), 12);
    // Grid edges: 3*3 horizontal... rows*(cols-1) + (rows-1)*cols.
    EXPECT_EQ(cm.edges().size(), 3u * 3u + 2u * 4u);
    EXPECT_TRUE(cm.connected(0, 1));
    EXPECT_TRUE(cm.connected(0, 4));
    EXPECT_FALSE(cm.connected(0, 5));
    EXPECT_TRUE(cm.isConnected());
}

TEST(CouplingMap, Distances)
{
    const CouplingMap cm = CouplingMap::grid(3, 3);
    EXPECT_EQ(cm.distance(0, 0), 0);
    EXPECT_EQ(cm.distance(0, 8), 4); // corner to corner
    EXPECT_EQ(cm.distance(0, 4), 2);
    const CouplingMap line = CouplingMap::line(5);
    EXPECT_EQ(line.distance(0, 4), 4);
    const CouplingMap ring = CouplingMap::ring(6);
    EXPECT_EQ(ring.distance(0, 5), 1);
    EXPECT_EQ(ring.distance(0, 3), 3);
}

TEST(CouplingMap, EdgeIds)
{
    const CouplingMap cm = CouplingMap::line(4);
    EXPECT_GE(cm.edgeId(0, 1), 0);
    EXPECT_EQ(cm.edgeId(0, 1), cm.edgeId(1, 0));
    EXPECT_EQ(cm.edgeId(0, 2), -1);
    EXPECT_EQ(cm.edgeId(0, 99), -1);
}

TEST(CouplingMap, RejectsBadEdges)
{
    EXPECT_THROW(CouplingMap(3, {{0, 0}}), std::runtime_error);
    EXPECT_THROW(CouplingMap(3, {{0, 7}}), std::runtime_error);
}

TEST(Routing, AlreadyRoutedCircuitUnchanged)
{
    const CouplingMap cm = CouplingMap::line(3);
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.cx(1, 2);
    const RoutedCircuit r = sabreRoute(c, cm, trivialLayout(3));
    EXPECT_EQ(r.swaps_inserted, 0u);
    EXPECT_EQ(r.circuit.size(), c.size());
}

TEST(Routing, InsertsSwapsForDistantPairs)
{
    const CouplingMap cm = CouplingMap::line(4);
    Circuit c(4);
    c.cx(0, 3);
    const RoutedCircuit r = sabreRoute(c, cm, trivialLayout(4));
    EXPECT_GE(r.swaps_inserted, 2u);
    for (const Gate &g : r.circuit.gates()) {
        if (g.isTwoQubit()) {
            EXPECT_TRUE(cm.connected(g.qubits[0], g.qubits[1]));
        }
    }
}

TEST(Routing, PreservesSemantics)
{
    // Random logical circuits on a line device; the routed circuit
    // must equal the original up to the final qubit permutation.
    Rng rng(7);
    for (int trial = 0; trial < 5; ++trial) {
        const int n = 4;
        Circuit c(n);
        for (int i = 0; i < 12; ++i) {
            const int a = static_cast<int>(rng.uniformInt(n));
            int b = static_cast<int>(rng.uniformInt(n));
            while (b == a)
                b = static_cast<int>(rng.uniformInt(n));
            switch (rng.uniformInt(3)) {
              case 0: c.h(a); break;
              case 1: c.cx(a, b); break;
              default: c.cphase(a, b, rng.uniform(0, kPi)); break;
            }
        }
        const CouplingMap cm = CouplingMap::line(n);
        const RoutedCircuit r = sabreRoute(c, cm, trivialLayout(n));
        // logical qubit l sits on wire final_layout[l].
        EXPECT_TRUE(circuitsEquivalentUpToPermutation(
            c, r.circuit, r.final_layout))
            << "trial " << trial;
    }
}

TEST(Routing, GridSemantics)
{
    Rng rng(8);
    const CouplingMap cm = CouplingMap::grid(2, 3);
    Circuit c(6);
    for (int i = 0; i < 15; ++i) {
        const int a = static_cast<int>(rng.uniformInt(6));
        int b = static_cast<int>(rng.uniformInt(6));
        while (b == a)
            b = static_cast<int>(rng.uniformInt(6));
        c.cx(a, b);
    }
    const RoutedCircuit r = sabreRoute(c, cm, trivialLayout(6));
    EXPECT_TRUE(circuitsEquivalentUpToPermutation(c, r.circuit,
                                                  r.final_layout));
}

TEST(Layout, SabreLayoutIsValidPermutation)
{
    const CouplingMap cm = CouplingMap::grid(3, 3);
    const Circuit c = qftCircuit(7);
    const std::vector<int> layout = sabreLayout(c, cm, 3);
    EXPECT_EQ(layout.size(), 7u);
    std::vector<bool> used(9, false);
    for (int p : layout) {
        EXPECT_GE(p, 0);
        EXPECT_LT(p, 9);
        EXPECT_FALSE(used[p]);
        used[p] = true;
    }
}

TEST(Layout, SabreBeatsTrivialOnQft)
{
    // SABRE layout should not be (much) worse than trivial on a
    // routing-heavy benchmark.
    const CouplingMap cm = CouplingMap::grid(4, 4);
    const Circuit c = qftCircuit(12);
    const RoutedCircuit trivial =
        sabreRoute(c, cm, trivialLayout(12));
    const std::vector<int> layout = sabreLayout(c, cm, 3);
    const RoutedCircuit tuned = sabreRoute(c, cm, layout);
    EXPECT_LE(tuned.swaps_inserted, trivial.swaps_inserted + 5);
}

TEST(Merge1q, CollapsesRuns)
{
    Circuit c(2);
    c.h(0);
    c.rz(0, 0.3);
    c.h(0);
    c.cx(0, 1);
    c.h(1);
    const Circuit merged = mergeSingleQubitRuns(c);
    // One merged 1Q gate before the CX, the CX, one H after.
    EXPECT_EQ(merged.size(), 3u);
    EXPECT_TRUE(circuitsEquivalent(c, merged));
}

TEST(Merge1q, DropsIdentityProducts)
{
    Circuit c(1);
    c.h(0);
    c.h(0); // H H = I
    const Circuit merged = mergeSingleQubitRuns(c);
    EXPECT_EQ(merged.size(), 0u);
}

TEST(Merge1q, PreservesSemanticsOnRandom)
{
    Rng rng(9);
    Circuit c(3);
    for (int i = 0; i < 30; ++i) {
        const int q = static_cast<int>(rng.uniformInt(3));
        switch (rng.uniformInt(4)) {
          case 0: c.h(q); break;
          case 1: c.rz(q, rng.uniform(0, kTwoPi)); break;
          case 2: c.rx(q, rng.uniform(0, kTwoPi)); break;
          default: {
              int b = static_cast<int>(rng.uniformInt(3));
              while (b == q)
                  b = static_cast<int>(rng.uniformInt(3));
              c.cz(q, b);
              break;
          }
        }
    }
    const Circuit merged = mergeSingleQubitRuns(c);
    EXPECT_TRUE(circuitsEquivalent(c, merged));
    EXPECT_LE(merged.size(), c.size());
}

std::vector<EdgeBasis>
uniformBases(const CouplingMap &cm, const Mat4 &gate, double dur,
             const std::string &label)
{
    std::vector<EdgeBasis> bases(cm.edges().size());
    for (auto &b : bases) {
        b.gate = gate;
        b.duration_ns = dur;
        b.label = label;
    }
    return bases;
}

TEST(Translate, CxCircuitOntoSqrtIswap)
{
    const CouplingMap cm = CouplingMap::line(3);
    const auto bases =
        uniformBases(cm, sqrtIswapGate(), 83.0, "sqisw");
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.cx(1, 2);
    DecompositionCache cache;
    BasisTranslationStats stats;
    const Circuit t = translateToEdgeBases(
        c, cm, bases, {SynthEngine::shared(), cache}, SynthOptions{},
        &stats);
    EXPECT_EQ(stats.translated_2q, 2u);
    // CNOT from sqiSW takes 2 layers each.
    EXPECT_EQ(stats.total_layers, 4u);
    EXPECT_LT(stats.max_infidelity, 1e-8);
    EXPECT_TRUE(circuitsEquivalent(c, t));
    // All 2Q gates in the result are basis applications on edges.
    for (const Gate &g : t.gates()) {
        if (g.isTwoQubit()) {
            EXPECT_EQ(g.name(), "sqisw");
            EXPECT_TRUE(cm.connected(g.qubits[0], g.qubits[1]));
        }
    }
}

TEST(Translate, NonstandardBasisPreservesSemantics)
{
    // A nonstandard basis gate with a ZZ component, as selected from
    // strong-drive trajectories.
    const Mat4 basis = canonicalGate(0.45, 0.23, 0.07);
    const CouplingMap cm = CouplingMap::line(3);
    const auto bases = uniformBases(cm, basis, 12.0, "ns");
    Circuit c(3);
    c.h(2);
    c.cx(2, 1);
    c.swap(0, 1);
    c.cphase(1, 2, 0.77);
    DecompositionCache cache;
    const Circuit t = translateToEdgeBases(
        c, cm, bases, {SynthEngine::shared(), cache}, SynthOptions{});
    EXPECT_TRUE(circuitsEquivalent(c, t));
}

TEST(Translate, EngineMatchesSerialBitExactly)
{
    // Batched (thread-pooled) translation must emit exactly the same
    // circuit as emitting each gate from its class synthesized
    // directly, one class at a time, for a fixed seed.
    const Mat4 basis = canonicalGate(0.45, 0.23, 0.07);
    const CouplingMap cm = CouplingMap::line(3);
    const auto bases = uniformBases(cm, basis, 12.0, "ns");
    Circuit c(3);
    c.h(2);
    c.cx(2, 1);
    c.swap(0, 1);
    c.cphase(1, 2, 0.77);
    c.cphase(0, 1, 0.77);

    const std::vector<SynthRequest> requests =
        collectSynthRequests(c, cm, bases);
    ReferenceClasses classes;
    referenceSynthesis(requests, SynthOptions{}, &classes);
    const std::optional<Circuit> serial = translateFromPublishedClasses(
        c, cm, bases, SynthOptions{},
        [&classes](const DecompositionCache::ClassKey &key) {
            return &classes.at(key);
        });
    ASSERT_TRUE(serial.has_value());

    DecompositionCache cache_engine;
    SynthEngine engine(4);
    const Circuit batched = translateToEdgeBases(
        c, cm, bases, {engine, cache_engine}, SynthOptions{});

    ASSERT_EQ(serial->gates().size(), batched.gates().size());
    for (size_t i = 0; i < serial->gates().size(); ++i) {
        const Gate &a = serial->gates()[i];
        const Gate &b = batched.gates()[i];
        ASSERT_EQ(a.qubits, b.qubits);
        if (a.isTwoQubit())
            EXPECT_EQ(a.matrix4().maxAbsDiff(b.matrix4()), 0.0);
        else
            EXPECT_EQ(a.matrix2().maxAbsDiff(b.matrix2()), 0.0);
    }
    // Counters as if each request were looked up in order.
    EXPECT_EQ(cache_engine.misses(), classes.size());
    EXPECT_EQ(cache_engine.hits(), requests.size() - classes.size());
}

TEST(Translate, ReversedEdgeOrientationHandled)
{
    // Gates given as (hi, lo) must still translate correctly.
    const CouplingMap cm = CouplingMap::line(2);
    const auto bases =
        uniformBases(cm, sqrtIswapGate(), 83.0, "sqisw");
    Circuit c(2);
    c.cx(1, 0); // control is the higher-numbered qubit
    DecompositionCache cache;
    const Circuit t = translateToEdgeBases(
        c, cm, bases, {SynthEngine::shared(), cache}, SynthOptions{});
    EXPECT_TRUE(circuitsEquivalent(c, t));
}

TEST(Translate, CacheSharedAcrossIdenticalGates)
{
    const CouplingMap cm = CouplingMap::line(2);
    const auto bases =
        uniformBases(cm, sqrtIswapGate(), 83.0, "sqisw");
    Circuit c(2);
    c.cx(0, 1);
    c.cx(0, 1);
    c.cx(0, 1);
    DecompositionCache cache;
    translateToEdgeBases(c, cm, bases, {SynthEngine::shared(), cache},
                         SynthOptions{});
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 2u);
}

TEST(Translate, RejectsUnroutedCircuits)
{
    const CouplingMap cm = CouplingMap::line(3);
    const auto bases =
        uniformBases(cm, sqrtIswapGate(), 83.0, "sqisw");
    Circuit c(3);
    c.cx(0, 2); // not an edge
    DecompositionCache cache;
    EXPECT_THROW(translateToEdgeBases(c, cm, bases,
                                      {SynthEngine::shared(), cache},
                                      SynthOptions{}),
                 std::runtime_error);
}

TEST(Translate, EdgeDurationModel)
{
    const CouplingMap cm = CouplingMap::line(3);
    auto bases = uniformBases(cm, sqrtIswapGate(), 83.0, "sqisw");
    bases[1].duration_ns = 10.0;
    const DurationModel model = edgeDurationModel(cm, bases, 20.0);
    EXPECT_DOUBLE_EQ(model(makeGate1(GateKind::H, 0)), 20.0);
    EXPECT_DOUBLE_EQ(model(makeGate2(GateKind::CX, 0, 1)), 83.0);
    EXPECT_DOUBLE_EQ(model(makeGate2(GateKind::CX, 2, 1)), 10.0);
}

TEST(Pipeline, EndToEndSmallDevice)
{
    const CouplingMap cm = CouplingMap::grid(2, 3);
    const auto bases =
        uniformBases(cm, sqrtIswapGate(), 83.0, "sqisw");
    const Circuit logical = qftCircuit(5);
    DecompositionCache cache;
    const TranspileResult result =
        transpileCircuit(logical, cm, bases,
                         {SynthEngine::shared(), cache});

    // Structure: all 2Q gates are coupled basis gates.
    for (const Gate &g : result.physical.gates()) {
        if (g.isTwoQubit()) {
            EXPECT_EQ(g.name(), "sqisw");
            EXPECT_TRUE(cm.connected(g.qubits[0], g.qubits[1]));
        }
    }
    EXPECT_LT(result.translation.max_infidelity, 1e-7);

    // Semantics: embed the logical circuit by the initial layout and
    // compare against the physical circuit up to the final layout.
    Circuit embedded(cm.numQubits());
    for (const Gate &g : logical.gates()) {
        Gate gg = g;
        for (int &q : gg.qubits)
            q = result.initial_layout[q];
        embedded.append(std::move(gg));
    }
    std::vector<int> perm(cm.numQubits());
    for (int p = 0; p < cm.numQubits(); ++p)
        perm[p] = p; // identity for unused wires
    for (size_t l = 0; l < result.initial_layout.size(); ++l)
        perm[result.initial_layout[l]] = result.final_layout[l];
    EXPECT_TRUE(circuitsEquivalentUpToPermutation(
        embedded, result.physical, perm));
}

TEST(Pipeline, ScheduleOfTranspiledCircuit)
{
    const CouplingMap cm = CouplingMap::line(4);
    const auto bases =
        uniformBases(cm, sqrtIswapGate(), 83.0, "sqisw");
    const Circuit logical = qftCircuit(4);
    DecompositionCache cache;
    const TranspileResult result =
        transpileCircuit(logical, cm, bases,
                         {SynthEngine::shared(), cache});
    const Schedule sched = scheduleAsap(
        result.physical, edgeDurationModel(cm, bases, 20.0));
    EXPECT_GT(sched.makespan, 0.0);
    // Makespan at least (#layers on critical path) * basis duration.
    EXPECT_GT(sched.makespan, 83.0);
}


TEST(CouplingMap, HeavyHexStructure)
{
    const CouplingMap hh = CouplingMap::heavyHex(2, 2);
    EXPECT_TRUE(hh.isConnected());
    // Degree <= 3 everywhere (the heavy-hex defining property).
    for (int q = 0; q < hh.numQubits(); ++q)
        EXPECT_LE(hh.neighbors(q).size(), 3u) << q;
    // Sparser than a grid with the same qubit count: fewer than
    // 2 * n edges.
    EXPECT_LT(hh.edges().size(),
              2u * static_cast<size_t>(hh.numQubits()));
}

TEST(CouplingMap, HeavyHexRoutable)
{
    // Routing works on the heavy-hex lattice too.
    const CouplingMap hh = CouplingMap::heavyHex(1, 2);
    Circuit c(4);
    c.cx(0, 3);
    c.cx(1, 2);
    const RoutedCircuit r = sabreRoute(c, hh, trivialLayout(4));
    for (const Gate &g : r.circuit.gates()) {
        if (g.isTwoQubit()) {
            EXPECT_TRUE(hh.connected(g.qubits[0], g.qubits[1]));
        }
    }
    // Equivalence on the full device register (trivial embedding).
    Circuit embedded(hh.numQubits());
    for (const Gate &g : c.gates())
        embedded.append(g);
    std::vector<int> perm(hh.numQubits());
    for (int p = 0; p < hh.numQubits(); ++p)
        perm[p] = p;
    for (size_t l = 0; l < r.final_layout.size(); ++l)
        perm[r.initial_layout[l]] = r.final_layout[l];
    EXPECT_TRUE(circuitsEquivalentUpToPermutation(embedded, r.circuit,
                                                  perm));
}

TEST(CouplingMap, HeavyHexEdgeColoringBound)
{
    // Section VI: degree-3 connectivity needs at most 4 colors for
    // parallel calibration (Vizing); verify a greedy coloring fits.
    const CouplingMap hh = CouplingMap::heavyHex(2, 3);
    std::vector<int> color(hh.edges().size(), -1);
    int max_color = 0;
    for (size_t e = 0; e < hh.edges().size(); ++e) {
        const auto [a, b] = hh.edges()[e];
        std::vector<bool> used(16, false);
        for (size_t f = 0; f < e; ++f) {
            const auto [x, y] = hh.edges()[f];
            if (x == a || x == b || y == a || y == b)
                used[color[f]] = true;
        }
        int c = 0;
        while (used[c])
            ++c;
        color[e] = c;
        max_color = std::max(max_color, c);
    }
    EXPECT_LE(max_color + 1, 4);
}


// --- LayoutReference: the shared SABRE core against the old router --

/** The four devices the bit-identity cases run on. */
std::vector<std::pair<std::string, CouplingMap>>
referenceDevices()
{
    return {{"hh(3,6)", CouplingMap::heavyHex(3, 6)},
            {"hh(2,4)", CouplingMap::heavyHex(2, 4)},
            {"grid(5,5)", CouplingMap::grid(5, 5)},
            {"line(8)", CouplingMap::line(8)}};
}

/** rcs, adder_chain, ising and heisenberg at widths 4..16, plus qft. */
std::vector<std::pair<std::string, Circuit>>
referenceZoo()
{
    std::vector<std::pair<std::string, Circuit>> zoo;
    for (const char *name : {"rcs", "adder_chain", "ising", "heisenberg"})
        for (int width = 4; width <= 16; width += 2) {
            WorkloadParams p;
            p.qubits = width;
            p.depth = 2;
            p.seed = 100 + static_cast<uint64_t>(width);
            zoo.emplace_back(name + std::to_string(width),
                             makeWorkload(name, p));
        }
    for (int width : {4, 8, 12, 16})
        zoo.emplace_back("qft" + std::to_string(width),
                         qftCircuit(width));
    return zoo;
}

/** Default options, other seeds, and a short and an empty lookahead. */
std::vector<SabreOptions>
referenceOptions()
{
    std::vector<SabreOptions> all(4);
    all[1].seed = 1;
    all[2].seed = 977;
    all[2].extended_set_size = 5;
    all[2].decay_reset_interval = 2;
    all[3].seed = 31;
    all[3].extended_set_size = 0;
    return all;
}

bool
bitsEqual(const Complex &a, const Complex &b)
{
    return std::memcmp(&a, &b, sizeof(Complex)) == 0;
}

void
expectSameRouting(const RoutedCircuit &got, const RoutedCircuit &want,
                  const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(got.initial_layout, want.initial_layout);
    EXPECT_EQ(got.final_layout, want.final_layout);
    EXPECT_EQ(got.swaps_inserted, want.swaps_inserted);
    EXPECT_EQ(got.sources, want.sources);
    ASSERT_EQ(got.circuit.numQubits(), want.circuit.numQubits());
    ASSERT_EQ(got.circuit.size(), want.circuit.size());
    for (size_t i = 0; i < got.circuit.size(); ++i) {
        const Gate &a = got.circuit.gates()[i];
        const Gate &b = want.circuit.gates()[i];
        ASSERT_EQ(a.kind, b.kind) << "gate " << i;
        ASSERT_EQ(a.qubits, b.qubits) << "gate " << i;
        ASSERT_EQ(a.params.size(), b.params.size()) << "gate " << i;
        for (size_t k = 0; k < a.params.size(); ++k)
            EXPECT_EQ(std::memcmp(&a.params[k], &b.params[k],
                                  sizeof(double)),
                      0)
                << "gate " << i;
        EXPECT_EQ(a.label, b.label) << "gate " << i;
        for (int r = 0; r < 4; ++r)
            for (int c = 0; c < 4; ++c)
                EXPECT_TRUE(bitsEqual(a.custom4(r, c), b.custom4(r, c)))
                    << "gate " << i;
        for (int r = 0; r < 2; ++r)
            for (int c = 0; c < 2; ++c)
                EXPECT_TRUE(bitsEqual(a.custom2(r, c), b.custom2(r, c)))
                    << "gate " << i;
    }
}

/** Layout, then routing from that layout, against the reference. */
void
expectSameLayoutAndRoute(const Circuit &c, const CouplingMap &cm,
                         const SabreOptions &opts,
                         const std::string &what)
{
    const std::vector<int> layout = sabreLayout(c, cm, 3, opts);
    ASSERT_EQ(layout,
              layout_reference::referenceSabreLayout(c, cm, 3, opts))
        << what;
    expectSameRouting(
        sabreRoute(c, cm, layout, opts),
        layout_reference::referenceSabreRoute(c, cm, layout, opts),
        what);
}

TEST(LayoutReference, ZooMatchesOnEveryDeviceAndSeed)
{
    const auto devices = referenceDevices();
    const auto zoo = referenceZoo();
    const auto options = referenceOptions();
    size_t cases = 0;
    for (const auto &[dev, cm] : devices)
        for (const auto &[name, c] : zoo) {
            if (c.numQubits() > cm.numQubits())
                continue;
            for (size_t o = 0; o < options.size(); ++o) {
                expectSameLayoutAndRoute(
                    c, cm, options[o],
                    name + " on " + dev + ", options " + std::to_string(o));
                ++cases;
            }
        }
    EXPECT_GE(cases, 400u);
}

TEST(LayoutReference, ZeroSwapCircuitTakesTheEarlyExit)
{
    // A nearest-neighbor chain routes from the trivial layout with no
    // SWAP, so the first forward pass ends the layout search.
    const CouplingMap cm = CouplingMap::line(8);
    Circuit c(8);
    for (int q = 0; q + 1 < 8; ++q) {
        c.h(q);
        c.cx(q, q + 1);
    }
    EXPECT_EQ(sabreRoute(c, cm, trivialLayout(8)).swaps_inserted, 0u);
    EXPECT_EQ(sabreLayout(c, cm), trivialLayout(8));
    for (const SabreOptions &opts : referenceOptions())
        expectSameLayoutAndRoute(c, cm, opts, "nearest-neighbor chain");
}

TEST(LayoutReference, OneQubitOnlyAndEmptyCircuits)
{
    const CouplingMap cm = CouplingMap::grid(5, 5);
    Circuit one_qubit(6);
    for (int q = 0; q < 6; ++q) {
        one_qubit.h(q);
        one_qubit.rz(q, 0.1 * q);
    }
    expectSameLayoutAndRoute(one_qubit, cm, {}, "1Q-only circuit");
    expectSameLayoutAndRoute(Circuit(5), cm, {}, "empty circuit");
    const RoutedCircuit empty = sabreRoute(Circuit(5), cm,
                                           trivialLayout(5));
    EXPECT_EQ(empty.circuit.size(), 0u);
    EXPECT_EQ(empty.final_layout, trivialLayout(5));
}

} // namespace
} // namespace qbasis

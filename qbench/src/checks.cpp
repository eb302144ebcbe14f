#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>

#include "calib/drift.hpp"
#include "circuit/schedule.hpp"
#include "circuit/statevector.hpp"
#include "core/selector.hpp"
#include "noise/coherence.hpp"
#include "sim/propagator.hpp"
#include "transpile/basis_translate.hpp"
#include "transpile/layout.hpp"
#include "transpile/merge_1q.hpp"
#include "transpile/pipeline.hpp"
#include "transpile/plan.hpp"
#include "transpile/routing.hpp"
#include "util/rng.hpp"

namespace qbench {

using namespace qbasis;

namespace {

/** Widest register the statevector check simulates. */
constexpr int kMaxSimQubits = 20;

void
fail(CheckResult *out, const std::string &what)
{
    out->failures.push_back(what);
}

std::string
requestLabel(const CompileRequest &req)
{
    return req.name + " (request " + std::to_string(req.request_id)
           + ")";
}

/** Schedule and score a physical circuit as runCompile does. */
CompiledCircuitResult
score(const CouplingMap &cm, const CalibratedBasisSet &set,
      const CompileRequest &req, const Circuit &physical,
      size_t swaps, Tracer *tracer)
{
    Schedule sched;
    {
        Scope s(tracer, "circuit.schedule", req.request_id);
        sched = scheduleAsap(
            physical,
            edgeDurationModel(cm, set.bases, req.options.t_1q_ns));
    }
    CompiledCircuitResult r;
    {
        Scope s(tracer, "noise.score", req.request_id);
        r.fidelity =
            circuitCoherenceFidelity(sched, req.options.t_coherence_ns);
    }
    r.makespan_ns = sched.makespan;
    r.swaps_inserted = swaps;
    r.two_qubit_gates = physical.countTwoQubit();
    r.depth = physical.depth();
    return r;
}

bool
sameResult(const CompiledCircuitResult &a, const CompiledCircuitResult &b)
{
    return a.fidelity == b.fidelity && a.makespan_ns == b.makespan_ns
           && a.swaps_inserted == b.swaps_inserted
           && a.two_qubit_gates == b.two_qubit_gates
           && a.depth == b.depth;
}

Gate
remapped(Gate g, const std::vector<int> &map)
{
    for (int &q : g.qubits)
        q = map[static_cast<size_t>(q)];
    return g;
}

/**
 * Simulate the logical circuit and the compiled one from the same
 * seeded random product state and return the state infidelity, or
 * -1 when the compiled circuit touches more than kMaxSimQubits qubits.
 * Logical qubit l starts on physical initial_layout[l] and must end
 * on final_layout[l]; untouched physical qubits stay in |0>.
 */
double
stateInfidelity(const Circuit &logical, const TranspileResult &t,
                uint64_t seed)
{
    const int n = logical.numQubits();
    std::vector<int> active;
    for (int l = 0; l < n; ++l) {
        active.push_back(t.initial_layout[static_cast<size_t>(l)]);
        active.push_back(t.final_layout[static_cast<size_t>(l)]);
    }
    for (const Gate &g : t.physical.gates())
        active.insert(active.end(), g.qubits.begin(), g.qubits.end());
    std::sort(active.begin(), active.end());
    active.erase(std::unique(active.begin(), active.end()),
                 active.end());
    const int m = static_cast<int>(active.size());
    if (m > kMaxSimQubits)
        return -1.0;
    std::vector<int> compact(
        static_cast<size_t>(t.physical.numQubits()), -1);
    for (int i = 0; i < m; ++i)
        compact[static_cast<size_t>(active[static_cast<size_t>(i)])] = i;

    Rng rng(seed);
    std::vector<Gate> prep;
    for (int l = 0; l < n; ++l) {
        prep.push_back(makeGate1(GateKind::U3, l,
                                 {rng.uniform(0.0, M_PI),
                                  rng.uniform(0.0, 2.0 * M_PI),
                                  rng.uniform(0.0, 2.0 * M_PI)}));
    }
    std::vector<int> at_initial(static_cast<size_t>(n));
    std::vector<int> at_final(static_cast<size_t>(n));
    for (int l = 0; l < n; ++l) {
        at_initial[static_cast<size_t>(l)] = compact[static_cast<size_t>(
            t.initial_layout[static_cast<size_t>(l)])];
        at_final[static_cast<size_t>(l)] = compact[static_cast<size_t>(
            t.final_layout[static_cast<size_t>(l)])];
    }

    Statevector expected(m);
    for (const Gate &g : prep)
        expected.applyGate(remapped(g, at_final));
    for (const Gate &g : logical.gates())
        expected.applyGate(remapped(g, at_final));

    Statevector actual(m);
    for (const Gate &g : prep)
        actual.applyGate(remapped(g, at_initial));
    for (const Gate &g : t.physical.gates())
        actual.applyGate(remapped(g, compact));
    return 1.0 - expected.overlap(actual);
}

const CompileResponse *
findResponse(const std::vector<Served> &served, uint64_t id)
{
    const auto it = std::lower_bound(
        served.begin(), served.end(), id,
        [](const Served &s, uint64_t v) { return s.resp.request_id < v; });
    return it != served.end() && it->resp.request_id == id ? &it->resp
                                                           : nullptr;
}

} // namespace

void
checkCompiles(FleetDriver &driver, const std::vector<Served> &expected,
              const std::vector<CompileRequest> &requests,
              Tracer *tracer, CheckResult *out)
{
    for (const CompileRequest &req : requests) {
        const CompileResponse *want =
            findResponse(expected, req.request_id);
        if (want == nullptr || want->status != CompileStatus::Ok) {
            fail(out, "no served response to check for "
                          + requestLabel(req));
            continue;
        }
        const FleetDeviceState &state = driver.device(req.device_id);
        const CouplingMap &cm = state.device.coupling();
        const TranspileOptions &to = req.options.transpile;
        SynthEngine engine(driver.pool());
        const SynthClient client{engine, driver.cache(), req.device_id};

        std::optional<Scope> root;
        root.emplace(tracer, "compile", req.request_id);
        const CalibrationSnapshot snap = [&] {
            Scope s(tracer, "core.snapshot", req.request_id);
            return driver.calibrationSnapshot(req.device_id);
        }();
        const CalibratedBasisSet &set = *snap.set;
        std::vector<int> layout;
        {
            Scope s(tracer, "transpile.layout", req.request_id);
            layout = sabreLayout(req.circuit, cm, to.layout_iterations,
                                 to.sabre);
        }
        RoutedCircuit routed;
        {
            Scope s(tracer, "transpile.route", req.request_id);
            routed = sabreRoute(req.circuit, cm, layout, to.sabre);
        }
        Circuit merged(1);
        {
            Scope s(tracer, "transpile.merge", req.request_id);
            merged = mergeSingleQubitRuns(routed.circuit);
        }
        {
            Scope s(tracer, "synth.batch", req.request_id);
            const uint64_t misses0 = driver.cache().misses();
            const std::vector<SynthRequest> batch =
                collectSynthRequests(merged, cm, set.bases);
            client.synthesizeBatch(batch, to.synth);
            out->class_lookups += batch.size();
            out->class_misses += driver.cache().misses() - misses0;
        }
        Circuit translated(1);
        BasisTranslationStats stats;
        {
            Scope s(tracer, "transpile.translate", req.request_id);
            translated = translateToEdgeBases(merged, cm, set.bases,
                                              client, to.synth, &stats);
        }
        Circuit physical(1);
        {
            Scope s(tracer, "transpile.merge", req.request_id);
            physical = mergeSingleQubitRuns(translated);
        }
        const CompiledCircuitResult got = score(
            cm, set, req, physical, routed.swaps_inserted, tracer);
        root.reset(); // the checks below are not part of the compile
        ++out->compiles_checked;
        if (!sameResult(got, want->result)
            || snap.version != want->basis_epoch) {
            fail(out, "recomposed compile differs from the served "
                      "response for "
                          + requestLabel(req));
        }

        // The semantic check: the public pipeline's output must act
        // like the logical circuit on a random product state.
        if (req.circuit.numQubits() > 10)
            continue;
        const TranspileResult t = transpileCircuit(
            req.circuit, cm, set.bases, SynthRoute(client), to);
        const CompiledCircuitResult again =
            score(cm, set, req, t.physical, t.swaps_inserted, nullptr);
        if (!sameResult(again, want->result)) {
            fail(out, "transpileCircuit differs from the served "
                      "response for "
                          + requestLabel(req));
        }
        const double infidelity = stateInfidelity(
            req.circuit, t, Rng::deriveSeed(req.request_id, 0x5717ull));
        if (infidelity < 0.0)
            continue;
        const double allowance =
            t.translation.max_infidelity
                * static_cast<double>(t.translation.translated_2q)
            + kInfidelitySlack;
        ++out->sims_checked;
        out->worst_infidelity = std::max(out->worst_infidelity, infidelity);
        out->worst_allowance = std::max(out->worst_allowance, allowance);
        if (!(infidelity <= allowance)) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "state infidelity %.3g exceeds %.3g for ",
                          infidelity, allowance);
            fail(out, buf + requestLabel(req));
        }
    }
}

void
checkReplays(CompileService &svc,
             const std::vector<CompileRequest> &requests, Tracer *tracer,
             std::vector<Served> *served, CheckResult *out)
{
    FleetDriver &driver = svc.driver();
    SharedDecompositionCache &cache = driver.cache();
    const PlanClassLookup peek =
        [&cache](const DecompositionCache::ClassKey &key) {
            return cache.peekPublished(key);
        };
    for (const CompileRequest &req : requests) {
        const FleetDeviceState &state = driver.device(req.device_id);
        const CouplingMap &cm = state.device.coupling();
        const CalibrationSnapshot snap =
            driver.calibrationSnapshot(req.device_id);
        PlanKey key;
        key.structural_hash = structuralCircuitHash(req.circuit);
        key.options_hash = transpilePlanOptionsHash(req.options.transpile);
        key.epochs = {{req.device_id, snap.version}};
        const std::shared_ptr<const TranspilePlan> plan =
            driver.planCache().lookup(key);
        if (!plan) {
            fail(out, "no stored plan to replay for " + requestLabel(req));
            continue;
        }
        CompiledCircuitResult got;
        {
            Scope root(tracer, "replay", req.request_id);
            TranspileResult t;
            bool ok = false;
            {
                Scope s(tracer, "transpile.replay", req.request_id);
                ok = replayTranspilePlan(*plan, req.circuit, cm,
                                         snap.set->bases,
                                         req.options.transpile.synth, peek,
                                         &t);
            }
            if (!ok) {
                fail(out, "plan replay refused " + requestLabel(req));
                continue;
            }
            got = score(cm, *snap.set, req, t.physical, t.swaps_inserted,
                        tracer);
        }
        Served s;
        s.resp = svc.compileSync(req);
        ++out->replays;
        if (s.resp.plan_path != PlanServePath::Replay
            || !sameResult(got, s.resp.result)) {
            fail(out, "recomposed replay differs from the served "
                      "response for "
                          + requestLabel(req));
        }
        served->push_back(std::move(s));
    }
}

void
checkTuneup(const FleetDriver &driver, int device_id,
            const std::vector<int> &edges, Tracer *tracer,
            CheckResult *out)
{
    const FleetDeviceState &state = driver.device(device_id);
    const DeviceCalibrationOptions &opts = driver.options().calib;
    const CalibrationSnapshot snap = driver.calibrationSnapshot(device_id);
    const uint64_t drift_seed = Rng::deriveSeed(
        driver.options().seed, static_cast<uint64_t>(device_id));
    for (const int e : edges) {
        Scope root(tracer, "tuneup", static_cast<uint64_t>(e));
        PairDeviceParams params = state.device.edgeParams(e);
        if (state.spec.apply_drift) {
            Rng rng(Rng::deriveSeed(drift_seed,
                                    static_cast<uint64_t>(e)));
            params = driftParams(params, state.spec.drift, rng);
        }
        std::optional<PairSimulator> sim;
        {
            Scope s(tracer, "sim.bias", static_cast<uint64_t>(e));
            sim.emplace(params, state.device.couplerOmegaMax(), opts.sim);
        }
        double omega_d = 0.0;
        {
            Scope s(tracer, "sim.drive_freq", static_cast<uint64_t>(e));
            omega_d = sim->calibrateDriveFrequency(state.spec.xi);
        }
        double window = opts.max_ns;
        std::optional<SelectedBasisGate> sel;
        for (int ext = 0; ext <= opts.max_extensions && !sel; ++ext) {
            if (ext > 0)
                ++out->window_extensions;
            Trajectory traj;
            {
                Scope s(tracer, "sim.trajectory",
                        static_cast<uint64_t>(e));
                traj = sim->simulateTrajectory(state.spec.xi, omega_d,
                                               window);
            }
            {
                Scope s(tracer, "core.select", static_cast<uint64_t>(e));
                sel = selectBasisGate(traj, state.spec.criterion,
                                      opts.selector);
            }
            window *= 2.0;
        }
        ++out->edges_checked;
        const EdgeBasis &want = snap.set->bases[static_cast<size_t>(e)];
        if (!sel || sel->duration_ns != want.duration_ns
            || std::memcmp(sel->gate.data(), want.gate.data(),
                           16 * sizeof(Complex))
                   != 0) {
            fail(out, "recomposed tuneup of edge " + std::to_string(e)
                          + " selected a different basis than "
                            "initDevices");
        }
    }
}

} // namespace qbench

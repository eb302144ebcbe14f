#include "bench.hpp"

#include <array>
#include <cmath>
#include <stdexcept>

#include "apps/bv.hpp"
#include "apps/qaoa.hpp"
#include "apps/qft.hpp"
#include "apps/workloads.hpp"
#include "util/rng.hpp"

namespace qbench {

using namespace qbasis;

namespace {

/** Fleet settings shared by every workload: the bench-scale synthesis
 *  and simulator options of bench_scale (a tuneup of ~75 ms per edge),
 *  a 4-worker pool, and an admission queue deep enough that the
 *  open-loop ladder shows overload as latency, not as rejections. */
CompileServiceOptions
serviceOptions()
{
    CompileServiceOptions s;
    SynthOptions synth;
    synth.restarts = 3;
    synth.adam_iters = 350;
    synth.polish_iters = 120;
    synth.max_layers = 4;
    synth.target_infidelity = 1e-8;
    s.fleet.threads = 4;
    s.fleet.seed = 2022;
    s.fleet.synth = synth;
    s.fleet.transpile.synth = synth;
    s.fleet.calib.sim.dt = 0.01;
    s.fleet.calib.sim.probe_dt = 0.04;
    s.fleet.calib.sim.probe_duration = 60.0;
    s.fleet.calib.sim.drive_scan_points = 7;
    s.queue_capacity = 1u << 16;
    return s;
}

/** One fully heterogeneous heavy-hex device: every edge draws its own
 *  drifted unit cell. The lattice is part of the workload, not of its
 *  seed, so set-up work is the same on every seed. */
FleetDeviceSpec
heavyHex(int rows, int cols, uint64_t device_seed)
{
    FleetDeviceSpec spec;
    spec.grid.topology = DeviceTopology::HeavyHex;
    spec.grid.rows = rows;
    spec.grid.cols = cols;
    spec.grid.seed = device_seed;
    spec.xi = 0.04;
    spec.apply_drift = true;
    return spec;
}

/** Request options matching the fleet's (one shared-cache context). */
CompileRequest
fleetRequest(const CompileServiceOptions &s, uint64_t id, int device,
             std::string name, Circuit circuit)
{
    CompileRequest req(id, device, std::move(name), std::move(circuit));
    req.options.transpile = s.fleet.transpile;
    req.options.t_1q_ns = s.fleet.t_1q_ns;
    req.options.t_coherence_ns = s.fleet.t_coherence_ns;
    return req;
}

// -- Cold zoo stream -------------------------------------------------

const std::vector<std::string> kZooFamilies = {"ising", "heisenberg",
                                               "rcs", "adder_chain"};
/** The families whose entanglers are all CNOT-class (CZ, CX). */
const std::vector<std::string> kCnotFamilies = {"rcs", "adder_chain"};
constexpr std::array<int, 5> kZooWidths = {8, 10, 12, 14, 16};

/**
 * One zoo circuit:
 *  - ising and heisenberg: RZZ angle `theta`, so new Weyl classes for
 *    every new angle;
 *  - rcs: gate-sampling seed `seed`, so a new shape for every seed;
 *  - adder_chain: X gates load the addend bits `addends`, so a new
 *    shape for every distinct value.
 */
Circuit
zooCircuit(const std::string &family, int width, double theta,
           uint64_t seed, uint64_t addends, std::string *name)
{
    WorkloadParams p;
    p.qubits = width;
    p.depth = family == "rcs" ? 3 : 1;
    p.theta = theta;
    p.seed = seed;
    *name = family + std::to_string(width);
    if (family != "adder_chain")
        return qbasis::makeWorkload(family, p);

    Circuit loaded(width);
    for (int q = 0; q < width; ++q) {
        if ((addends >> q) & 1u)
            loaded.x(q);
    }
    loaded.extend(qbasis::makeWorkload(family, p));
    return loaded;
}

/**
 * RZZ angle of stream block `block` for one (family, width) slot: a
 * golden-ratio sequence over [0.2, 1.4] from a seeded start. Every
 * angle is new, and any run's angles cover the range evenly whatever
 * the seed, so synthesis work (which depends on the angle) varies
 * little from seed to seed.
 */
double
streamAngle(uint64_t seed, size_t slot, uint64_t block)
{
    constexpr double kGolden = 0.61803398874989485;
    Rng start(Rng::deriveSeed(seed ^ 0xa4c1e5ull, slot));
    const double u = start.uniform() + kGolden * static_cast<double>(block);
    return 0.2 + 1.2 * (u - std::floor(u));
}

/**
 * Addend bits of the `width`-qubit adder_chain request of stream block
 * `block`: an affine bijection of the block number modulo 2^width (odd
 * multiplier), so the first 2^width blocks never load the same addends
 * twice. The exact-checked prefix of a run lies well inside them, so
 * it holds no exact repeat whose plan tier would depend on whether
 * its first copy had finished (a memo entry exists only once a compile
 * completes).
 */
uint64_t
addendBits(uint64_t seed, int width, uint64_t block)
{
    const uint64_t w = static_cast<uint64_t>(width);
    const uint64_t a = Rng::deriveSeed(seed, 0xadd0ull + w) | 1u;
    const uint64_t b = Rng::deriveSeed(seed, 0xadd1ull + w);
    return (a * block + b) & ((1ull << w) - 1);
}

/**
 * Request `index` of a zoo stream over `families`. The stream is
 * stratified: each block holds every (family, width) pair once, in a
 * seeded order, so every run sees the same work mix and the seed
 * varies only the order and the parameters.
 */
Circuit
zooStreamCircuit(const std::vector<std::string> &families, uint64_t seed,
                 uint64_t index, std::string *name)
{
    const size_t block_size = families.size() * kZooWidths.size();
    const uint64_t block = index / block_size;
    std::vector<size_t> order(block_size);
    for (size_t i = 0; i < block_size; ++i)
        order[i] = i;
    Rng shuffle(Rng::deriveSeed(seed, block));
    for (size_t i = block_size - 1; i > 0; --i)
        std::swap(order[i], order[shuffle.uniformInt(i + 1)]);
    const size_t slot = order[index % block_size];
    const int width = kZooWidths[slot % kZooWidths.size()];
    return zooCircuit(families[slot / kZooWidths.size()], width,
                      streamAngle(seed, slot, block),
                      Rng::deriveSeed(seed ^ 0x5eedc01dull, index),
                      addendBits(seed, width, block), name);
}

/**
 * A drift-cycle zoo pass: every family at each of `widths`, in
 * family-major order, with every entangler in the CNOT class (RZZ at
 * pi/2, CZ, CX). A retune presynthesizes exactly that class on each
 * new basis, so the pass after a retune exercises routing, translation
 * and the cache write side without a seed-dependent synthesis bill.
 */
std::vector<CompileRequest>
zooPass(const CompileServiceOptions &s, uint64_t seed,
        const std::vector<int> &widths)
{
    std::vector<CompileRequest> pass;
    Rng rng(Rng::deriveSeed(seed, 0x9a55ull));
    for (const std::string &family : kZooFamilies) {
        for (const int width : widths) {
            std::string name;
            const uint64_t seed_rcs = rng.next();
            Circuit c = zooCircuit(family, width, M_PI / 2.0, seed_rcs,
                                   rng.next(), &name);
            pass.push_back(fleetRequest(s, 0, 0, name, std::move(c)));
        }
    }
    return pass;
}

// -- Zipf shapes -----------------------------------------------------

/** Hardware-efficient ansatz: the 1Q rotations are the parameters,
 *  the CX entanglers never change, so a fresh draw replays the stored
 *  plan against published classes. */
Circuit
ansatz(int n, double theta)
{
    Circuit c(n);
    for (int q = 0; q < n; ++q) {
        c.h(q);
        c.rz(q, theta + 0.1 * q);
    }
    for (int q = 0; q + 1 < n; ++q)
        c.cx(q, q + 1);
    for (int q = 0; q < n; ++q)
        c.ry(q, 0.5 * theta - 0.2 * q);
    return c;
}

constexpr size_t kZipfShapes = 10;
constexpr double kZipfExponent = 1.1;

/** Rank 0 is the most popular shape; ranks 1 and 4 are parametric. */
bool
zipfParametric(size_t rank)
{
    return rank == 1 || rank == 4;
}

/** Shapes whose only entanglers are CNOT-class (CX, CZ). */
bool
zipfCnotClass(size_t rank)
{
    return rank == 1 || rank == 3 || rank == 4 || rank == 7 || rank == 8;
}

Circuit
zipfShape(size_t rank, double theta, std::string *name)
{
    WorkloadParams zoo;
    zoo.qubits = 6;
    switch (rank) {
    case 0: *name = "qft5"; return qftCircuit(5);
    case 1: *name = "ansatz6"; return ansatz(6, theta);
    case 2:
        *name = "ising6";
        zoo.theta = 0.35;
        return qbasis::makeWorkload("ising", zoo);
    case 3: *name = "bv6"; return bvAllOnesCircuit(6);
    case 4: *name = "ansatz5"; return ansatz(5, theta);
    case 5: {
        *name = "qaoa6";
        QaoaParams qp;
        qp.gamma = 0.4;
        qp.beta = 0.25;
        return qaoaErdosRenyiCircuit(6, 0.5, qp);
    }
    case 6:
        *name = "heisenberg6";
        zoo.theta = 0.42;
        return qbasis::makeWorkload("heisenberg", zoo);
    case 7:
        *name = "rcs6";
        zoo.depth = 2;
        zoo.seed = 7;
        return qbasis::makeWorkload("rcs", zoo);
    case 8: *name = "adder6"; return qbasis::makeWorkload("adder_chain", zoo);
    default: *name = "qft6"; return qftCircuit(6);
    }
}

/** Zipf(1.1) rank of request `index`. */
size_t
zipfRank(uint64_t seed, uint64_t index, Rng *rng)
{
    static const std::array<double, kZipfShapes> cdf = [] {
        std::array<double, kZipfShapes> c{};
        double total = 0.0;
        for (size_t r = 0; r < kZipfShapes; ++r) {
            total += 1.0 / std::pow(static_cast<double>(r + 1),
                                    kZipfExponent);
            c[r] = total;
        }
        for (double &x : c)
            x /= total;
        return c;
    }();
    *rng = Rng(Rng::deriveSeed(seed ^ 0x21bfull, index));
    const double u = rng->uniform();
    size_t rank = 0;
    while (rank + 1 < kZipfShapes && u >= cdf[rank])
        ++rank;
    return rank;
}

WorkloadSpec
coldZoo(uint64_t seed)
{
    WorkloadSpec w;
    w.name = "cold_zoo";
    w.service = serviceOptions();
    w.devices = {heavyHex(2, 4, 17)};
    const CompileServiceOptions s = w.service;
    w.stream = [s, seed](uint64_t i) {
        std::string name;
        Circuit c = zooStreamCircuit(kZooFamilies, seed, i, &name);
        return fleetRequest(s, 1 + i, 0, name, std::move(c));
    };
    w.zoo_pass = zooPass(s, seed, {12});
    w.closed_share = 0.9;
    w.rung_share = 0.07;
    w.open_limit_ms = 300.0;
    w.exact_requests = 100;
    return w;
}

WorkloadSpec
zipfServe(uint64_t seed)
{
    WorkloadSpec w;
    w.name = "zipf_serve";
    w.service = serviceOptions();
    w.devices = {heavyHex(2, 2, 17), heavyHex(2, 2, 18)};
    const CompileServiceOptions s = w.service;
    for (size_t r = 0; r < kZipfShapes; ++r) {
        std::string name;
        Circuit c = zipfShape(r, 0.15, &name);
        w.warm_fill.push_back(fleetRequest(s, 900000 + r,
                                           static_cast<int>(r % 2), name,
                                           c));
        // The drift-cycle pass re-serves the CNOT-class shapes (see
        // zooPass) after each retune.
        if (zipfCnotClass(r)) {
            w.zoo_pass.push_back(fleetRequest(
                s, 0, static_cast<int>(r % 2), name, std::move(c)));
        }
    }
    w.stream = [s, seed](uint64_t i) {
        Rng rng;
        const size_t rank = zipfRank(seed, i, &rng);
        const double theta =
            zipfParametric(rank) ? rng.uniform(0.2, 1.2) : 0.0;
        std::string name;
        Circuit c = zipfShape(rank, theta, &name);
        return fleetRequest(s, 1 + i, static_cast<int>(rank % 2), name,
                            std::move(c));
    };
    w.closed_share = 0.75;
    w.rung_share = 0.05;
    w.open_limit_ms = 20.0;
    w.exact_requests = 1000;
    return w;
}

/** drift_cycle's closed loop sends fresh RCS and adder shapes: every
 *  request misses the plan tier, but its entanglers are all in the
 *  CNOT class, so once those classes are cached the loop measures
 *  routing and translation at lattice scale, not synthesis, which
 *  cold_zoo covers. */
WorkloadSpec
driftCycleWorkload(uint64_t seed)
{
    WorkloadSpec w;
    w.name = "drift_cycle";
    w.service = serviceOptions();
    w.devices = {heavyHex(3, 6, 17)};
    const CompileServiceOptions s = w.service;
    w.stream = [s, seed](uint64_t i) {
        std::string name;
        Circuit c = zooStreamCircuit(kCnotFamilies, seed, i, &name);
        return fleetRequest(s, 1 + i, 0, name, std::move(c));
    };
    w.zoo_pass = zooPass(s, seed, {8, 10, 12, 14, 16});
    w.closed_share = 1.0;
    w.rung_share = 0.05;
    w.open_limit_ms = 50.0;
    w.exact_requests = 400;
    return w;
}

} // namespace

WorkloadSpec
workloadSpec(const std::string &name, uint64_t seed)
{
    if (name == "cold_zoo")
        return coldZoo(seed);
    if (name == "zipf_serve")
        return zipfServe(seed);
    if (name == "drift_cycle")
        return driftCycleWorkload(seed);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

} // namespace qbench

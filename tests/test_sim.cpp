/**
 * @file
 * Tests for the device-simulation library: flux curve, Hamiltonian
 * structure, zero-ZZ bias search, dressed states, propagator frames
 * (identity without drive), trajectory physics (XY at weak drive,
 * speed linear in amplitude), integrator convergence, the grid
 * device sampling, and bit identity of the split-complex RK4 panel
 * and Jacobi rotations against the std::complex reference
 * (sim_reference.hpp).
 */

#include <cmath>

#include <gtest/gtest.h>

#include "calib/drift.hpp"
#include "linalg/eig_herm.hpp"
#include "sim/bias.hpp"
#include "sim/device.hpp"
#include "sim/flux.hpp"
#include "sim/hamiltonian.hpp"
#include "sim/propagator.hpp"
#include "util/rng.hpp"
#include "weyl/invariants.hpp"

#include "sim_reference.hpp"

namespace qbasis {
namespace {

/** Shared small-probe fixture: one edge of the default device. */
const GridDevice &
testDevice()
{
    static const GridDevice dev{GridDeviceParams{}};
    return dev;
}

const PairSimulator &
testSimulator()
{
    static const PairSimulator sim(testDevice().edgeParams(0),
                                   testDevice().couplerOmegaMax());
    return sim;
}

TEST(FluxCurve, RoundTripAndMonotone)
{
    const FluxCurve f(ghz(7.5));
    for (double w : {2.0, 4.0, 5.0, 7.0}) {
        const double phi = f.fluxForFrequency(ghz(w));
        EXPECT_NEAR(f.frequency(phi), ghz(w), 1e-9);
        EXPECT_GE(phi, 0.0);
        EXPECT_LT(phi, 0.5);
    }
    EXPECT_THROW(f.fluxForFrequency(ghz(8.0)), std::runtime_error);
}

TEST(FluxCurve, SlopeMatchesFiniteDifference)
{
    const FluxCurve f(ghz(7.5));
    const double h = 1e-7;
    for (double phi : {0.1, 0.25, 0.35, 0.42}) {
        const double fd =
            (f.frequency(phi + h) - f.frequency(phi - h)) / (2 * h);
        EXPECT_NEAR(f.slope(phi), fd, 1e-3 * std::abs(fd) + 1e-9);
    }
}

TEST(Hamiltonian, DimensionsAndIndexing)
{
    PairDeviceParams p = testDevice().edgeParams(0);
    const PairHamiltonian h(p);
    EXPECT_EQ(h.dim(), 27);
    int na, nb, nc;
    h.occupations(h.index(2, 1, 0), na, nb, nc);
    EXPECT_EQ(na, 2);
    EXPECT_EQ(nb, 1);
    EXPECT_EQ(nc, 0);
    // Round trip over all states.
    for (int i = 0; i < 27; ++i) {
        h.occupations(i, na, nb, nc);
        EXPECT_EQ(h.index(na, nb, nc), i);
    }
}

TEST(Hamiltonian, StaticIsHermitianWithExpectedSpectrumScale)
{
    PairDeviceParams p = testDevice().edgeParams(0);
    const PairHamiltonian h(p);
    const CMat hm = h.staticHamiltonian(ghz(5.0));
    EXPECT_LT(hm.maxAbsDiff(hm.dagger()), 1e-12);
    const HermEig eig = jacobiEigHerm(hm);
    // Ground state near zero energy, top near sum of double
    // excitations.
    EXPECT_NEAR(eig.values.front(), 0.0, 1.0);
    EXPECT_GT(eig.values.back(), ghz(15.0));
}

TEST(Hamiltonian, BareEnergiesDuffingFormula)
{
    PairDeviceParams p = testDevice().edgeParams(0);
    const PairHamiltonian h(p);
    const double wc = ghz(5.0);
    const auto e = h.bareEnergies(wc);
    EXPECT_DOUBLE_EQ(e[h.index(0, 0, 0)], 0.0);
    EXPECT_NEAR(e[h.index(1, 0, 0)], p.qubit_a.omega, 1e-12);
    EXPECT_NEAR(e[h.index(0, 1, 0)], p.qubit_b.omega, 1e-12);
    EXPECT_NEAR(e[h.index(2, 0, 0)],
                2 * p.qubit_a.omega + p.qubit_a.alpha, 1e-9);
    EXPECT_NEAR(e[h.index(0, 0, 2)], 2 * wc + p.coupler.alpha, 1e-9);
}

TEST(Hamiltonian, CouplingCountForThreeLevels)
{
    PairDeviceParams p = testDevice().edgeParams(0);
    const PairHamiltonian h(p);
    // Each exchange term couples 2*2*3 = 12 state pairs for 3-level
    // modes; three terms -> 36 entries.
    EXPECT_EQ(h.couplings().size(), 36u);
    for (const auto &e : h.couplings())
        EXPECT_LT(e.row, e.col);
}

TEST(Bias, FindsDeepZeroZz)
{
    const PairSimulator &sim = testSimulator();
    EXPECT_LT(sim.zzResidual(), 1e-8);
    // The bias point sits between the qubit frequencies.
    PairDeviceParams p = testDevice().edgeParams(0);
    EXPECT_GT(sim.omegaC0(), p.qubit_a.omega);
    EXPECT_LT(sim.omegaC0(), p.qubit_b.omega);
}

TEST(Bias, DressedStatesNearBare)
{
    const DressedStates &d = testSimulator().dressed();
    // Orthonormal columns.
    for (int k = 0; k < 4; ++k) {
        for (int l = 0; l < 4; ++l) {
            Complex ov{};
            for (size_t i = 0; i < d.vectors.rows(); ++i)
                ov += std::conj(d.vectors(i, k)) * d.vectors(i, l);
            EXPECT_NEAR(std::abs(ov), k == l ? 1.0 : 0.0, 1e-9);
        }
    }
    // Ground below the single excitations, both below |11>; the
    // relative order of |01| and |10| depends on which qubit is the
    // high-frequency one.
    EXPECT_LT(d.energies[0], d.energies[1]);
    EXPECT_LT(d.energies[0], d.energies[2]);
    EXPECT_LT(d.energies[1], d.energies[3]);
    EXPECT_LT(d.energies[2], d.energies[3]);
}

TEST(Bias, ZzChangesSignAcrossWindow)
{
    PairDeviceParams p = testDevice().edgeParams(0);
    const PairHamiltonian h(p);
    const double zz_lo = staticZZ(h, ghz(4.9));
    const double zz_hi = staticZZ(h, ghz(5.3));
    EXPECT_LT(zz_lo * zz_hi, 0.0);
}

TEST(Propagator, NoDriveGivesIdentity)
{
    // With xi = 0 the gate must stay the identity in the dressed
    // rotating frame -- a strong check of the frame bookkeeping.
    const PairSimulator &sim = testSimulator();
    const Trajectory tr = sim.simulateTrajectory(0.0, ghz(2.0), 30.0);
    for (size_t i = 0; i < tr.size(); i += 5) {
        EXPECT_NEAR(
            traceInfidelity(tr.at(i).unitary, Mat4::identity()), 0.0,
            1e-5)
            << "t=" << tr.at(i).duration;
        EXPECT_LT(tr.at(i).leakage, 1e-6);
    }
}

TEST(Propagator, SampledGatesAreUnitary)
{
    const PairSimulator &sim = testSimulator();
    const double wd = sim.dressedSplitting();
    const Trajectory tr = sim.simulateTrajectory(0.005, wd, 40.0);
    for (const auto &pt : tr.points())
        EXPECT_TRUE(pt.unitary.isUnitary(1e-8));
}

TEST(Propagator, WeakDriveIsXyTrajectory)
{
    // Baseline amplitude: tx == ty, tz ~ 0 (standard XY family).
    const PairSimulator &sim = testSimulator();
    const double wd = sim.calibrateDriveFrequency(0.005);
    const Trajectory tr = sim.simulateTrajectory(0.005, wd, 90.0);
    for (size_t i = 5; i < tr.size(); i += 10) {
        const CartanCoords &c = tr.at(i).coords;
        // Near-identity points may canonicalize at the I1 corner;
        // fold tx back for the XY comparison.
        const double tx_folded = std::min(c.tx, 1.0 - c.tx);
        EXPECT_NEAR(tx_folded, c.ty, 0.01) << tr.at(i).duration;
        EXPECT_LT(c.tz, 0.02) << tr.at(i).duration;
        EXPECT_LT(tr.at(i).leakage, 0.01);
    }
    // Interaction grows monotonically over the first half-period.
    EXPECT_GT(tr.at(80).coords.tx, tr.at(40).coords.tx);
    EXPECT_GT(tr.at(40).coords.tx, tr.at(10).coords.tx);
}

TEST(Propagator, SpeedScalesLinearlyWithAmplitude)
{
    const PairSimulator &sim = testSimulator();
    const double wd1 = sim.calibrateDriveFrequency(0.005);
    const double wd2 = sim.calibrateDriveFrequency(0.010);
    const Trajectory t1 = sim.simulateTrajectory(0.005, wd1, 110.0);
    const Trajectory t2 = sim.simulateTrajectory(0.010, wd2, 60.0);
    // Entangling power >= 1/6 marks the sqrt(iSWAP)-like point;
    // unlike raw tx it is immune to the I0/I1 corner ambiguity of
    // near-identity gates.
    auto crossing = [](const Trajectory &tr) {
        const auto idx =
            tr.firstIndexWhere([](const TrajectoryPoint &p) {
                return entanglingPower(p.coords) >= 1.0 / 6.0;
            });
        return idx ? tr.at(*idx).duration : -1.0;
    };
    const double c1 = crossing(t1);
    const double c2 = crossing(t2);
    ASSERT_GT(c1, 0.0);
    ASSERT_GT(c2, 0.0);
    // Doubling the amplitude should halve the time (Fig. 5).
    EXPECT_NEAR(c1 / c2, 2.0, 0.3);
}

TEST(Propagator, StrongDriveDeviatesFromStandard)
{
    // The tz component at the SWAP3 crossing grows with amplitude
    // (strong-drive nonstandard trajectory, Section VIII-B).
    const PairSimulator &sim = testSimulator();
    const double wd_weak = sim.calibrateDriveFrequency(0.005);
    const double wd_strong = sim.calibrateDriveFrequency(0.04);
    const Trajectory weak =
        sim.simulateTrajectory(0.005, wd_weak, 95.0);
    const Trajectory strong =
        sim.simulateTrajectory(0.04, wd_strong, 16.0);
    auto tz_at_crossing = [](const Trajectory &tr) {
        const auto idx =
            tr.firstIndexWhere([](const TrajectoryPoint &p) {
                return entanglingPower(p.coords) >= 1.0 / 6.0;
            });
        return idx ? tr.at(*idx).coords.tz : -1.0;
    };
    const double tz_weak = tz_at_crossing(weak);
    const double tz_strong = tz_at_crossing(strong);
    ASSERT_GE(tz_weak, 0.0);
    ASSERT_GE(tz_strong, 0.0);
    EXPECT_GT(tz_strong, 4.0 * tz_weak);
}

TEST(Propagator, IntegratorConvergence)
{
    // Halving dt should not move the sampled gates appreciably.
    PairDeviceParams p = testDevice().edgeParams(0);
    SimOptions coarse;
    coarse.dt = 0.01;
    SimOptions fine;
    fine.dt = 0.0025;
    const PairSimulator sim_coarse(p, testDevice().couplerOmegaMax(),
                                   coarse);
    const PairSimulator sim_fine(p, testDevice().couplerOmegaMax(),
                                 fine);
    const double wd = sim_coarse.dressedSplitting();
    const Trajectory tc = sim_coarse.simulateTrajectory(0.01, wd, 20.0);
    const Trajectory tf = sim_fine.simulateTrajectory(0.01, wd, 20.0);
    ASSERT_EQ(tc.size(), tf.size());
    for (size_t i = 0; i < tc.size(); i += 4) {
        EXPECT_LT(traceInfidelity(tc.at(i).unitary, tf.at(i).unitary),
                  1e-6)
            << "t=" << tc.at(i).duration;
    }
}

TEST(Propagator, SwapTransferPeaksOnResonance)
{
    const PairSimulator &sim = testSimulator();
    const double wd = sim.dressedSplitting();
    const std::vector<double> scores =
        sim.swapTransferScores(0.01, {wd, wd + ghz(0.15)}, 120.0, 0.02);
    const double on = scores[0];
    const double off = scores[1];
    EXPECT_GT(on, 0.5);
    EXPECT_LT(off, 0.5 * on);
}

TEST(Device, CheckerboardColoring)
{
    const GridDevice &dev = testDevice();
    const CouplingMap &cm = dev.coupling();
    for (const auto &[a, b] : cm.edges()) {
        EXPECT_NE(dev.isHighFrequency(a), dev.isHighFrequency(b))
            << a << "," << b;
    }
}

TEST(Device, FrequencyGroupsMatchSpec)
{
    const GridDevice &dev = testDevice();
    double low_sum = 0.0, high_sum = 0.0;
    int low_n = 0, high_n = 0;
    for (int q = 0; q < dev.numQubits(); ++q) {
        const double f = dev.qubitFrequency(q) / kTwoPi;
        if (dev.isHighFrequency(q)) {
            high_sum += f;
            ++high_n;
        } else {
            low_sum += f;
            ++low_n;
        }
    }
    EXPECT_EQ(low_n + high_n, 100);
    EXPECT_NEAR(low_sum / low_n, 4.2, 0.2);
    EXPECT_NEAR(high_sum / high_n, 6.2, 0.3);
    // Means differ by ~2 GHz.
    EXPECT_NEAR(high_sum / high_n - low_sum / low_n, 2.0, 0.3);
}

TEST(Device, EdgeParamsOrientation)
{
    const GridDevice &dev = testDevice();
    const auto &[lo, hi] = dev.coupling().edges()[0];
    const PairDeviceParams p = dev.edgeParams(0);
    EXPECT_DOUBLE_EQ(p.qubit_a.omega, dev.qubitFrequency(lo));
    EXPECT_DOUBLE_EQ(p.qubit_b.omega, dev.qubitFrequency(hi));
}

TEST(Device, DeterministicPerSeed)
{
    GridDeviceParams a;
    a.seed = 7;
    GridDeviceParams b;
    b.seed = 7;
    GridDeviceParams c;
    c.seed = 8;
    const GridDevice da(a), db(b), dc(c);
    EXPECT_DOUBLE_EQ(da.qubitFrequency(13), db.qubitFrequency(13));
    EXPECT_NE(da.qubitFrequency(13), dc.qubitFrequency(13));
}

// --- Split-complex kernels vs the std::complex reference -------------

/** Calibration settings of the lattice benches (coarser steps). */
SimOptions
latticeSimOptions()
{
    SimOptions opts;
    opts.dt = 0.01;
    opts.probe_dt = 0.04;
    opts.probe_duration = 60.0;
    opts.drive_scan_points = 7;
    return opts;
}

/** hh(3,6) heavy-hex lattice, frequency seed 17. */
const GridDevice &
heavyHexDevice()
{
    static const GridDevice dev = [] {
        GridDeviceParams gp;
        gp.topology = DeviceTopology::HeavyHex;
        gp.rows = 3;
        gp.cols = 6;
        gp.seed = 17;
        return GridDevice(gp);
    }();
    return dev;
}

/** Edge `e` of heavyHexDevice() with its own drift stream. */
PairDeviceParams
driftedHeavyHexCell(int e)
{
    Rng rng(Rng::deriveSeed(17, static_cast<uint64_t>(e)));
    return driftParams(heavyHexDevice().edgeParams(e), DriftModel{},
                       rng);
}

TEST(SimReference, DriftedHeavyHexCellsMatchBitForBit)
{
    const GridDevice &dev = heavyHexDevice();
    const double xi = 0.04;
    for (int e = 0; e < 12; ++e) {
        SCOPED_TRACE("edge " + std::to_string(e));
        const PairSimulator sim(driftedHeavyHexCell(e),
                                dev.couplerOmegaMax(),
                                latticeSimOptions());
        const ReferenceSim ref(sim, dev.couplerOmegaMax());

        // The bias point's spectrum.
        const CMat h =
            sim.hamiltonian().staticHamiltonian(sim.omegaC0());
        EXPECT_TRUE(eigBitIdentical(jacobiEigHerm(h),
                                    referenceJacobiEigHerm(h)));

        // One probe panel against one reference probe per column.
        const double center = sim.dressedSplitting();
        std::vector<double> omegas;
        for (int k = -3; k <= 3; ++k)
            omegas.push_back(center + 0.1 * k);
        const std::vector<double> scores =
            sim.swapTransferScores(xi, omegas, 42.5, 0.04);
        ASSERT_EQ(scores.size(), omegas.size());
        for (size_t k = 0; k < omegas.size(); ++k) {
            EXPECT_TRUE(bitsEqual(
                scores[k],
                ref.swapTransferScore(xi, omegas[k], 42.5, 0.04)))
                << "omega " << k;
        }

        // The batched scan picks the reference's frequency, and the
        // trajectory matches point for point.
        const double wd = sim.calibrateDriveFrequency(xi);
        EXPECT_TRUE(bitsEqual(wd, ref.calibrateDriveFrequency(xi)));
        EXPECT_TRUE(trajectoriesBitIdentical(
            sim.simulateTrajectory(xi, wd, 20.0),
            ref.trajectory(xi, wd, 20.0)));
    }
}

TEST(SimReference, LongTrajectoryCrossesRotorRenormalization)
{
    // 45 ns at dt = 0.005 is 9000 steps: past the rotor
    // renormalization at step 8192.
    const PairSimulator &sim = testSimulator();
    const ReferenceSim ref(sim, testDevice().couplerOmegaMax());
    const double wd = sim.dressedSplitting();
    const Trajectory got = sim.simulateTrajectory(0.01, wd, 45.0);
    ASSERT_GT(45.0 / sim.options().dt, 8192.0);
    EXPECT_TRUE(
        trajectoriesBitIdentical(got, ref.trajectory(0.01, wd, 45.0)));
}

TEST(SimReference, ScoresDoNotDependOnPanelWidth)
{
    const PairSimulator sim(driftedHeavyHexCell(3),
                            heavyHexDevice().couplerOmegaMax(),
                            latticeSimOptions());
    const double center = sim.dressedSplitting();
    std::vector<double> ws;
    for (int k = 0; k < 9; ++k)
        ws.push_back(center - 0.2 + 0.05 * k);
    const std::vector<double> batch =
        sim.swapTransferScores(0.04, ws, 42.5, 0.04);
    ASSERT_EQ(batch.size(), ws.size());
    for (size_t k = 0; k < ws.size(); ++k) {
        const std::vector<double> one =
            sim.swapTransferScores(0.04, {ws[k]}, 42.5, 0.04);
        ASSERT_EQ(one.size(), 1u);
        EXPECT_TRUE(bitsEqual(batch[k], one[0])) << "omega " << k;
    }
}

TEST(SimReference, StronglyHybridizedBiasPoint)
{
    // Just above the coupler two-photon resonance 2 w_c + a_c =
    // w_a + w_b, |11> hybridizes with the doubly excited coupler:
    // the point where dressedComputationalStates warns of a weak
    // bare overlap.
    const PairDeviceParams p = driftedHeavyHexCell(0);
    const PairHamiltonian ham(p);
    const double omega_c =
        0.5 * (p.qubit_a.omega + p.qubit_b.omega - p.coupler.alpha)
        + 0.3;
    const CMat h = ham.staticHamiltonian(omega_c);
    const HermEig got = jacobiEigHerm(h);
    EXPECT_TRUE(eigBitIdentical(got, referenceJacobiEigHerm(h)));

    const int bare11 = ham.computationalIndices()[3];
    double best = 0.0;
    for (size_t e = 0; e < got.values.size(); ++e)
        best = std::max(best, std::norm(got.vectors(bare11, e)));
    EXPECT_LT(best, 0.5);
}

TEST(SimReference, JacobiMatchesOnRandomHermitian)
{
    Rng rng(4242);
    for (const int n : {4, 9, 27}) {
        for (int trial = 0; trial < 3; ++trial) {
            CMat h(n, n);
            for (int i = 0; i < n; ++i) {
                h(i, i) = rng.normal();
                for (int j = 0; j < i; ++j) {
                    const Complex v(rng.normal(), rng.normal());
                    h(i, j) = v;
                    h(j, i) = std::conj(v);
                }
            }
            EXPECT_TRUE(eigBitIdentical(jacobiEigHerm(h),
                                        referenceJacobiEigHerm(h)))
                << "n=" << n << " trial " << trial;
        }
    }
}

TEST(SimReference, JacobiMatchesOnDiagonalAndSparseInput)
{
    for (const int n : {4, 9, 27}) {
        // Diagonal: converged before the first rotation.
        CMat d(n, n);
        for (int i = 0; i < n; ++i)
            d(i, i) = Complex(std::cos(1.7 * i), 0.0);
        EXPECT_TRUE(eigBitIdentical(jacobiEigHerm(d),
                                    referenceJacobiEigHerm(d)))
            << "diagonal n=" << n;
        // One coupled pair: every other pivot takes the zero skip.
        CMat s = d;
        s(0, n - 1) = Complex(0.3, -0.2);
        s(n - 1, 0) = Complex(0.3, 0.2);
        EXPECT_TRUE(eigBitIdentical(jacobiEigHerm(s),
                                    referenceJacobiEigHerm(s)))
            << "sparse n=" << n;
    }
}

} // namespace
} // namespace qbasis

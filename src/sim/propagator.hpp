#ifndef QBASIS_SIM_PROPAGATOR_HPP
#define QBASIS_SIM_PROPAGATOR_HPP

/**
 * @file
 * Time-domain simulation of the unit cell (paper Section VIII-B):
 *
 *  1. bias the coupler to the zero-ZZ point,
 *  2. pick the entangling pulse drive frequency that maximizes
 *     population swapping between the qubits,
 *  3. integrate the Schrodinger equation for the flux-modulated
 *     Hamiltonian (rectangular envelope) and project onto the
 *     dressed computational subspace, producing a Cartan trajectory
 *     sampled at the 1 ns controller resolution,
 *
 * with leakage tracked via the norm lost from the computational
 * subspace. Integration happens in the interaction picture of the
 * static diagonal Hamiltonian (phases carried by per-coupling
 * rotors), so the RK4 step is limited by the detunings rather than
 * by the ~5 GHz qubit frequencies.
 *
 * Both the calibration probes and the trajectory run one RK4 kernel
 * over a split-complex panel (separate re/im arrays, one column per
 * state): the trajectory's four computational columns, or one
 * column per probed drive frequency. Every split expression keeps
 * the operation order of the std::complex arithmetic it replaced,
 * so results do not depend on the panel width.
 */

#include "sim/bias.hpp"
#include "sim/flux.hpp"
#include "sim/hamiltonian.hpp"
#include "weyl/trajectory.hpp"

namespace qbasis {

/** Numerical options of the simulator. */
struct SimOptions
{
    double dt = 0.005;        ///< RK4 step for trajectories (ns).
    double probe_dt = 0.02;   ///< Coarser step for calibration probes.
    double sample_dt = 1.0;   ///< Trajectory sampling (controller res).
    double bias_margin = 1.5; ///< rad/ns margin from qubit freqs in
                              ///< the zero-ZZ scan window.
    int drive_scan_points = 11;   ///< Coarse drive-frequency scan.
    double drive_scan_span = 0.5; ///< Half-width of the scan (rad/ns).
    double probe_duration = 120.0; ///< Population-probe length (ns).
};

/** One qubit-pair simulator instance. */
class PairSimulator
{
  public:
    /**
     * @param params           unit-cell parameters (coupler.omega is
     *                         ignored; the bias search sets it).
     * @param coupler_omega_max zero-flux coupler frequency (rad/ns).
     */
    PairSimulator(const PairDeviceParams &params,
                  double coupler_omega_max, SimOptions opts = {});

    /** Zero-ZZ bias results. */
    double omegaC0() const { return omega_c0_; }
    double phiDc() const { return phi_dc_; }
    double zzResidual() const { return zz_residual_; }

    /** Dressed qubit-qubit splitting |E10 - E01| at the bias. */
    double dressedSplitting() const;

    /** Dressed states at the bias point. */
    const DressedStates &dressed() const { return dressed_; }

    /**
     * Coarse + fine scan for the drive frequency maximizing
     * population transfer at amplitude `xi` (flux units of Phi0).
     * This is calibration step 1 of Section VI.
     */
    double calibrateDriveFrequency(double xi) const;

    /**
     * Peak |<10|psi(t)>|^2 from |01> over the probe window -- the
     * "population swapping" score used by the drive calibration --
     * for each drive frequency in `omegas`, integrated as one panel
     * with a column per frequency. Entry k depends only on
     * omegas[k], not on the other entries or on how many there are.
     */
    std::vector<double> swapTransferScores(
        double xi, const std::vector<double> &omegas,
        double duration_ns, double dt) const;

    /**
     * Integrate the driven evolution and sample the effective 2Q
     * gate every `sample_dt` ns up to `max_ns`.
     */
    Trajectory simulateTrajectory(double xi, double omega_d,
                                  double max_ns) const;

    const PairHamiltonian &hamiltonian() const { return ham_; }
    const SimOptions &options() const { return opts_; }

  private:
    /** delta omega_c(t) from the flux drive. */
    double driveDelta(double xi, double omega_d, double t) const;

    PairHamiltonian ham_;
    FluxCurve flux_;
    SimOptions opts_;
    double omega_c0_ = 0.0;
    double phi_dc_ = 0.0;
    double zz_residual_ = 0.0;
    DressedStates dressed_;
    std::vector<double> bare_energies_;
    std::vector<CouplingEntry> couplings_; ///< With energy gaps set.
};

} // namespace qbasis

#endif // QBASIS_SIM_PROPAGATOR_HPP

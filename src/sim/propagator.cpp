#include "sim/propagator.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/polar.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "weyl/cartan.hpp"

namespace qbasis {

namespace {

/**
 * Split-complex state panel: `dim` rows by `cols` columns, one
 * column per state; element (i, c) is re[i * cols + c] +
 * i im[i * cols + c].
 */
struct Panel
{
    Panel(int dim, int cols)
        : re(static_cast<size_t>(dim) * cols, 0.0),
          im(static_cast<size_t>(dim) * cols, 0.0)
    {
    }

    std::vector<double> re;
    std::vector<double> im;
};

/**
 * Classic RK4 on a panel in the interaction picture, with
 * per-coupling phase rotors. Column c sees the coupler detuning
 * delta[c]; columns never mix, so a column's result does not depend
 * on the panel width.
 *
 * The split arithmetic repeats the std::complex<double> operations
 * it replaced one for one -- (a + ib)(c + id) = (ac - bd) +
 * i(ad + bc), conj as a negated imaginary part, a real scalar
 * scaling each part, the same association everywhere -- so every
 * value is bit-identical to that code (tests/sim_reference.hpp).
 */
class Rk4Panel
{
  public:
    Rk4Panel(const std::vector<CouplingEntry> &couplings,
             const std::vector<double> &coupler_occ, int dim, int cols,
             double dt)
        : couplings_(couplings), coupler_occ_(coupler_occ), dim_(dim),
          cols_(cols), dt_(dt), k1_(dim, cols), k2_(dim, cols),
          k3_(dim, cols), k4_(dim, cols), tmp_(dim, cols)
    {
        const size_t n = couplings.size();
        phase_re_.assign(n, 1.0);
        phase_im_.assign(n, 0.0);
        half_re_.resize(n);
        half_im_.resize(n);
        full_re_.resize(n);
        full_im_.resize(n);
        for (int s = 0; s < 3; ++s) {
            w_re_[s].resize(n);
            w_im_[s].resize(n);
        }
        for (size_t e = 0; e < n; ++e) {
            const Complex h = std::exp(
                Complex(0.0, couplings[e].energy_gap * dt * 0.5));
            half_re_[e] = h.real();
            half_im_[e] = h.imag();
            // Rotor advance per full step: h * h.
            full_re_[e] = h.real() * h.real() - h.imag() * h.imag();
            full_im_[e] = h.real() * h.imag() + h.imag() * h.real();
        }
    }

    /**
     * Advance `psi` from t to t + dt. `d0`, `d1` and `d2` hold each
     * column's coupler detuning at t, t + dt/2 and t + dt.
     */
    void
    step(Panel &psi, const std::vector<double> &d0,
         const std::vector<double> &d1, const std::vector<double> &d2)
    {
        couplingValues();
        const size_t n = psi.re.size();
        const double half = 0.5 * dt_;
        const double sixth = dt_ / 6.0;
        // k = -i h: k.re = h.im, k.im = -h.re.
        eval(psi, 0, d0, k1_);
        for (size_t x = 0; x < n; ++x) {
            tmp_.re[x] = psi.re[x] + half * k1_.im[x];
            tmp_.im[x] = psi.im[x] + half * -k1_.re[x];
        }
        eval(tmp_, 1, d1, k2_);
        for (size_t x = 0; x < n; ++x) {
            tmp_.re[x] = psi.re[x] + half * k2_.im[x];
            tmp_.im[x] = psi.im[x] + half * -k2_.re[x];
        }
        eval(tmp_, 1, d1, k3_);
        for (size_t x = 0; x < n; ++x) {
            tmp_.re[x] = psi.re[x] + dt_ * k3_.im[x];
            tmp_.im[x] = psi.im[x] + dt_ * -k3_.re[x];
        }
        eval(tmp_, 2, d2, k4_);
        for (size_t x = 0; x < n; ++x) {
            psi.re[x] += sixth
                         * (k1_.im[x] + 2.0 * k2_.im[x]
                            + 2.0 * k3_.im[x] + k4_.im[x]);
            psi.im[x] += sixth
                         * (-k1_.re[x] + 2.0 * -k2_.re[x]
                            + 2.0 * -k3_.re[x] + -k4_.re[x]);
        }
    }

  private:
    /**
     * The coupling values value * phase * h^s at the step's three
     * substep times (s = 0, 1, 2 half-steps past t), then the rotor
     * advance to t + dt, renormalized every 8192 steps.
     */
    void
    couplingValues()
    {
        for (size_t e = 0; e < couplings_.size(); ++e) {
            const double v = couplings_[e].value;
            const double pr = phase_re_[e];
            const double pi = phase_im_[e];
            const double hr = half_re_[e];
            const double hi = half_im_[e];
            const double fr = full_re_[e];
            const double fi = full_im_[e];
            const double p1r = pr * hr - pi * hi;
            const double p1i = pr * hi + pi * hr;
            const double p2r = pr * fr - pi * fi;
            const double p2i = pr * fi + pi * fr;
            w_re_[0][e] = v * pr;
            w_im_[0][e] = v * pi;
            w_re_[1][e] = v * p1r;
            w_im_[1][e] = v * p1i;
            w_re_[2][e] = v * p2r;
            w_im_[2][e] = v * p2i;
            phase_re_[e] = p2r;
            phase_im_[e] = p2i;
        }
        if (++steps_ % 8192 == 0) {
            for (size_t e = 0; e < couplings_.size(); ++e) {
                const double mag = std::hypot(phase_re_[e], phase_im_[e]);
                phase_re_[e] /= mag;
                phase_im_[e] /= mag;
            }
        }
    }

    /** h = H_I x with the coupling values of substep `s`. */
    void
    eval(const Panel &x, int s, const std::vector<double> &delta,
         Panel &h) const
    {
        const int cols = cols_;
        std::fill(h.re.begin(), h.re.end(), 0.0);
        std::fill(h.im.begin(), h.im.end(), 0.0);
        const double *xr = x.re.data();
        const double *xi = x.im.data();
        double *hr = h.re.data();
        double *hi = h.im.data();
        for (size_t e = 0; e < couplings_.size(); ++e) {
            // v_ij = w, v_ji = conj(w).
            const double wr = w_re_[s][e];
            const double wi = w_im_[s][e];
            const double cwi = -wi;
            const size_t i0 =
                static_cast<size_t>(couplings_[e].row) * cols;
            const size_t j0 =
                static_cast<size_t>(couplings_[e].col) * cols;
            for (int c = 0; c < cols; ++c) {
                const double xir = xr[i0 + c];
                const double xii = xi[i0 + c];
                const double xjr = xr[j0 + c];
                const double xji = xi[j0 + c];
                hr[i0 + c] += wr * xjr - wi * xji;
                hi[i0 + c] += wr * xji + wi * xjr;
                hr[j0 + c] += wr * xir - cwi * xii;
                hi[j0 + c] += wr * xii + cwi * xir;
            }
        }
        for (int i = 0; i < dim_; ++i) {
            const double occ = coupler_occ_[i];
            const size_t i0 = static_cast<size_t>(i) * cols;
            for (int c = 0; c < cols; ++c) {
                const double d = delta[c] * occ;
                if (d == 0.0)
                    continue;
                hr[i0 + c] += d * xr[i0 + c];
                hi[i0 + c] += d * xi[i0 + c];
            }
        }
    }

    const std::vector<CouplingEntry> &couplings_;
    const std::vector<double> &coupler_occ_;
    int dim_;
    int cols_;
    double dt_;
    /// Rotor at the step's start time, its half-step and full-step
    /// advances, and the coupling values of the three substeps.
    std::vector<double> phase_re_, phase_im_;
    std::vector<double> half_re_, half_im_;
    std::vector<double> full_re_, full_im_;
    std::vector<double> w_re_[3], w_im_[3];
    size_t steps_ = 0;
    /// h = H_I psi at the four stages (k = -i h), and the stage input.
    Panel k1_, k2_, k3_, k4_, tmp_;
};

} // namespace

PairSimulator::PairSimulator(const PairDeviceParams &params,
                             double coupler_omega_max, SimOptions opts)
    : ham_(params), flux_(coupler_omega_max), opts_(opts)
{
    QBASIS_TRACE_SCOPE("sim.bias");
    const double w_lo =
        std::min(params.qubit_a.omega, params.qubit_b.omega);
    const double w_hi =
        std::max(params.qubit_a.omega, params.qubit_b.omega);
    // Keep the scan window above the coupler two-photon resonance
    // 2 w_c + alpha_c = w_a + w_b, whose hybridization would fool
    // the zero-ZZ search.
    const double two_photon =
        0.5 * (params.qubit_a.omega + params.qubit_b.omega
               - params.coupler.alpha);
    const double scan_lo =
        std::max(w_lo, two_photon) + opts_.bias_margin;

    const ZzBiasResult bias = findZeroZzBias(
        ham_, scan_lo, w_hi - opts_.bias_margin);
    omega_c0_ = bias.omega_c0;
    zz_residual_ = bias.zz_residual;
    phi_dc_ = flux_.fluxForFrequency(omega_c0_);

    dressed_ = dressedComputationalStates(ham_, omega_c0_);
    bare_energies_ = ham_.bareEnergies(omega_c0_);
    couplings_ = ham_.couplings();
    for (auto &e : couplings_) {
        e.energy_gap =
            bare_energies_[e.row] - bare_energies_[e.col];
    }
}

double
PairSimulator::dressedSplitting() const
{
    return std::abs(dressed_.energies[2] - dressed_.energies[1]);
}

double
PairSimulator::driveDelta(double xi, double omega_d, double t) const
{
    const double phi = phi_dc_ + xi * std::sin(omega_d * t);
    return flux_.frequency(phi) - omega_c0_;
}

std::vector<double>
PairSimulator::swapTransferScores(double xi,
                                  const std::vector<double> &omegas,
                                  double duration_ns, double dt) const
{
    const int dim = ham_.dim();
    const int cols = static_cast<int>(omegas.size());
    std::vector<double> best(omegas.size(), 0.0);
    Rk4Panel rk4(couplings_, ham_.couplerOccupation(), dim, cols, dt);

    // Every column starts in the dressed |01> state.
    Panel psi(dim, cols);
    for (int i = 0; i < dim; ++i) {
        for (int c = 0; c < cols; ++c) {
            psi.re[i * cols + c] = dressed_.vectors(i, 1).real();
            psi.im[i * cols + c] = dressed_.vectors(i, 1).imag();
        }
    }

    // Conjugated dressed |10> bra, for the transfer projection.
    std::vector<double> bra_re(dim), bra_im(dim);
    for (int i = 0; i < dim; ++i) {
        bra_re[i] = dressed_.vectors(i, 2).real();
        bra_im[i] = -dressed_.vectors(i, 2).imag();
    }

    // Drive detuning per column at t, t + dt/2 and t + dt; the
    // value at t + dt is the next step's value at t.
    std::vector<double> d0(cols), d1(cols), d2(cols);
    for (int c = 0; c < cols; ++c)
        d0[c] = driveDelta(xi, omegas[c], 0.0);
    std::vector<double> ov_re(cols), ov_im(cols);
    const int steps =
        static_cast<int>(std::ceil(duration_ns / dt));
    double t = 0.0;
    for (int s = 0; s < steps; ++s) {
        for (int c = 0; c < cols; ++c) {
            d1[c] = driveDelta(xi, omegas[c], t + 0.5 * dt);
            d2[c] = driveDelta(xi, omegas[c], t + dt);
        }
        rk4.step(psi, d0, d1, d2);
        t += dt;
        std::swap(d0, d2);

        // Projection onto the (bare-phase-rotating) target: the
        // interaction picture keeps populations directly comparable.
        std::fill(ov_re.begin(), ov_re.end(), 0.0);
        std::fill(ov_im.begin(), ov_im.end(), 0.0);
        for (int i = 0; i < dim; ++i) {
            const double br = bra_re[i];
            const double bi = bra_im[i];
            for (int c = 0; c < cols; ++c) {
                const double xr = psi.re[i * cols + c];
                const double xim = psi.im[i * cols + c];
                ov_re[c] += br * xr - bi * xim;
                ov_im[c] += br * xim + bi * xr;
            }
        }
        for (int c = 0; c < cols; ++c) {
            best[c] = std::max(best[c],
                               ov_re[c] * ov_re[c] + ov_im[c] * ov_im[c]);
        }
    }
    return best;
}

double
PairSimulator::calibrateDriveFrequency(double xi) const
{
    QBASIS_TRACE_SCOPE("sim.drive_freq");
    const double center = dressedSplitting();
    double best_w = center;
    double best_score = -1.0;

    // The transfer probe needs roughly half a swap period; the swap
    // rate grows linearly with the amplitude, so strong drives can
    // use much shorter probes.
    const double probe_ns =
        xi > 1e-6
            ? std::min(opts_.probe_duration, 0.9 / xi + 20.0)
            : opts_.probe_duration;

    // One panel per pass, one column per probed frequency; the first
    // frequency with the highest score wins.
    auto scan = [&](double lo, double hi, int points) {
        std::vector<double> omegas(points);
        for (int i = 0; i < points; ++i)
            omegas[i] = lo + (hi - lo) * i / std::max(points - 1, 1);
        const std::vector<double> scores =
            swapTransferScores(xi, omegas, probe_ns, opts_.probe_dt);
        for (int i = 0; i < points; ++i) {
            if (scores[i] > best_score) {
                best_score = scores[i];
                best_w = omegas[i];
            }
        }
    };

    scan(center - opts_.drive_scan_span,
         center + opts_.drive_scan_span, opts_.drive_scan_points);
    // Two refinement passes around the running winner; the final
    // resolution must resolve detunings small compared to the
    // effective coupling J to land full population transfer.
    const double span2 =
        2.0 * opts_.drive_scan_span / (opts_.drive_scan_points - 1);
    scan(best_w - span2, best_w + span2, 9);
    const double span3 = span2 / 4.0;
    scan(best_w - span3, best_w + span3, 9);
    return best_w;
}

Trajectory
PairSimulator::simulateTrajectory(double xi, double omega_d,
                                  double max_ns) const
{
    QBASIS_TRACE_SCOPE("sim.trajectory");
    const int dim = ham_.dim();
    const int cols = 4;
    const double dt = opts_.dt;
    Rk4Panel rk4(couplings_, ham_.couplerOccupation(), dim, cols, dt);

    // Panel initialized with the dressed computational columns.
    Panel psi(dim, cols);
    for (int i = 0; i < dim; ++i) {
        for (int c = 0; c < cols; ++c) {
            psi.re[i * cols + c] = dressed_.vectors(i, c).real();
            psi.im[i * cols + c] = dressed_.vectors(i, c).imag();
        }
    }

    Trajectory traj;
    std::vector<Complex> lab_phase(dim);

    auto sampleGate = [&](double t) {
        // G_kl = e^{i E~_k t} sum_i conj(V(i,k)) e^{-i E_i t} P(i,l).
        for (int i = 0; i < dim; ++i)
            lab_phase[i] = std::exp(Complex(0.0, -bare_energies_[i] * t));
        Mat4 g;
        for (int k = 0; k < 4; ++k) {
            const Complex frame =
                std::exp(Complex(0.0, dressed_.energies[k] * t));
            for (int l = 0; l < 4; ++l) {
                Complex s{};
                for (int i = 0; i < dim; ++i) {
                    const Complex lab =
                        lab_phase[i]
                        * Complex(psi.re[i * cols + l],
                                  psi.im[i * cols + l]);
                    s += std::conj(dressed_.vectors(i, k)) * lab;
                }
                g(k, l) = frame * s;
            }
        }
        double max_leak = 0.0;
        for (int l = 0; l < 4; ++l) {
            double col_norm = 0.0;
            for (int k = 0; k < 4; ++k)
                col_norm += std::norm(g(k, l));
            max_leak = std::max(max_leak, 1.0 - col_norm);
        }
        TrajectoryPoint pt;
        pt.duration = t;
        pt.unitary = nearestUnitary4(g);
        pt.coords = cartanCoords(pt.unitary);
        pt.leakage = std::max(max_leak, 0.0);
        traj.append(std::move(pt));
    };

    sampleGate(0.0);
    // Every column sees the same drive; the detuning at t + dt is
    // the next step's detuning at t.
    std::vector<double> d0(cols, driveDelta(xi, omega_d, 0.0));
    std::vector<double> d1(cols), d2(cols);
    const int steps = static_cast<int>(std::ceil(max_ns / dt));
    double t = 0.0;
    double next_sample = opts_.sample_dt;
    for (int s = 0; s < steps; ++s) {
        std::fill(d1.begin(), d1.end(),
                  driveDelta(xi, omega_d, t + 0.5 * dt));
        std::fill(d2.begin(), d2.end(), driveDelta(xi, omega_d, t + dt));
        rk4.step(psi, d0, d1, d2);
        t += dt;
        std::swap(d0, d2);
        if (t + 1e-9 >= next_sample) {
            sampleGate(t);
            next_sample += opts_.sample_dt;
        }
    }
    return traj;
}

} // namespace qbasis

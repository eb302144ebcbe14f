#ifndef QBASIS_TESTS_SIM_REFERENCE_HPP
#define QBASIS_TESTS_SIM_REFERENCE_HPP

/**
 * @file
 * Reference pulse simulator for the split-complex bit-identity
 * tests: the std::complex<double> RK4 (one probe frequency per run,
 * and the four-column trajectory) and the std::complex Jacobi
 * rotation loop, exactly as the library computed them before its
 * inner loops moved to split re/im arithmetic. Everything is rebuilt
 * from PairSimulator's public state, so the library's results must
 * match these bit for bit.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "linalg/eig_herm.hpp"
#include "linalg/polar.hpp"
#include "sim/propagator.hpp"
#include "weyl/cartan.hpp"

namespace qbasis {

/** k = -i H_I(t) psi with per-coupling phase rotors, std::complex. */
class ReferenceRhs
{
  public:
    ReferenceRhs(const std::vector<CouplingEntry> &couplings,
                 const std::vector<double> &coupler_occ, int dim,
                 int cols, double dt)
        : couplings_(couplings), coupler_occ_(coupler_occ), dim_(dim),
          cols_(cols)
    {
        phase_.resize(couplings.size());
        half_step_.resize(couplings.size());
        for (size_t e = 0; e < couplings.size(); ++e) {
            phase_[e] = Complex(1.0, 0.0);
            half_step_[e] = std::exp(
                Complex(0.0, couplings[e].energy_gap * dt * 0.5));
        }
    }

    void
    eval(const std::vector<Complex> &psi, int substep,
         double drive_delta, std::vector<Complex> &out) const
    {
        std::fill(out.begin(), out.end(), Complex{});
        for (size_t e = 0; e < couplings_.size(); ++e) {
            Complex ph = phase_[e];
            if (substep == 1)
                ph *= half_step_[e];
            else if (substep == 2)
                ph *= half_step_[e] * half_step_[e];
            const int i = couplings_[e].row;
            const int j = couplings_[e].col;
            const Complex vij = couplings_[e].value * ph;
            const Complex vji = std::conj(vij);
            for (int c = 0; c < cols_; ++c) {
                out[i * cols_ + c] += vij * psi[j * cols_ + c];
                out[j * cols_ + c] += vji * psi[i * cols_ + c];
            }
        }
        if (drive_delta != 0.0) {
            for (int i = 0; i < dim_; ++i) {
                const double d = drive_delta * coupler_occ_[i];
                if (d == 0.0)
                    continue;
                for (int c = 0; c < cols_; ++c)
                    out[i * cols_ + c] += d * psi[i * cols_ + c];
            }
        }
        for (auto &v : out)
            v = Complex(v.imag(), -v.real());
    }

    void
    advance()
    {
        for (size_t e = 0; e < phase_.size(); ++e)
            phase_[e] *= half_step_[e] * half_step_[e];
        if (++steps_ % 8192 == 0) {
            for (auto &p : phase_)
                p /= std::abs(p);
        }
    }

  private:
    const std::vector<CouplingEntry> &couplings_;
    const std::vector<double> &coupler_occ_;
    int dim_;
    int cols_;
    std::vector<Complex> phase_;
    std::vector<Complex> half_step_;
    size_t steps_ = 0;
};

/** The simulator's state, rebuilt from its public accessors. */
struct ReferenceSim
{
    ReferenceSim(const PairSimulator &sim, double coupler_omega_max)
        : sim(sim), flux(coupler_omega_max),
          bare(sim.hamiltonian().bareEnergies(sim.omegaC0())),
          couplings(sim.hamiltonian().couplings())
    {
        for (auto &e : couplings)
            e.energy_gap = bare[e.row] - bare[e.col];
    }

    double
    driveDelta(double xi, double omega_d, double t) const
    {
        const double phi = sim.phiDc() + xi * std::sin(omega_d * t);
        return flux.frequency(phi) - sim.omegaC0();
    }

    /** One RK4 step of `psi` (dim x cols) from t. */
    void
    step(ReferenceRhs &rhs, std::vector<Complex> &psi, double xi,
         double omega_d, double t, double dt) const
    {
        const size_t n = psi.size();
        std::vector<Complex> k1(n), k2(n), k3(n), k4(n), tmp(n);
        rhs.eval(psi, 0, driveDelta(xi, omega_d, t), k1);
        for (size_t i = 0; i < n; ++i)
            tmp[i] = psi[i] + 0.5 * dt * k1[i];
        rhs.eval(tmp, 1, driveDelta(xi, omega_d, t + 0.5 * dt), k2);
        for (size_t i = 0; i < n; ++i)
            tmp[i] = psi[i] + 0.5 * dt * k2[i];
        rhs.eval(tmp, 1, driveDelta(xi, omega_d, t + 0.5 * dt), k3);
        for (size_t i = 0; i < n; ++i)
            tmp[i] = psi[i] + dt * k3[i];
        rhs.eval(tmp, 2, driveDelta(xi, omega_d, t + dt), k4);
        for (size_t i = 0; i < n; ++i) {
            psi[i] += dt / 6.0
                      * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
        rhs.advance();
    }

    /** Single-frequency population-swapping probe. */
    double
    swapTransferScore(double xi, double omega_d, double duration_ns,
                      double dt) const
    {
        const int dim = sim.hamiltonian().dim();
        ReferenceRhs rhs(couplings,
                         sim.hamiltonian().couplerOccupation(), dim, 1,
                         dt);
        std::vector<Complex> psi(dim), target(dim);
        for (int i = 0; i < dim; ++i) {
            psi[i] = sim.dressed().vectors(i, 1);
            target[i] = sim.dressed().vectors(i, 2);
        }
        const int steps =
            static_cast<int>(std::ceil(duration_ns / dt));
        double best = 0.0;
        double t = 0.0;
        for (int s = 0; s < steps; ++s) {
            step(rhs, psi, xi, omega_d, t, dt);
            t += dt;
            Complex ov{};
            for (int i = 0; i < dim; ++i)
                ov += std::conj(target[i]) * psi[i];
            best = std::max(best, std::norm(ov));
        }
        return best;
    }

    /** Coarse + two refinement scans, one probe per frequency. */
    double
    calibrateDriveFrequency(double xi) const
    {
        const SimOptions &opts = sim.options();
        const double center = sim.dressedSplitting();
        double best_w = center;
        double best_score = -1.0;
        const double probe_ns =
            xi > 1e-6 ? std::min(opts.probe_duration, 0.9 / xi + 20.0)
                      : opts.probe_duration;
        auto scan = [&](double lo, double hi, int points) {
            for (int i = 0; i < points; ++i) {
                const double w =
                    lo + (hi - lo) * i / std::max(points - 1, 1);
                const double score =
                    swapTransferScore(xi, w, probe_ns, opts.probe_dt);
                if (score > best_score) {
                    best_score = score;
                    best_w = w;
                }
            }
        };
        scan(center - opts.drive_scan_span,
             center + opts.drive_scan_span, opts.drive_scan_points);
        const double span2 =
            2.0 * opts.drive_scan_span / (opts.drive_scan_points - 1);
        scan(best_w - span2, best_w + span2, 9);
        const double span3 = span2 / 4.0;
        scan(best_w - span3, best_w + span3, 9);
        return best_w;
    }

    /** Four-column trajectory, sampled every sample_dt ns. */
    Trajectory
    trajectory(double xi, double omega_d, double max_ns) const
    {
        const int dim = sim.hamiltonian().dim();
        const int cols = 4;
        const SimOptions &opts = sim.options();
        const double dt = opts.dt;
        const DressedStates &dressed = sim.dressed();
        ReferenceRhs rhs(couplings,
                         sim.hamiltonian().couplerOccupation(), dim,
                         cols, dt);
        std::vector<Complex> psi(dim * cols);
        for (int i = 0; i < dim; ++i)
            for (int c = 0; c < cols; ++c)
                psi[i * cols + c] = dressed.vectors(i, c);

        Trajectory traj;
        auto sampleGate = [&](double t) {
            Mat4 g;
            for (int k = 0; k < 4; ++k) {
                const Complex frame =
                    std::exp(Complex(0.0, dressed.energies[k] * t));
                for (int l = 0; l < 4; ++l) {
                    Complex s{};
                    for (int i = 0; i < dim; ++i) {
                        const Complex lab =
                            std::exp(Complex(0.0, -bare[i] * t))
                            * psi[i * cols + l];
                        s += std::conj(dressed.vectors(i, k)) * lab;
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
        const int steps = static_cast<int>(std::ceil(max_ns / dt));
        double t = 0.0;
        double next_sample = opts.sample_dt;
        for (int s = 0; s < steps; ++s) {
            step(rhs, psi, xi, omega_d, t, dt);
            t += dt;
            if (t + 1e-9 >= next_sample) {
                sampleGate(t);
                next_sample += opts.sample_dt;
            }
        }
        return traj;
    }

    const PairSimulator &sim;
    FluxCurve flux;
    std::vector<double> bare;
    std::vector<CouplingEntry> couplings;
};

/** Cyclic complex Jacobi with std::complex plane rotations. */
inline HermEig
referenceJacobiEigHerm(const CMat &h_in, double tol = 1e-13)
{
    const size_t n = h_in.rows();
    CMat a(n, n);
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j < n; ++j)
            a(i, j) = 0.5 * (h_in(i, j) + std::conj(h_in(j, i)));

    CMat v = CMat::identity(n);
    const double scale = std::max(a.frobeniusNorm(), 1e-300);
    for (int sweep = 0; sweep < 100; ++sweep) {
        double off = 0.0;
        for (size_t i = 0; i < n; ++i)
            for (size_t j = i + 1; j < n; ++j)
                off += std::norm(a(i, j));
        if (std::sqrt(2.0 * off) <= tol * scale)
            break;
        for (size_t p = 0; p < n; ++p) {
            for (size_t q = p + 1; q < n; ++q) {
                const Complex apq = a(p, q);
                const double mag = std::abs(apq);
                if (mag <= 1e-300)
                    continue;
                const double app = a(p, p).real();
                const double aqq = a(q, q).real();
                const Complex phase = apq / mag;
                const double theta = 0.5 * (aqq - app) / mag;
                const double t =
                    (theta >= 0.0 ? 1.0 : -1.0)
                    / (std::abs(theta)
                       + std::sqrt(theta * theta + 1.0));
                const double c = 1.0 / std::sqrt(t * t + 1.0);
                const double s = t * c;
                const Complex sp = s * phase;
                for (size_t k = 0; k < n; ++k) {
                    const Complex akp = a(k, p);
                    const Complex akq = a(k, q);
                    a(k, p) = c * akp - std::conj(sp) * akq;
                    a(k, q) = sp * akp + c * akq;
                }
                for (size_t k = 0; k < n; ++k) {
                    const Complex apk = a(p, k);
                    const Complex aqk = a(q, k);
                    a(p, k) = c * apk - sp * aqk;
                    a(q, k) = std::conj(sp) * apk + c * aqk;
                }
                for (size_t k = 0; k < n; ++k) {
                    const Complex vkp = v(k, p);
                    const Complex vkq = v(k, q);
                    v(k, p) = c * vkp - std::conj(sp) * vkq;
                    v(k, q) = sp * vkp + c * vkq;
                }
            }
        }
    }

    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t i, size_t j) {
        return a(i, i).real() < a(j, j).real();
    });
    HermEig out;
    out.values.resize(n);
    out.vectors = CMat(n, n);
    for (size_t c = 0; c < n; ++c) {
        out.values[c] = a(order[c], order[c]).real();
        for (size_t r = 0; r < n; ++r)
            out.vectors(r, c) = v(r, order[c]);
    }
    return out;
}

/** Bitwise equality of two doubles (no tolerance). */
inline bool
bitsEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** Bitwise equality of two eigendecompositions. */
inline bool
eigBitIdentical(const HermEig &a, const HermEig &b)
{
    return a.values.size() == b.values.size()
           && std::memcmp(a.values.data(), b.values.data(),
                          a.values.size() * sizeof(double))
                  == 0
           && a.vectors.rows() == b.vectors.rows()
           && a.vectors.cols() == b.vectors.cols()
           && std::memcmp(a.vectors.data(), b.vectors.data(),
                          a.vectors.rows() * a.vectors.cols()
                              * sizeof(Complex))
                  == 0;
}

/** Bitwise equality of two trajectories, point by point. */
inline bool
trajectoriesBitIdentical(const Trajectory &a, const Trajectory &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        const TrajectoryPoint &x = a.at(i);
        const TrajectoryPoint &y = b.at(i);
        if (!bitsEqual(x.duration, y.duration)
            || !bitsEqual(x.leakage, y.leakage)
            || std::memcmp(x.unitary.data(), y.unitary.data(),
                           16 * sizeof(Complex))
                   != 0
            || !bitsEqual(x.coords.tx, y.coords.tx)
            || !bitsEqual(x.coords.ty, y.coords.ty)
            || !bitsEqual(x.coords.tz, y.coords.tz))
            return false;
    }
    return true;
}

} // namespace qbasis

#endif // QBASIS_TESTS_SIM_REFERENCE_HPP

#include "linalg/eig_herm.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.hpp"

namespace qbasis {

namespace {

/*
 * The rotation updates are std::complex<double> arithmetic written
 * out on the interleaved doubles, operation for operation:
 * (a + ib)(c + id) = (ac - bd) + i(ad + bc), conj(sp) as a negated
 * imaginary part, the real cosine scaling each part. That keeps
 * every result bit-identical to the std::complex code
 * (tests/sim_reference.hpp) without its NaN-recovery branches.
 */

/**
 * Columns p and q of the row-major n x n matrix `m` (interleaved
 * re/im) times the rotation R: m(k,p) <- c m(k,p) - conj(sp) m(k,q),
 * m(k,q) <- sp m(k,p) + c m(k,q).
 */
void
rotateColumns(double *m, size_t n, size_t p, size_t q, double c,
              double spr, double spi)
{
    const double cspi = -spi; // conj(sp)
    for (size_t k = 0; k < n; ++k) {
        double *kp = m + 2 * (k * n + p);
        double *kq = m + 2 * (k * n + q);
        const double pr = kp[0], pi = kp[1];
        const double qr = kq[0], qi = kq[1];
        kp[0] = c * pr - (spr * qr - cspi * qi);
        kp[1] = c * pi - (spr * qi + cspi * qr);
        kq[0] = (spr * pr - spi * pi) + c * qr;
        kq[1] = (spr * pi + spi * pr) + c * qi;
    }
}

} // namespace

HermEig
jacobiEigHerm(const CMat &h_in, double tol)
{
    const size_t n = h_in.rows();
    if (h_in.cols() != n)
        panic("jacobiEigHerm requires a square matrix");

    CMat a(n, n);
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j < n; ++j)
            a(i, j) = 0.5 * (h_in(i, j) + std::conj(h_in(j, i)));

    CMat v = CMat::identity(n);
    // A std::complex<double> array may be accessed as interleaved
    // re/im doubles ([complex.numbers]).
    double *ad = reinterpret_cast<double *>(a.data());
    double *vd = reinterpret_cast<double *>(v.data());
    const double scale = std::max(a.frobeniusNorm(), 1e-300);

    const int max_sweeps = 100;
    for (int sweep = 0; sweep < max_sweeps; ++sweep) {
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
                // Phase that makes the pivot real, then a real
                // Jacobi rotation on the phased pair.
                const Complex phase = apq / mag;
                const double theta = 0.5 * (aqq - app) / mag;
                const double t =
                    (theta >= 0.0 ? 1.0 : -1.0)
                    / (std::abs(theta)
                       + std::sqrt(theta * theta + 1.0));
                const double c = 1.0 / std::sqrt(t * t + 1.0);
                const double s = t * c;
                const Complex sp = s * phase;

                const double spr = sp.real();
                const double spi = sp.imag();
                rotateColumns(ad, n, p, q, c, spr, spi); // A <- A * R
                // Rows update: A <- R^dag * A
                double *rp = ad + 2 * (p * n);
                double *rq = ad + 2 * (q * n);
                const double cspi = -spi; // conj(sp)
                for (size_t k = 0; k < n; ++k) {
                    const double pr = rp[2 * k], pi = rp[2 * k + 1];
                    const double qr = rq[2 * k], qi = rq[2 * k + 1];
                    rp[2 * k] = c * pr - (spr * qr - spi * qi);
                    rp[2 * k + 1] = c * pi - (spr * qi + spi * qr);
                    rq[2 * k] = (spr * pr - cspi * pi) + c * qr;
                    rq[2 * k + 1] = (spr * pi + cspi * pr) + c * qi;
                }
                rotateColumns(vd, n, p, q, c, spr, spi); // V <- V * R
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

} // namespace qbasis

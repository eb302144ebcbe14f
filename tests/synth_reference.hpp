#ifndef QBASIS_TESTS_SYNTH_REFERENCE_HPP
#define QBASIS_TESTS_SYNTH_REFERENCE_HPP

/**
 * @file
 * Reference synthesis for the engine parity tests: every distinct
 * Weyl class synthesized directly with synthesizeGate() on its class
 * gate, then re-dressed for each target. A SynthEngine batch must
 * match it bit for bit, with cache misses = distinct classes and
 * hits = lookups - misses.
 */

#include <cstring>
#include <map>
#include <vector>

#include "synth/engine.hpp"

namespace qbasis {

/** Directly synthesized class decompositions, keyed like the cache. */
using ReferenceClasses =
    std::map<DecompositionCache::ClassKey, TwoQubitDecomposition>;

/** Reference decomposition of every request, in request order;
 *  classes not yet in `classes` are synthesized and added. */
inline std::vector<TwoQubitDecomposition>
referenceSynthesis(const std::vector<SynthRequest> &requests,
                   const SynthOptions &opts, ReferenceClasses *classes)
{
    std::vector<TwoQubitDecomposition> out;
    for (const SynthRequest &req : requests) {
        const CanonicalKak kak = canonicalKakDecompose(req.target);
        const DecompositionCache::ClassKey key =
            DecompositionCache::classKey(kak.coords, req.basis, opts);
        auto it = classes->find(key);
        if (it == classes->end()) {
            it = classes
                     ->emplace(key, synthesizeGate(
                                        DecompositionCache::classGate(key),
                                        req.basis, opts))
                     .first;
        }
        out.push_back(DecompositionCache::dressClassDecomposition(
            it->second, kak, req.target));
    }
    return out;
}

/** Bitwise equality of two decompositions (no tolerance). */
inline bool
decompositionsBitIdentical(const TwoQubitDecomposition &a,
                           const TwoQubitDecomposition &b)
{
    const auto same = [](const Complex &x, const Complex &y) {
        return std::memcmp(&x, &y, sizeof(Complex)) == 0;
    };
    if (a.layers() != b.layers() || a.locals.size() != b.locals.size()
        || a.infidelity != b.infidelity || !same(a.phase, b.phase))
        return false;
    for (size_t l = 0; l < a.locals.size(); ++l) {
        for (int r = 0; r < 2; ++r) {
            for (int c = 0; c < 2; ++c) {
                if (!same(a.locals[l].q1(r, c), b.locals[l].q1(r, c))
                    || !same(a.locals[l].q0(r, c), b.locals[l].q0(r, c)))
                    return false;
            }
        }
    }
    return true;
}

} // namespace qbasis

#endif // QBASIS_TESTS_SYNTH_REFERENCE_HPP

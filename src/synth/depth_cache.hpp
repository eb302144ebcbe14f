#ifndef QBASIS_SYNTH_DEPTH_CACHE_HPP
#define QBASIS_SYNTH_DEPTH_CACHE_HPP

/**
 * @file
 * Process-wide cache of predictDepth() verdicts.
 *
 * The depth oracle is itself a multistart Nelder-Mead search, and
 * before this cache it reran once per class job -- every engine batch
 * and every serial synthesizeGate() paid the full oracle ladder even
 * when the (target class, basis, options) triple had been decided
 * before. Verdicts are pure functions of that triple, so they are
 * cached under a key of (basis hash + oracle-options hash +
 * max_layers, exact canonical-coordinate bit patterns).
 *
 * Exact-bits coordinates (rather than the decomposition cache's
 * 1e-8 bins) keep the verdict namespace collision-free: predictDepth
 * branches on 1e-9 tolerances, so two *distinct* gates sharing a
 * coarse bin near a region boundary could legitimately receive
 * different verdicts, and letting the first writer decide for both
 * would make results depend on population order. The recurrences
 * that matter -- the same class gate resubmitted across batches,
 * devices, and calibration cycles -- are byte-identical matrices
 * with byte-identical coordinates, so exact keying loses none of
 * them.
 *
 * In-flight dedupe mirrors DecompositionCache: the first
 * client to miss computes the verdict outside the lock while
 * concurrent clients for the same key wait on the condition
 * variable. Waiting inside pool workers is safe because the owner is
 * compute-bound (it never blocks on pool tasks). Counters are
 * deterministic: misses() equals the number of distinct keys.
 */

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>

#include "monodromy/oracle.hpp"

namespace qbasis {

/** Shared verdict cache for the analytic/numerical depth oracle. */
class DepthOracleCache
{
  public:
    /**
     * Cached predictDepth(): same contract (0 = local target,
     * max_layers + 1 = infeasible within the cap), computed at most
     * once per (basis, options, target class) triple per process.
     */
    int predict(const Mat4 &target, const Mat4 &basis, int max_layers,
                const OracleOptions &opts);

    uint64_t hits() const;
    uint64_t misses() const;

    /** Stored verdicts. */
    size_t size() const;

    /** Drop everything (tests). No predict() may be in flight. */
    void clear();

    /** Process-wide instance shared by the engine and serial paths. */
    static DepthOracleCache &shared();

  private:
    /** (context hash, coordinate bit patterns). */
    struct Key
    {
        uint64_t context;
        int64_t bx, by, bz;

        bool
        operator<(const Key &o) const
        {
            if (context != o.context)
                return context < o.context;
            if (bx != o.bx)
                return bx < o.bx;
            if (by != o.by)
                return by < o.by;
            return bz != o.bz ? bz < o.bz : false;
        }
    };

    struct Entry
    {
        bool ready = false;
        int depth = 0;
    };

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::map<Key, Entry> entries_;
    uint64_t hits_ = 0;   ///< Guarded by mutex_.
    uint64_t misses_ = 0; ///< Guarded by mutex_.
};

} // namespace qbasis

#endif // QBASIS_SYNTH_DEPTH_CACHE_HPP

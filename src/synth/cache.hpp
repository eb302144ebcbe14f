#ifndef QBASIS_SYNTH_CACHE_HPP
#define QBASIS_SYNTH_CACHE_HPP

/**
 * @file
 * Per-calibration-cycle decomposition cache (paper Section VII),
 * keyed on Weyl equivalence classes.
 *
 * Synthesis cost depends on the target gate only through its
 * canonical Cartan (Weyl-chamber) coordinates: if T and T' are
 * locally equivalent, a decomposition of one differs from the other
 * only in the outermost single-qubit layers. The cache therefore
 * stores one synthesized decomposition per
 *   (basis gate, synthesis options, quantized canonical coordinates)
 * class -- the decomposition of the canonical gate CAN(c) itself --
 * and re-dresses it per target with the exact local factors from
 * canonicalKakDecompose(). All CPhase(theta) instances recurring
 * across QFT/QAOA edges, both orientations of every gate, and any
 * locally-dressed variant hit the same cache line.
 *
 * Folding the basis gate and options into the key also fixes the
 * stale-decomposition bug the raw (edge, target-hash) key had: after
 * a drift/recalibration cycle changes an edge's basis gate, lookups
 * miss instead of silently returning decompositions for the old
 * basis.
 *
 * Sharing: the cache is thread-safe, and one instance may serve
 * every device of a fleet. Identical bases on *different* devices
 * collapse onto one cache line, so fleet compilation dedupes across
 * shards instead of paying an N-device cost multiplier. A caller
 * that wants a private cache simply owns an unshared instance. The
 * map is striped -- each stripe owns a mutex, a condition variable,
 * and a node-based map -- so concurrent clients contend only when
 * they touch the same stripe.
 *
 * In-flight dedupe: the first client to miss a class *claims* it
 * (Claim::Owner) and must publish() the synthesized decomposition (or
 * abandon() it on error). Clients that request the class while the
 * owner is still synthesizing get Claim::Pending and block in wait()
 * instead of re-synthesizing -- a class is synthesized exactly once
 * per cache no matter how many clients race on it.
 *
 * Determinism: synthesis is a pure function of (class gate, basis,
 * options) with derived RNG streams, so whichever client wins the
 * claim publishes bit-identical bytes; results therefore do not
 * depend on client count or scheduling. Counters are deterministic
 * too: misses() equals the number of distinct classes and hits()
 * equals lookups minus misses regardless of claim order. Cross-device
 * statistics are defined against each class's lowest-numbered device
 * (not the racy claim winner) so they are schedule-independent as
 * well.
 *
 * Pointer stability: published decompositions live in map nodes and
 * stay valid until clear(); clear() must not run while any batch is
 * in flight.
 */

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "synth/numerical.hpp"
#include "weyl/kak.hpp"

namespace qbasis {

/** Striped-lock cache of Weyl class -> decomposition of the
 *  canonical gate. */
class DecompositionCache
{
  public:
    /** Identifier of one synthesis equivalence class. */
    struct ClassKey
    {
        uint64_t context; ///< Basis-gate (+) synthesis-options hash.
        int64_t qx, qy, qz; ///< Canonical coords / kCoordQuantum.

        bool
        operator<(const ClassKey &o) const
        {
            if (context != o.context)
                return context < o.context;
            if (qx != o.qx)
                return qx < o.qx;
            if (qy != o.qy)
                return qy < o.qy;
            return qz != o.qz ? qz < o.qz : false;
        }
    };

    /**
     * Gate-matrix hashing resolution of hashGate(): entries are
     * quantized to this step before hashing, so hashes are stable
     * against sub-resolution rounding noise. Recorded in cache
     * snapshots (synth/cache_io) -- a snapshot hashed at a different
     * resolution must not be merged.
     */
    static constexpr double kGateHashQuantum = 1e-9;

    /**
     * Canonical-coordinate quantization step for class keys. The
     * class decomposition is synthesized for CAN at the *quantized*
     * coordinates, so re-dressing a target whose exact coordinates
     * sit anywhere in the bin adds at most O(kCoordQuantum^2) ~ 1e-16
     * trace infidelity -- far below every synthesis tolerance used
     * here. (Targets jittering across a bin edge merely synthesize
     * twice; correctness is unaffected.)
     */
    static constexpr double kCoordQuantum = 1e-8;

    // -- Key vocabulary ---------------------------------------------

    /** Key of the class with the given canonical coordinates. */
    static ClassKey classKey(const CartanCoords &canonical,
                             const Mat4 &basis,
                             const SynthOptions &opts);

    /** The canonical gate CAN(c) at the key's quantized coords. */
    static Mat4 classGate(const ClassKey &key);

    /**
     * Re-dress a class decomposition for a concrete target:
     * graft the target's KAK local factors onto the outermost local
     * layers and recompute phase + exact infidelity against `target`.
     */
    static TwoQubitDecomposition dressClassDecomposition(
        const TwoQubitDecomposition &cls, const CanonicalKak &kak,
        const Mat4 &target);

    /**
     * Content hash of a gate matrix (entries quantized to 1e-9);
     * gates must be bitwise-stable across calls to hit the cache.
     */
    static uint64_t hashGate(const Mat4 &m);

    /** Content hash of the synthesis options that affect results. */
    static uint64_t hashOptions(const SynthOptions &opts);

    /**
     * Context half of the class key: the combined (basis gate,
     * synthesis options) hash shared by every Weyl class synthesized
     * against them. Cache retirement refcounts these against the
     * fleet's live calibrations (see appendLiveContexts()).
     */
    static uint64_t contextHash(const Mat4 &basis,
                                const SynthOptions &opts);

    // -- Claim protocol (used by SynthEngine) -----------------------

    /** Outcome of an acquire() call. */
    enum class Claim
    {
        Ready,   ///< Published; *out points at the decomposition.
        Owner,   ///< Caller claimed the class: publish() or abandon().
        Pending, ///< Another client is synthesizing: wait().
    };

    /**
     * Look up (or claim) a class on behalf of `device`, crediting
     * `lookups` batched requests that collapse onto it (hit/miss
     * counters advance as if the requests were looked up serially:
     * one miss for a claim, hits for everything else).
     */
    Claim acquire(const ClassKey &key, int device, uint64_t lookups,
                  const TwoQubitDecomposition **out);

    /**
     * Publish the owner's synthesized class; wakes every waiter.
     * Returns the stable in-cache pointer.
     */
    const TwoQubitDecomposition *publish(const ClassKey &key,
                                         TwoQubitDecomposition dec);

    /**
     * Give up a claim without publishing (synthesis threw). Waiters
     * wake with nullptr and re-acquire; one of them becomes the new
     * owner.
     */
    void abandon(const ClassKey &key);

    /**
     * Block until `key` is published (crediting `lookups` hits), or
     * return nullptr if the owner abandoned it -- the caller should
     * then re-acquire. Must only be called after Claim::Pending.
     */
    const TwoQubitDecomposition *wait(const ClassKey &key,
                                      uint64_t lookups);

    /**
     * Plan-replay lookup: the published decomposition of `key`, or
     * nullptr if the class is absent or still being synthesized.
     * Credits NO hit/miss counters and no per-device lookups -- the
     * plan tier does its own accounting (PlanCache::Stats), so the
     * Weyl-tier hit-rate semantics (bench_persist warm rates, fleet
     * cross-device rates) are unchanged by plan traffic. Pointer
     * validity follows the same rules as acquire(): stable until
     * clear()/retireExcept(), which must not run concurrently.
     */
    const TwoQubitDecomposition *peekPublished(const ClassKey &key)
        const;

    // -- Statistics -------------------------------------------------

    /** Aggregate statistics (scans all stripes). */
    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        size_t classes = 0;
        /** Classes looked up by two or more distinct devices. */
        size_t multi_device_classes = 0;
        /**
         * Lookups served to devices other than each class's
         * lowest-numbered device -- the work the fleet did NOT
         * re-synthesize thanks to cross-device sharing. Deterministic
         * by construction (independent of which device won the
         * claim).
         */
        uint64_t cross_device_hits = 0;

        double
        hitRate() const
        {
            const uint64_t total = hits + misses;
            return total > 0 ? static_cast<double>(hits)
                                   / static_cast<double>(total)
                             : 0.0;
        }

        double
        crossDeviceHitRate() const
        {
            const uint64_t total = hits + misses;
            return total > 0 ? static_cast<double>(cross_device_hits)
                                   / static_cast<double>(total)
                             : 0.0;
        }
    };

    Stats stats() const;

    /** Lookups served from an existing (or in-flight) class. */
    uint64_t hits() const { return hits_.load(); }

    /** Classes claimed for synthesis (one per distinct class). */
    uint64_t misses() const { return misses_.load(); }

    /** Published classes across all stripes. */
    size_t size() const;

    /** Drop everything (start of a new calibration cycle). No batch
     *  may be in flight. */
    void clear();

    // -- Persistence + retirement (synth/cache_io, core/fleet) ------

    /**
     * Snapshot every *published* class, sorted by key -- the input of
     * the serializer (sorting makes snapshot bytes a pure function of
     * the entry set). Claimed-but-unpublished classes are skipped:
     * their owner publishes the same bytes later anyway.
     */
    std::vector<std::pair<ClassKey, TwoQubitDecomposition>>
    exportEntries() const;

    /**
     * Visit every published class under the stripe locks, without
     * copying decompositions -- manifest accounting (live/dead
     * counts, encoded-size sums) at O(1) extra memory. `fn` must not
     * reenter the cache. Visit order is stripe-interleaved, not
     * key-sorted.
     */
    void forEachPublished(
        const std::function<void(const ClassKey &,
                                 const TwoQubitDecomposition &)> &fn)
        const;

    /**
     * Merge one deserialized class into the cache. Returns true when
     * inserted; an entry already present -- published, or claimed by
     * an in-flight owner -- wins and the loaded copy is dropped
     * (published entries are pure functions of the key, so the owner
     * converges on the same bytes). Loaded entries advance neither
     * the hit nor the miss counter: warm hit rates measure lookups,
     * not loads.
     */
    bool insertLoaded(const ClassKey &key, TwoQubitDecomposition dec);

    /**
     * Epoch-sweep retirement: drop every published class whose
     * key.context is absent from `live_contexts` (sorted ascending;
     * see contextHash and appendLiveContexts()). Returns the number
     * of classes dropped. In-flight claims are never touched, but
     * published-entry pointers held by a running batch would dangle
     * -- like clear(), this must not run while any batch is in
     * flight (the fleet driver runs it between drift cycles, after
     * drainRecalibration()).
     */
    size_t retireExcept(const std::vector<uint64_t> &live_contexts);

  private:
    /** One class entry; lives in a stable map node. */
    struct Entry
    {
        bool ready = false; ///< false while the owner synthesizes.
        TwoQubitDecomposition dec;
        /** Lookup counts per device id (fleets are small). */
        std::vector<std::pair<int, uint64_t>> device_lookups;

        void credit(int device, uint64_t lookups);
    };

    struct Stripe
    {
        mutable std::mutex mutex;
        std::condition_variable cv;
        std::map<ClassKey, Entry> entries;
    };

    Stripe &stripeOf(const ClassKey &key);
    const Stripe &stripeOf(const ClassKey &key) const;

    /** Lock stripes; class keys spread over them by hash. */
    static constexpr size_t kStripes = 16;
    std::array<Stripe, kStripes> stripes_;
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
};

/** The benchmark in qbench/ spells the cache by its pre-merge name. */
using SharedDecompositionCache = DecompositionCache;

/**
 * RAII holder for a Claim::Owner claim. If the claimant unwinds (a
 * synthesis failure, an injected fault) before publishing, the
 * destructor abandons the claim so waiters wake and one of them
 * re-claims -- wait() can never block on a publisher that died.
 * Call release() after a successful publish() to dismiss the guard.
 */
class ClaimGuard
{
  public:
    ClaimGuard() = default;
    ClaimGuard(DecompositionCache *cache,
               const DecompositionCache::ClassKey &key)
        : cache_(cache), key_(key)
    {
    }

    ClaimGuard(const ClaimGuard &) = delete;
    ClaimGuard &operator=(const ClaimGuard &) = delete;

    ClaimGuard(ClaimGuard &&other) noexcept
        : cache_(other.cache_), key_(other.key_)
    {
        other.cache_ = nullptr;
    }

    ClaimGuard &
    operator=(ClaimGuard &&other) noexcept
    {
        if (this != &other) {
            abandonIfHeld();
            cache_ = other.cache_;
            key_ = other.key_;
            other.cache_ = nullptr;
        }
        return *this;
    }

    ~ClaimGuard() { abandonIfHeld(); }

    /** Dismiss the guard (the claim was published or handed off). */
    void release() { cache_ = nullptr; }

    /** True while the guard still owns an unpublished claim. */
    bool held() const { return cache_ != nullptr; }

  private:
    void
    abandonIfHeld()
    {
        if (cache_ != nullptr) {
            cache_->abandon(key_);
            cache_ = nullptr;
        }
    }

    DecompositionCache *cache_ = nullptr;
    DecompositionCache::ClassKey key_{};
};

} // namespace qbasis

#endif // QBASIS_SYNTH_CACHE_HPP

#include "synth/cache.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "weyl/gates.hpp"

namespace qbasis {

namespace {

/** FNV-1a accumulator. */
struct Fnv
{
    uint64_t h = 1469598103934665603ull;

    void
    mix(uint64_t v)
    {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (v >> (8 * byte)) & 0xffull;
            h *= 1099511628211ull;
        }
    }

    void
    mixDouble(double v)
    {
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v), "double width");
        std::memcpy(&bits, &v, sizeof(bits));
        mix(bits);
    }
};

/** Spread the class key over the stripes (splitmix derivation). */
uint64_t
hashKey(const DecompositionCache::ClassKey &key)
{
    uint64_t h =
        Rng::deriveSeed(key.context, static_cast<uint64_t>(key.qx));
    h = Rng::deriveSeed(h, static_cast<uint64_t>(key.qy));
    return Rng::deriveSeed(h, static_cast<uint64_t>(key.qz));
}

} // namespace

uint64_t
DecompositionCache::hashGate(const Mat4 &m)
{
    // FNV-1a over quantized entries; quantization makes hashes stable
    // against sub-1e-9 rounding differences.
    Fnv f;
    const double scale = 1.0 / kGateHashQuantum;
    for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
            f.mix(static_cast<uint64_t>(
                std::llround(m(i, j).real() * scale)));
            f.mix(static_cast<uint64_t>(
                std::llround(m(i, j).imag() * scale)));
        }
    }
    return f.h;
}

uint64_t
DecompositionCache::hashOptions(const SynthOptions &opts)
{
    Fnv f;
    f.mix(static_cast<uint64_t>(opts.max_layers));
    f.mixDouble(opts.target_infidelity);
    f.mix(static_cast<uint64_t>(opts.restarts));
    f.mix(static_cast<uint64_t>(opts.adam_iters));
    f.mix(static_cast<uint64_t>(opts.polish_iters));
    f.mix(opts.use_depth_prediction ? 1u : 0u);
    f.mix(opts.seed);
    f.mix(static_cast<uint64_t>(opts.oracle.restarts));
    f.mix(static_cast<uint64_t>(opts.oracle.nm_iters));
    f.mixDouble(opts.oracle.residual_tol);
    f.mix(opts.oracle.seed);
    return f.h;
}

uint64_t
DecompositionCache::contextHash(const Mat4 &basis,
                                const SynthOptions &opts)
{
    // Combine the two content hashes asymmetrically so swapping
    // basis and options cannot collide.
    return hashGate(basis) * 0x9e3779b97f4a7c15ull
           + hashOptions(opts);
}

DecompositionCache::ClassKey
DecompositionCache::classKey(const CartanCoords &canonical,
                             const Mat4 &basis,
                             const SynthOptions &opts)
{
    ClassKey key;
    key.context = contextHash(basis, opts);
    key.qx = std::llround(canonical.tx / kCoordQuantum);
    key.qy = std::llround(canonical.ty / kCoordQuantum);
    key.qz = std::llround(canonical.tz / kCoordQuantum);
    return key;
}

Mat4
DecompositionCache::classGate(const ClassKey &key)
{
    return canonicalGate(static_cast<double>(key.qx) * kCoordQuantum,
                         static_cast<double>(key.qy) * kCoordQuantum,
                         static_cast<double>(key.qz) * kCoordQuantum);
}

TwoQubitDecomposition
DecompositionCache::dressClassDecomposition(
    const TwoQubitDecomposition &cls, const CanonicalKak &kak,
    const Mat4 &target)
{
    // target = phase * (a1 (x) a0) * CAN(c) * (b1 (x) b0) and cls
    // reconstructs CAN(c), so grafting b* onto the innermost local
    // layer and a* onto the outermost gives a decomposition of the
    // target (for zero-layer classes both graft onto the same local).
    TwoQubitDecomposition d = cls;
    d.locals.front().q1 = d.locals.front().q1 * kak.b1;
    d.locals.front().q0 = d.locals.front().q0 * kak.b0;
    d.locals.back().q1 = kak.a1 * d.locals.back().q1;
    d.locals.back().q0 = kak.a0 * d.locals.back().q0;

    // Recompute phase and exact infidelity against the target; the
    // class infidelity carries over up to the O(kCoordQuantum^2)
    // quantization residue, but measuring it directly is cheap.
    d.phase = Complex(1.0);
    const Mat4 v = d.reconstruct();
    Complex overlap{};
    for (int i = 0; i < 4; ++i)
        for (int k = 0; k < 4; ++k)
            overlap += std::conj(v(i, k)) * target(i, k);
    const double mag = std::abs(overlap);
    d.phase = mag > 1e-300 ? overlap / mag : Complex(1.0);
    d.infidelity = traceInfidelity(v, target);
    return d;
}

void
DecompositionCache::Entry::credit(int device, uint64_t lookups)
{
    for (auto &dl : device_lookups) {
        if (dl.first == device) {
            dl.second += lookups;
            return;
        }
    }
    device_lookups.emplace_back(device, lookups);
}

DecompositionCache::Stripe &
DecompositionCache::stripeOf(const ClassKey &key)
{
    return stripes_[hashKey(key) % kStripes];
}

const DecompositionCache::Stripe &
DecompositionCache::stripeOf(const ClassKey &key) const
{
    return stripes_[hashKey(key) % kStripes];
}

DecompositionCache::Claim
DecompositionCache::acquire(const ClassKey &key, int device,
                            uint64_t lookups,
                            const TwoQubitDecomposition **out)
{
    QBASIS_TRACE_SCOPE("cache.claim", "context", key.context);
    Stripe &s = stripeOf(key);
    std::lock_guard<std::mutex> lock(s.mutex);
    auto [it, inserted] = s.entries.try_emplace(key);
    it->second.credit(device, lookups);
    if (inserted) {
        // One miss for the claim; the remaining batched lookups of
        // this class are hits against the about-to-exist entry.
        misses_.add();
        if (lookups > 1)
            hits_.add(lookups - 1);
        return Claim::Owner;
    }
    if (it->second.ready) {
        hits_.add(lookups);
        if (out != nullptr)
            *out = &it->second.dec;
        return Claim::Ready;
    }
    return Claim::Pending;
}

const TwoQubitDecomposition *
DecompositionCache::publish(const ClassKey &key,
                            TwoQubitDecomposition dec)
{
    QBASIS_TRACE_SCOPE("cache.publish", "context", key.context);
    publishes_.add();
    Stripe &s = stripeOf(key);
    std::lock_guard<std::mutex> lock(s.mutex);
    const auto it = s.entries.find(key);
    if (it == s.entries.end() || it->second.ready)
        panic("DecompositionCache: publish without a claim");
    it->second.dec = std::move(dec);
    it->second.ready = true;
    s.cv.notify_all();
    return &it->second.dec;
}

void
DecompositionCache::abandon(const ClassKey &key)
{
    abandons_.add();
    Stripe &s = stripeOf(key);
    std::lock_guard<std::mutex> lock(s.mutex);
    const auto it = s.entries.find(key);
    if (it == s.entries.end() || it->second.ready)
        return; // already published or never claimed: nothing to undo
    s.entries.erase(it);
    s.cv.notify_all();
}

const TwoQubitDecomposition *
DecompositionCache::wait(const ClassKey &key, uint64_t lookups)
{
    // The span brackets the whole blocking wait: on a slow-tail
    // trace, time spent here is time spent waiting for another
    // client's claim, not this request's own synthesis.
    QBASIS_TRACE_SCOPE("cache.wait", "context", key.context);
    waits_.add();
    Stripe &s = stripeOf(key);
    std::unique_lock<std::mutex> lock(s.mutex);
    for (;;) {
        const auto it = s.entries.find(key);
        if (it == s.entries.end())
            return nullptr; // owner abandoned; caller re-acquires
        if (it->second.ready) {
            hits_.add(lookups);
            return &it->second.dec;
        }
        s.cv.wait(lock);
    }
}

const TwoQubitDecomposition *
DecompositionCache::peekPublished(const ClassKey &key) const
{
    const Stripe &s = stripeOf(key);
    std::lock_guard<std::mutex> lock(s.mutex);
    const auto it = s.entries.find(key);
    if (it == s.entries.end() || !it->second.ready)
        return nullptr;
    return &it->second.dec;
}

DecompositionCache::Stats
DecompositionCache::stats() const
{
    Stats st;
    st.hits = hits_.value();
    st.misses = misses_.value();
    st.waits = waits_.value();
    st.publishes = publishes_.value();
    st.abandons = abandons_.value();
    for (const auto &stripe : stripes_) {
        std::lock_guard<std::mutex> lock(stripe.mutex);
        for (const auto &[key, entry] : stripe.entries) {
            (void)key;
            if (!entry.ready)
                continue;
            ++st.classes;
            if (entry.device_lookups.empty())
                continue; // loaded from a snapshot, never looked up
            if (entry.device_lookups.size() > 1)
                ++st.multi_device_classes;
            // Everything beyond the lowest-numbered device's own
            // lookups was served across devices.
            int min_device = entry.device_lookups.front().first;
            uint64_t total = 0, min_dev_lookups = 0;
            for (const auto &[dev, n] : entry.device_lookups) {
                total += n;
                if (dev < min_device) {
                    min_device = dev;
                    min_dev_lookups = n;
                } else if (dev == min_device) {
                    min_dev_lookups = n;
                }
            }
            st.cross_device_hits += total - min_dev_lookups;
        }
    }
    return st;
}

size_t
DecompositionCache::size() const
{
    size_t n = 0;
    for (const auto &stripe : stripes_) {
        std::lock_guard<std::mutex> lock(stripe.mutex);
        for (const auto &[key, entry] : stripe.entries) {
            (void)key;
            if (entry.ready)
                ++n;
        }
    }
    return n;
}

std::vector<std::pair<DecompositionCache::ClassKey,
                      TwoQubitDecomposition>>
DecompositionCache::exportEntries() const
{
    std::vector<std::pair<ClassKey, TwoQubitDecomposition>> out;
    for (const auto &stripe : stripes_) {
        std::lock_guard<std::mutex> lock(stripe.mutex);
        for (const auto &[key, entry] : stripe.entries) {
            if (entry.ready)
                out.emplace_back(key, entry.dec);
        }
    }
    // Stripe order interleaves keys; sort so the export (and hence
    // the snapshot bytes) depends only on the entry set.
    std::sort(out.begin(), out.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    return out;
}

void
DecompositionCache::forEachPublished(
    const std::function<void(const ClassKey &,
                             const TwoQubitDecomposition &)> &fn)
    const
{
    for (const auto &stripe : stripes_) {
        std::lock_guard<std::mutex> lock(stripe.mutex);
        for (const auto &[key, entry] : stripe.entries) {
            if (entry.ready)
                fn(key, entry.dec);
        }
    }
}

bool
DecompositionCache::insertLoaded(const ClassKey &key,
                                 TwoQubitDecomposition dec)
{
    Stripe &s = stripeOf(key);
    std::lock_guard<std::mutex> lock(s.mutex);
    auto [it, inserted] = s.entries.try_emplace(key);
    if (!inserted)
        return false; // existing entry (ready or claimed) wins
    it->second.dec = std::move(dec);
    it->second.ready = true;
    return true;
}

size_t
DecompositionCache::retireExcept(
    const std::vector<uint64_t> &live_contexts)
{
    size_t dropped = 0;
    for (auto &stripe : stripes_) {
        std::lock_guard<std::mutex> lock(stripe.mutex);
        for (auto it = stripe.entries.begin();
             it != stripe.entries.end();) {
            const bool live = std::binary_search(
                live_contexts.begin(), live_contexts.end(),
                it->first.context);
            if (!live && it->second.ready) {
                it = stripe.entries.erase(it);
                ++dropped;
            } else {
                ++it;
            }
        }
    }
    return dropped;
}

void
DecompositionCache::clear()
{
    for (auto &stripe : stripes_) {
        std::lock_guard<std::mutex> lock(stripe.mutex);
        stripe.entries.clear();
    }
    metrics_.retireCounts();
}

} // namespace qbasis

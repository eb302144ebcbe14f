#include "synth/cache_io.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>

namespace qbasis {

namespace {

constexpr char kMagic[8] = {'Q', 'B', 'W', 'C', 'A', 'C', 'H', 'E'};
constexpr size_t kHeaderBytes = 124;
constexpr size_t kIndexEntryBytes = 48;
constexpr size_t kSectionCount = 3; // index, payload, plans
/** Sanity cap on a decoded plan's device size: far above any real
 *  device, low enough that a crafted record cannot make the replay
 *  validator allocate absurd scratch. */
constexpr uint64_t kMaxPlanQubits = 1u << 20;

// -- Little-endian primitives ------------------------------------------------

void
putU32(std::vector<uint8_t> &buf, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<uint8_t> &buf, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
putI64(std::vector<uint8_t> &buf, int64_t v)
{
    putU64(buf, static_cast<uint64_t>(v));
}

void
putF64(std::vector<uint8_t> &buf, double v)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v), "double width");
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(buf, bits);
}

void
putMat2(std::vector<uint8_t> &buf, const Mat2 &m)
{
    for (int r = 0; r < 2; ++r) {
        for (int c = 0; c < 2; ++c) {
            putF64(buf, m(r, c).real());
            putF64(buf, m(r, c).imag());
        }
    }
}

void
putMat4(std::vector<uint8_t> &buf, const Mat4 &m)
{
    for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < 4; ++c) {
            putF64(buf, m(r, c).real());
            putF64(buf, m(r, c).imag());
        }
    }
}

/** Bounds-checked little-endian reader over a byte range. */
struct Cursor
{
    const uint8_t *data;
    size_t size;
    size_t off = 0;
    bool ok = true;

    bool
    need(size_t n)
    {
        if (!ok || size - off < n || off > size) {
            ok = false;
            return false;
        }
        return true;
    }

    uint32_t
    u32()
    {
        if (!need(4))
            return 0;
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(data[off + static_cast<size_t>(i)])
                 << (8 * i);
        off += 4;
        return v;
    }

    uint64_t
    u64()
    {
        if (!need(8))
            return 0;
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(data[off + static_cast<size_t>(i)])
                 << (8 * i);
        off += 8;
        return v;
    }

    int64_t
    i64()
    {
        return static_cast<int64_t>(u64());
    }

    double
    f64()
    {
        const uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    Mat2
    mat2()
    {
        Mat2 m;
        for (int r = 0; r < 2; ++r) {
            for (int c = 0; c < 2; ++c) {
                const double re = f64();
                const double im = f64();
                m(r, c) = Complex(re, im);
            }
        }
        return m;
    }

    Mat4
    mat4()
    {
        Mat4 m;
        for (int r = 0; r < 4; ++r) {
            for (int c = 0; c < 4; ++c) {
                const double re = f64();
                const double im = f64();
                m(r, c) = Complex(re, im);
            }
        }
        return m;
    }
};

CacheIoResult
fail(CacheIoStatus status, std::string message)
{
    CacheIoResult r;
    r.status = status;
    r.message = std::move(message);
    return r;
}

} // namespace

const char *
cacheIoStatusName(CacheIoStatus status)
{
    switch (status) {
    case CacheIoStatus::Ok:
        return "ok";
    case CacheIoStatus::IoError:
        return "io_error";
    case CacheIoStatus::BadMagic:
        return "bad_magic";
    case CacheIoStatus::VersionMismatch:
        return "version_mismatch";
    case CacheIoStatus::QuantumMismatch:
        return "quantum_mismatch";
    case CacheIoStatus::Truncated:
        return "truncated";
    case CacheIoStatus::ChecksumMismatch:
        return "checksum_mismatch";
    case CacheIoStatus::Malformed:
        return "malformed";
    }
    return "unknown";
}

size_t
cacheEntryEncodedBytes(const TwoQubitDecomposition &dec)
{
    // n_locals + n_basis + phase + infidelity, then 8 f64 per Mat2
    // (two per local layer) and 32 f64 per basis Mat4.
    return 4 + 4 + 8 + 8 + 8 + dec.locals.size() * 128
           + dec.basis.size() * 256;
}

size_t
cacheSnapshotEncodedBytes(size_t entries, size_t payload_bytes)
{
    return kHeaderBytes + entries * kIndexEntryBytes + payload_bytes;
}

uint32_t
cacheCrc32(const uint8_t *data, size_t size)
{
    // Standard reflected CRC-32 (IEEE 802.3), table built on first
    // use; thread-safe via static-local initialization.
    static const auto table = [] {
        std::array<uint32_t, 256> t{};
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    uint32_t crc = 0xFFFFFFFFu;
    for (size_t i = 0; i < size; ++i)
        crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

size_t
planEncodedBytes(const TranspilePlan &plan)
{
    // hashes (2 u64) + six u32 counts + swaps u64, then the
    // variable-length vectors.
    return 16 + 24 + 8 + plan.key.epochs.size() * 16
           + (plan.initial_layout.size() + plan.final_layout.size()) * 8
           + plan.ops.size() * 24 + plan.class_keys.size() * 32;
}

std::vector<uint8_t>
encodeCacheSnapshot(std::vector<CacheSnapshotEntry> entries)
{
    return encodeCacheSnapshot(std::move(entries), {});
}

std::vector<uint8_t>
encodeCacheSnapshot(std::vector<CacheSnapshotEntry> entries,
                    std::vector<TranspilePlan> plans)
{
    // Unique byte encoding per entry set: sort by key so snapshot ->
    // restore -> snapshot is the identity on bytes.
    std::sort(entries.begin(), entries.end(),
              [](const CacheSnapshotEntry &a, const CacheSnapshotEntry &b) {
                  return a.first < b.first;
              });
    std::sort(plans.begin(), plans.end(),
              [](const TranspilePlan &a, const TranspilePlan &b) {
                  return a.key < b.key;
              });

    std::vector<uint8_t> index;
    std::vector<uint8_t> payload;
    index.reserve(entries.size() * kIndexEntryBytes);
    for (const CacheSnapshotEntry &e : entries) {
        const DecompositionCache::ClassKey &key = e.first;
        const TwoQubitDecomposition &dec = e.second;
        putU64(index, key.context);
        putI64(index, key.qx);
        putI64(index, key.qy);
        putI64(index, key.qz);
        putU64(index, static_cast<uint64_t>(payload.size()));
        putU64(index,
               static_cast<uint64_t>(cacheEntryEncodedBytes(dec)));

        putU32(payload, static_cast<uint32_t>(dec.locals.size()));
        putU32(payload, static_cast<uint32_t>(dec.basis.size()));
        putF64(payload, dec.phase.real());
        putF64(payload, dec.phase.imag());
        putF64(payload, dec.infidelity);
        for (const LocalPair &lp : dec.locals) {
            putMat2(payload, lp.q1);
            putMat2(payload, lp.q0);
        }
        for (const Mat4 &b : dec.basis)
            putMat4(payload, b);
    }

    std::vector<uint8_t> plan_bytes;
    for (const TranspilePlan &plan : plans) {
        putU64(plan_bytes, plan.key.structural_hash);
        putU64(plan_bytes, plan.key.options_hash);
        putU32(plan_bytes,
               static_cast<uint32_t>(plan.key.epochs.size()));
        putU32(plan_bytes, static_cast<uint32_t>(plan.ops.size()));
        putU32(plan_bytes,
               static_cast<uint32_t>(plan.class_keys.size()));
        putU32(plan_bytes, static_cast<uint32_t>(plan.num_physical));
        putU32(plan_bytes,
               static_cast<uint32_t>(plan.initial_layout.size()));
        putU32(plan_bytes,
               static_cast<uint32_t>(plan.final_layout.size()));
        putU64(plan_bytes, plan.swaps_inserted);
        for (const DeviceEpoch &de : plan.key.epochs) {
            putI64(plan_bytes, de.device_id);
            putU64(plan_bytes, de.epoch);
        }
        for (const int p : plan.initial_layout)
            putI64(plan_bytes, p);
        for (const int p : plan.final_layout)
            putI64(plan_bytes, p);
        for (const PlanOp &op : plan.ops) {
            putI64(plan_bytes, op.source);
            putI64(plan_bytes, op.q0);
            putI64(plan_bytes, op.q1);
        }
        for (const DecompositionCache::ClassKey &key : plan.class_keys) {
            putU64(plan_bytes, key.context);
            putI64(plan_bytes, key.qx);
            putI64(plan_bytes, key.qy);
            putI64(plan_bytes, key.qz);
        }
    }

    std::vector<uint8_t> buf;
    buf.reserve(kHeaderBytes + index.size() + payload.size()
                + plan_bytes.size());
    buf.insert(buf.end(), kMagic, kMagic + 8);
    putU32(buf, kCacheFormatVersion);
    putU32(buf, static_cast<uint32_t>(kHeaderBytes));
    putF64(buf, DecompositionCache::kCoordQuantum);
    putF64(buf, DecompositionCache::kGateHashQuantum);
    putU64(buf, static_cast<uint64_t>(entries.size()));
    putU64(buf, static_cast<uint64_t>(plans.size()));
    // Section table: index, payload, plans -- back to back after the
    // header, each with its own CRC.
    const uint64_t index_off = kHeaderBytes;
    const uint64_t payload_off = index_off + index.size();
    const uint64_t plans_off = payload_off + payload.size();
    putU64(buf, index_off);
    putU64(buf, static_cast<uint64_t>(index.size()));
    putU32(buf, cacheCrc32(index.data(), index.size()));
    putU32(buf, 0); // pad
    putU64(buf, payload_off);
    putU64(buf, static_cast<uint64_t>(payload.size()));
    putU32(buf, cacheCrc32(payload.data(), payload.size()));
    putU32(buf, 0); // pad
    putU64(buf, plans_off);
    putU64(buf, static_cast<uint64_t>(plan_bytes.size()));
    putU32(buf, cacheCrc32(plan_bytes.data(), plan_bytes.size()));
    putU32(buf, 0); // pad
    putU32(buf, cacheCrc32(buf.data(), buf.size()));

    buf.insert(buf.end(), index.begin(), index.end());
    buf.insert(buf.end(), payload.begin(), payload.end());
    buf.insert(buf.end(), plan_bytes.begin(), plan_bytes.end());
    return buf;
}

CacheIoResult
decodeCacheSnapshot(const uint8_t *data, size_t size,
                    std::vector<CacheSnapshotEntry> *out)
{
    return decodeCacheSnapshot(data, size, out, nullptr);
}

CacheIoResult
decodeCacheSnapshot(const uint8_t *data, size_t size,
                    std::vector<CacheSnapshotEntry> *out,
                    std::vector<TranspilePlan> *plans_out)
{
    if (data == nullptr || size < kHeaderBytes)
        return fail(CacheIoStatus::Truncated,
                    "snapshot shorter than its header");
    if (std::memcmp(data, kMagic, 8) != 0)
        return fail(CacheIoStatus::BadMagic,
                    "not a Weyl-class cache snapshot");

    Cursor cur{data, size, 8, true};
    const uint32_t version = cur.u32();
    if (version != kCacheFormatVersion)
        return fail(CacheIoStatus::VersionMismatch,
                    "snapshot format v" + std::to_string(version)
                        + ", expected v"
                        + std::to_string(kCacheFormatVersion));
    const uint32_t header_bytes = cur.u32();
    if (header_bytes != kHeaderBytes)
        return fail(CacheIoStatus::Malformed,
                    "unexpected header size "
                        + std::to_string(header_bytes));
    // Header CRC covers everything before the CRC field itself; it
    // must be checked before any header field is *trusted* (magic and
    // version were compared against constants, which is safe either
    // way).
    const uint32_t header_crc = cacheCrc32(data, kHeaderBytes - 4);
    {
        Cursor crc_cur{data, size, kHeaderBytes - 4, true};
        if (crc_cur.u32() != header_crc)
            return fail(CacheIoStatus::ChecksumMismatch,
                        "header checksum mismatch");
    }
    const double coord_quantum = cur.f64();
    const double gate_quantum = cur.f64();
    if (coord_quantum != DecompositionCache::kCoordQuantum
        || gate_quantum != DecompositionCache::kGateHashQuantum)
        return fail(CacheIoStatus::QuantumMismatch,
                    "snapshot quantization parameters differ from "
                    "this build");
    const uint64_t entry_count = cur.u64();
    const uint64_t plan_count = cur.u64();
    const uint64_t index_off = cur.u64();
    const uint64_t index_size = cur.u64();
    const uint32_t index_crc = cur.u32();
    cur.u32(); // pad
    const uint64_t payload_off = cur.u64();
    const uint64_t payload_size = cur.u64();
    const uint32_t payload_crc = cur.u32();
    cur.u32(); // pad
    const uint64_t plans_off = cur.u64();
    const uint64_t plans_size = cur.u64();
    const uint32_t plans_crc = cur.u32();

    // Overflow-safe section-table validation: every arithmetic term
    // below is bounded *before* it is formed, so a crafted header
    // cannot wrap these u64 sums around and slip a huge section size
    // past the bounds checks into the CRC scans.
    if (index_off != kHeaderBytes
        || entry_count > (UINT64_MAX - kHeaderBytes) / kIndexEntryBytes
        || index_size != entry_count * kIndexEntryBytes
        || payload_off != kHeaderBytes + index_size
        || payload_size > UINT64_MAX - payload_off
        || plans_off != payload_off + payload_size
        || plans_size > UINT64_MAX - plans_off)
        return fail(CacheIoStatus::Malformed,
                    "inconsistent section table");
    const uint64_t expected_size = plans_off + plans_size;
    if (size < expected_size)
        return fail(CacheIoStatus::Truncated,
                    "snapshot truncated: "
                        + std::to_string(size) + " of "
                        + std::to_string(expected_size) + " bytes");
    if (size > expected_size)
        return fail(CacheIoStatus::Malformed,
                    "trailing bytes after the plans section");
    if (cacheCrc32(data + index_off, index_size) != index_crc)
        return fail(CacheIoStatus::ChecksumMismatch,
                    "index section checksum mismatch");
    if (cacheCrc32(data + payload_off, payload_size) != payload_crc)
        return fail(CacheIoStatus::ChecksumMismatch,
                    "payload section checksum mismatch");
    if (cacheCrc32(data + plans_off, plans_size) != plans_crc)
        return fail(CacheIoStatus::ChecksumMismatch,
                    "plans section checksum mismatch");

    std::vector<CacheSnapshotEntry> entries;
    entries.reserve(static_cast<size_t>(entry_count));
    Cursor idx{data + index_off, static_cast<size_t>(index_size), 0,
               true};
    for (uint64_t i = 0; i < entry_count; ++i) {
        DecompositionCache::ClassKey key;
        key.context = idx.u64();
        key.qx = idx.i64();
        key.qy = idx.i64();
        key.qz = idx.i64();
        const uint64_t off = idx.u64();
        const uint64_t len = idx.u64();
        if (!idx.ok || len > payload_size || off > payload_size - len)
            return fail(CacheIoStatus::Malformed,
                        "entry " + std::to_string(i)
                            + ": payload out of bounds");

        Cursor pay{data + payload_off + off, static_cast<size_t>(len),
                   0, true};
        TwoQubitDecomposition dec;
        const uint32_t n_locals = pay.u32();
        const uint32_t n_basis = pay.u32();
        if (!pay.ok || n_basis + 1 != n_locals
            || len != 32 + static_cast<uint64_t>(n_locals) * 128
                          + static_cast<uint64_t>(n_basis) * 256)
            return fail(CacheIoStatus::Malformed,
                        "entry " + std::to_string(i)
                            + ": inconsistent layer counts");
        const double re = pay.f64();
        const double im = pay.f64();
        dec.phase = Complex(re, im);
        dec.infidelity = pay.f64();
        dec.locals.reserve(n_locals);
        for (uint32_t l = 0; l < n_locals; ++l) {
            LocalPair lp;
            lp.q1 = pay.mat2();
            lp.q0 = pay.mat2();
            dec.locals.push_back(lp);
        }
        dec.basis.reserve(n_basis);
        for (uint32_t b = 0; b < n_basis; ++b)
            dec.basis.push_back(pay.mat4());
        if (!pay.ok || pay.off != len)
            return fail(CacheIoStatus::Malformed,
                        "entry " + std::to_string(i)
                            + ": payload size mismatch");
        entries.emplace_back(key, std::move(dec));
    }

    std::vector<TranspilePlan> plans;
    plans.reserve(static_cast<size_t>(plan_count));
    Cursor pcur{data + plans_off, static_cast<size_t>(plans_size), 0,
                true};
    for (uint64_t i = 0; i < plan_count; ++i) {
        TranspilePlan plan;
        plan.key.structural_hash = pcur.u64();
        plan.key.options_hash = pcur.u64();
        const uint32_t n_epochs = pcur.u32();
        const uint32_t n_ops = pcur.u32();
        const uint32_t n_classes = pcur.u32();
        const uint32_t num_physical = pcur.u32();
        const uint32_t n_init = pcur.u32();
        const uint32_t n_final = pcur.u32();
        plan.swaps_inserted = pcur.u64();
        if (!pcur.ok || num_physical == 0
            || num_physical > kMaxPlanQubits
            || n_classes > n_ops)
            return fail(CacheIoStatus::Malformed,
                        "plan " + std::to_string(i)
                            + ": inconsistent counts");
        plan.num_physical = static_cast<int>(num_physical);
        // Vector lengths are bounded by the (already CRC-validated)
        // section size through the cursor's ok flag: a short section
        // flips it before any oversized reserve can happen.
        const uint64_t body_bytes =
            static_cast<uint64_t>(n_epochs) * 16
            + (static_cast<uint64_t>(n_init)
               + static_cast<uint64_t>(n_final)) * 8
            + static_cast<uint64_t>(n_ops) * 24
            + static_cast<uint64_t>(n_classes) * 32;
        if (body_bytes > plans_size - pcur.off)
            return fail(CacheIoStatus::Malformed,
                        "plan " + std::to_string(i)
                            + ": record out of bounds");
        plan.key.epochs.reserve(n_epochs);
        for (uint32_t e = 0; e < n_epochs; ++e) {
            DeviceEpoch de;
            de.device_id = static_cast<int>(pcur.i64());
            de.epoch = pcur.u64();
            plan.key.epochs.push_back(de);
        }
        plan.initial_layout.reserve(n_init);
        for (uint32_t l = 0; l < n_init; ++l)
            plan.initial_layout.push_back(
                static_cast<int>(pcur.i64()));
        plan.final_layout.reserve(n_final);
        for (uint32_t l = 0; l < n_final; ++l)
            plan.final_layout.push_back(static_cast<int>(pcur.i64()));
        plan.ops.reserve(n_ops);
        for (uint32_t o = 0; o < n_ops; ++o) {
            PlanOp op;
            op.source = static_cast<int>(pcur.i64());
            op.q0 = static_cast<int>(pcur.i64());
            op.q1 = static_cast<int>(pcur.i64());
            plan.ops.push_back(op);
        }
        plan.class_keys.reserve(n_classes);
        for (uint32_t c = 0; c < n_classes; ++c) {
            DecompositionCache::ClassKey key;
            key.context = pcur.u64();
            key.qx = pcur.i64();
            key.qy = pcur.i64();
            key.qz = pcur.i64();
            plan.class_keys.push_back(key);
        }
        if (!pcur.ok)
            return fail(CacheIoStatus::Malformed,
                        "plan " + std::to_string(i)
                            + ": record truncated");
        plans.push_back(std::move(plan));
    }
    if (pcur.off != plans_size)
        return fail(CacheIoStatus::Malformed,
                    "plans section size mismatch");

    CacheIoResult r;
    r.entries = entries.size();
    r.bytes = size;
    if (out != nullptr)
        out->insert(out->end(),
                    std::make_move_iterator(entries.begin()),
                    std::make_move_iterator(entries.end()));
    if (plans_out != nullptr)
        plans_out->insert(plans_out->end(),
                          std::make_move_iterator(plans.begin()),
                          std::make_move_iterator(plans.end()));
    return r;
}

CacheIoResult
saveCacheSnapshot(const DecompositionCache &cache,
                  const std::string &path)
{
    std::vector<CacheSnapshotEntry> entries = cache.exportEntries();
    const size_t entry_count = entries.size();
    const std::vector<uint8_t> bytes =
        encodeCacheSnapshot(std::move(entries));
    FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        return fail(CacheIoStatus::IoError,
                    "cannot open " + path + " for writing");
    const size_t written =
        bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
    const bool closed = std::fclose(f) == 0;
    if (written != bytes.size() || !closed)
        return fail(CacheIoStatus::IoError, "short write to " + path);
    CacheIoResult r;
    r.entries = entry_count;
    r.bytes = bytes.size();
    return r;
}

CacheIoResult
saveCacheSnapshot(const DecompositionCache &cache,
                  const PlanCache &plans, const std::string &path)
{
    std::vector<CacheSnapshotEntry> entries = cache.exportEntries();
    const size_t entry_count = entries.size();
    const std::vector<uint8_t> bytes = encodeCacheSnapshot(
        std::move(entries), plans.exportPlans());
    FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        return fail(CacheIoStatus::IoError,
                    "cannot open " + path + " for writing");
    const size_t written =
        bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
    const bool closed = std::fclose(f) == 0;
    if (written != bytes.size() || !closed)
        return fail(CacheIoStatus::IoError, "short write to " + path);
    CacheIoResult r;
    r.entries = entry_count;
    r.bytes = bytes.size();
    return r;
}

bool
readFileBytes(const std::string &path, std::vector<uint8_t> *out)
{
    FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return false;
    out->clear();
    uint8_t chunk[65536];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        out->insert(out->end(), chunk, chunk + n);
    const bool read_error = std::ferror(f) != 0;
    std::fclose(f);
    return !read_error;
}

CacheIoResult
loadCacheSnapshot(const std::string &path,
                  DecompositionCache &cache)
{
    return loadCacheSnapshot(path, cache, nullptr);
}

CacheIoResult
loadCacheSnapshot(const std::string &path,
                  DecompositionCache &cache, PlanCache *plans)
{
    std::vector<uint8_t> bytes;
    if (!readFileBytes(path, &bytes))
        return fail(CacheIoStatus::IoError, "cannot read " + path);

    std::vector<CacheSnapshotEntry> entries;
    std::vector<TranspilePlan> loaded_plans;
    CacheIoResult r =
        decodeCacheSnapshot(bytes.data(), bytes.size(), &entries,
                            plans != nullptr ? &loaded_plans : nullptr);
    if (!r.ok())
        return r;
    for (CacheSnapshotEntry &e : entries) {
        if (cache.insertLoaded(e.first, std::move(e.second)))
            ++r.merged;
    }
    if (plans != nullptr) {
        for (TranspilePlan &plan : loaded_plans)
            plans->insertLoaded(std::move(plan));
    }
    return r;
}

} // namespace qbasis

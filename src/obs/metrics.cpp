#include "obs/metrics.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <utility>

#include "util/logging.hpp"

namespace qbasis {

namespace {

void
mergeInto(LogHistogram &into, const LogHistogram &from)
{
    for (int b = 0; b < kLogHistogramBuckets; ++b)
        into.accumulateBucket(b, from.bucketCount(b));
    into.accumulateSum(from.sum());
}

} // namespace

LogHistogram
Histogram::snapshot() const
{
    LogHistogram h;
    for (int b = 0; b < kLogHistogramBuckets; ++b)
        h.accumulateBucket(
            b, buckets_[static_cast<size_t>(b)].load(
                   std::memory_order_relaxed));
    h.accumulateSum(sum_.load(std::memory_order_relaxed));
    return h;
}

namespace {

/** Retired totals plus the live registrations. The mutex orders
 *  registration, retirement and snapshots, so a snapshot sees every
 *  instance's counts exactly once: live or retired, never both and
 *  never neither. */
struct Registry
{
    std::mutex mutex;
    std::vector<const MetricsRegistration *> live;
    std::map<std::string, uint64_t> counters;
    std::map<std::string, LogHistogram> histograms;
};

Registry &
registry()
{
    // Leaked: static-duration instances (the shared SynthEngine)
    // retire into it during static destruction.
    static Registry *r = new Registry();
    return *r;
}

} // namespace

MetricsRegistration::MetricsRegistration(
    std::vector<CounterRef> counters,
    std::vector<HistogramRef> histograms)
    : counters_(std::move(counters)), histograms_(std::move(histograms))
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.live.push_back(this);
}

MetricsRegistration::~MetricsRegistration()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.live.erase(std::find(r.live.begin(), r.live.end(), this));
    if (!counted())
        return;
    for (const CounterRef &c : counters_)
        r.counters[c.name] += c.counter->value();
    for (const HistogramRef &h : histograms_)
        mergeInto(r.histograms[h.name], h.histogram->snapshot());
}

bool
MetricsRegistration::counted() const
{
    return std::any_of(counters_.begin(), counters_.end(),
                       [](const CounterRef &c) {
                           return c.counter->value() != 0;
                       });
}

void
MetricsRegistration::retireCounts()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    if (!counted())
        return;
    for (const CounterRef &c : counters_)
        r.counters[c.name] += c.counter->value_.exchange(0);
}

MetricsSnapshot
metricsSnapshot()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    std::map<std::string, uint64_t> counters = r.counters;
    std::map<std::string, LogHistogram> histograms = r.histograms;
    for (const MetricsRegistration *reg : r.live) {
        if (!reg->counted())
            continue;
        for (const auto &c : reg->counters_)
            counters[c.name] += c.counter->value();
        for (const auto &h : reg->histograms_)
            mergeInto(histograms[h.name], h.histogram->snapshot());
    }
    MetricsSnapshot snap;
    snap.counters.reserve(counters.size());
    for (const auto &[name, value] : counters)
        snap.counters.push_back({name, value});
    snap.histograms.reserve(histograms.size());
    for (const auto &[name, hist] : histograms)
        snap.histograms.push_back({name, hist});
    return snap;
}

uint64_t
MetricsSnapshot::counterValue(const std::string &name) const
{
    for (const CounterValue &c : counters) {
        if (c.name == name)
            return c.value;
    }
    return 0;
}

std::string
MetricsSnapshot::text() const
{
    std::string out;
    for (const CounterValue &c : counters)
        out += strformat("%-28s %llu\n", c.name.c_str(),
                         static_cast<unsigned long long>(c.value));
    for (const HistogramValue &h : histograms)
        out += strformat(
            "%-28s count=%llu mean=%.1f p50<=%llu p95<=%llu "
            "p99<=%llu\n",
            h.name.c_str(),
            static_cast<unsigned long long>(h.hist.count()),
            h.hist.mean(),
            static_cast<unsigned long long>(h.hist.percentile(0.50)),
            static_cast<unsigned long long>(h.hist.percentile(0.95)),
            static_cast<unsigned long long>(h.hist.percentile(0.99)));
    return out;
}

} // namespace qbasis

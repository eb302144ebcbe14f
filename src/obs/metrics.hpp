#ifndef QBASIS_OBS_METRICS_HPP
#define QBASIS_OBS_METRICS_HPP

/**
 * @file
 * Process-wide metrics registry: a read-only view over the counters
 * and histograms that the serving stack's instances own.
 *
 * Each instance (CompileService, DecompositionCache, SynthEngine,
 * RecalibScheduler, FleetDriver) stores its statistics in its own
 * Counter/Histogram members -- the storage its stats()/snapshot()
 * reads -- and holds a MetricsRegistration that lists them under
 * stable dotted names (catalog: docs/architecture.md,
 * "Observability"). One event increments one counter. The registry
 * never stores a live value of its own:
 *
 *   process total = retired + sum over live instances,
 *
 * where "retired" accumulates the final values of destroyed
 * instances (and what DecompositionCache::clear() zeroes), so a
 * registry total never decreases. An instance's names are listed
 * once it has counted something: a driver that never ran a cycle
 * adds no fleet.* rows.
 *
 * Hot-path cost: recording is one fetch_add on the owner's own
 * atomic -- always on, and numerically invisible (counters never
 * feed digest or result math; the zero-perturbation contract is
 * gated by bench_obs + the obs-determinism CI job).
 */

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace qbasis {

/** Monotonic counter. Relaxed by default; a caller that derives
 *  cross-counter invariants from increment order (CompileService)
 *  passes seq_cst on both sides. */
class Counter
{
  public:
    void
    add(uint64_t n = 1, std::memory_order order = std::memory_order_relaxed)
    {
        value_.fetch_add(n, order);
    }

    uint64_t
    value(std::memory_order order = std::memory_order_relaxed) const
    {
        return value_.load(order);
    }

  private:
    friend class MetricsRegistration; // retireCounts() swaps to 0
    std::atomic<uint64_t> value_{0};
};

/** Concurrent log2-bucketed histogram; snapshot() yields the plain
 *  util/stats LogHistogram for percentile math. */
class Histogram
{
  public:
    void
    record(uint64_t value)
    {
        buckets_[static_cast<size_t>(logBucketIndex(value))].fetch_add(
            1, std::memory_order_relaxed);
        sum_.fetch_add(value, std::memory_order_relaxed);
    }

    LogHistogram snapshot() const;

  private:
    std::atomic<uint64_t> buckets_[kLogHistogramBuckets] = {};
    std::atomic<uint64_t> sum_{0};
};

/** Point-in-time process totals of every registered name, sorted by
 *  name. */
struct MetricsSnapshot
{
    struct CounterValue
    {
        std::string name;
        uint64_t value = 0;
    };

    struct HistogramValue
    {
        std::string name;
        LogHistogram hist;
    };

    std::vector<CounterValue> counters;
    std::vector<HistogramValue> histograms;

    /** Value of a counter by name (0 when absent). */
    uint64_t counterValue(const std::string &name) const;

    /** Human-readable multi-line table. */
    std::string text() const;
};

/**
 * One instance's metrics, listed with the process-wide registry for
 * the instance's lifetime. Declare it as the owner's *last* member:
 * it is then destroyed first, and folds the owner's final values into
 * the retired totals while the counters still exist.
 */
class MetricsRegistration
{
  public:
    struct CounterRef
    {
        const char *name;
        Counter *counter;
    };

    struct HistogramRef
    {
        const char *name;
        Histogram *histogram;
    };

    explicit MetricsRegistration(std::vector<CounterRef> counters,
                                 std::vector<HistogramRef> histograms = {});
    ~MetricsRegistration();

    MetricsRegistration(const MetricsRegistration &) = delete;
    MetricsRegistration &operator=(const MetricsRegistration &) = delete;

    /**
     * Move every listed counter's value into the retired totals and
     * zero it, as one step against concurrent snapshots (the owner's
     * "since reset" view restarts at 0; the process total is
     * unchanged). Increments racing with it land on exactly one side.
     */
    void retireCounts();

  private:
    friend MetricsSnapshot metricsSnapshot();

    /** Some listed counter is nonzero (the instance is not dormant). */
    bool counted() const;

    std::vector<CounterRef> counters_;
    std::vector<HistogramRef> histograms_;
};

/** Process totals: retired plus every live registration. */
MetricsSnapshot metricsSnapshot();

} // namespace qbasis

#endif // QBASIS_OBS_METRICS_HPP

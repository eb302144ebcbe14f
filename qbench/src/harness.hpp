#ifndef QBENCH_HARNESS_HPP
#define QBENCH_HARNESS_HPP

/**
 * @file
 * Measurement plumbing of the qbasis benchmark: percentiles and the
 * tail rule, request accounting, an in-memory span recorder with
 * self-time aggregation, process counters, and a small JSON writer.
 * Nothing here links against qbasis; selftest.cpp checks the math.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace qbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed since `t0`. */
double msSince(Clock::time_point t0);

// ---------------------------------------------------------------------------
// Order statistics
// ---------------------------------------------------------------------------

/**
 * Quantile `q` in [0, 1] by linear interpolation between closest
 * ranks (R type 7; numpy's default). 0 for an empty sample.
 */
double quantile(std::vector<double> v, double q);

double median(std::vector<double> v);
double mean(const std::vector<double> &v);

/** Geometric mean of positive samples (0 when empty). */
double geomean(const std::vector<double> &v);

// The order statistics below work on [v, v + n) and reorder it instead
// of copying it, so a large sample needs no allocation proportional
// to its size.

/** quantile() of [v, v + n), sorting it. */
double quantileInPlace(double *v, size_t n, double q);

/**
 * Quantile `q` of each run of `window` consecutive samples (the last
 * window absorbs the remainder), then the median over windows: the
 * typical tail, which stalls of the host (a few ms, a few times a
 * second on a shared VM), each confined to a few windows, do not move.
 * A sample shorter than two windows gets the plain quantile. Sorts
 * each window in place.
 */
double windowedQuantileInPlace(double *v, size_t n, double q,
                               size_t window = 100);

/**
 * Events per second in the steady part of a phase: the first and last
 * `trim` share of the event times (seconds from the phase start) are
 * dropped as ramp-up and drain, and the rate is the events between
 * the remaining first and last over the time between them. Sorts the
 * times in place.
 */
double steadyRateInPlace(double *times_s, size_t n, double trim = 0.1);

/**
 * Smallest sample size whose percentile `pct` leaves at least
 * `beyond` samples above it: the tail rule, n * (1 - pct/100) >=
 * beyond (p90 needs 100 samples, p99 needs 1000).
 */
size_t minSamplesForTail(double pct, size_t beyond = 10);

// ---------------------------------------------------------------------------
// Request accounting
// ---------------------------------------------------------------------------

/** Sent/succeeded/failed counts of one traffic phase. */
struct PhaseCount
{
    std::string name;
    uint64_t sent = 0;
    uint64_t ok = 0;
    uint64_t failed = 0;   ///< Compile status Failed.
    uint64_t rejected = 0; ///< Refused at admission.

    /** Every sent request resolved one way or another. */
    bool balanced() const { return sent == ok + failed + rejected; }
};

/** Summed counts of several phases. */
PhaseCount totalOf(const std::vector<PhaseCount> &phases);

/** (failed + rejected) / sent; 0 when nothing was sent. */
double failedFraction(const PhaseCount &c);

// ---------------------------------------------------------------------------
// Span recorder
// ---------------------------------------------------------------------------

/** One timed call into a layer. */
struct Span
{
    const char *name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1; ///< Index of the enclosing span, -1 at the root.
    uint64_t request_id = 0;
};

/** Self and total time of every span with one name. */
struct SpanTotals
{
    double total_ms = 0.0;
    double self_ms = 0.0;
    uint64_t count = 0;
};

/**
 * Per-name totals of a span list. A span's self time is its duration
 * minus the part of it its direct children cover (children never
 * overlap: they are sequential calls on one thread).
 */
std::map<std::string, SpanTotals> spanTotals(const std::vector<Span> &spans);

/**
 * Share of the root spans' wall time that their direct children
 * account for: 1 - (summed root self time / summed root time), over
 * every root or only the roots named `root`. 0 when no such root
 * span was recorded.
 */
double rootCoverage(const std::vector<Span> &spans,
                    const char *root = nullptr);

/**
 * Single-threaded span recorder: spans are appended in memory as
 * calls open and close, and written out after the run. Spans nest by
 * call order, so a span's parent is whichever span was open when it
 * began.
 */
class Tracer
{
  public:
    /** Open a span; returns its index. */
    int begin(const char *name, uint64_t request_id);
    void end(int index);

    const std::vector<Span> &spans() const { return spans_; }

    /** Chrome trace-event JSON of every span (Perfetto loads it). */
    std::string chromeJson() const;

  private:
    std::vector<Span> spans_;
    int open_ = -1;
    Clock::time_point origin_ = Clock::now();
};

/** RAII span; a null tracer makes it a no-op. */
class Scope
{
  public:
    Scope(Tracer *tracer, const char *name, uint64_t request_id = 0)
        : tracer_(tracer),
          index_(tracer ? tracer->begin(name, request_id) : -1)
    {
    }
    ~Scope()
    {
        if (tracer_)
            tracer_->end(index_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tracer_;
    int index_;
};

// ---------------------------------------------------------------------------
// Process counters
// ---------------------------------------------------------------------------

/** User + system CPU seconds of this process so far. */
double processCpuSeconds();

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

/** Quote and escape a string for JSON. */
std::string jsonString(const std::string &s);

/** A double with all its digits (round-trip precision); non-finite
 *  values become null. */
std::string jsonNumber(double v);

} // namespace qbench

#endif // QBENCH_HARNESS_HPP

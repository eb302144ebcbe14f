#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace qbench {

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

double
quantileInPlace(double *v, size_t n, double q)
{
    if (n == 0)
        return 0.0;
    std::sort(v, v + n);
    const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(n - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, n - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
quantile(std::vector<double> v, double q)
{
    return quantileInPlace(v.data(), v.size(), q);
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (const double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (const double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

double
windowedQuantileInPlace(double *v, size_t n, double q, size_t window)
{
    const size_t windows = n / std::max<size_t>(1, window);
    if (windows < 2)
        return quantileInPlace(v, n, q);
    std::vector<double> per_window;
    const size_t width = n / windows;
    for (size_t w = 0; w < windows; ++w) {
        const size_t first = w * width;
        const size_t last = w + 1 == windows ? n : first + width;
        per_window.push_back(quantileInPlace(v + first, last - first, q));
    }
    return median(per_window);
}

double
steadyRateInPlace(double *times_s, size_t n, double trim)
{
    if (n < 2)
        return 0.0;
    std::sort(times_s, times_s + n);
    const size_t lo =
        static_cast<size_t>(std::floor(trim * static_cast<double>(n)));
    const size_t hi = n - 1 - lo;
    if (hi <= lo || times_s[hi] <= times_s[lo])
        return 0.0;
    return static_cast<double>(hi - lo) / (times_s[hi] - times_s[lo]);
}

size_t
minSamplesForTail(double pct, size_t beyond)
{
    // The epsilon absorbs binary rounding: 10 / (1 - 0.99) is
    // 1000.0000000000009 in doubles.
    return static_cast<size_t>(std::ceil(
        static_cast<double>(beyond) * 100.0 / (100.0 - pct) - 1e-6));
}

PhaseCount
totalOf(const std::vector<PhaseCount> &phases)
{
    PhaseCount t;
    t.name = "total";
    for (const PhaseCount &p : phases) {
        t.sent += p.sent;
        t.ok += p.ok;
        t.failed += p.failed;
        t.rejected += p.rejected;
    }
    return t;
}

double
failedFraction(const PhaseCount &c)
{
    return c.sent > 0 ? static_cast<double>(c.failed + c.rejected)
                            / static_cast<double>(c.sent)
                      : 0.0;
}

int
Tracer::begin(const char *name, uint64_t request_id)
{
    Span s;
    s.name = name;
    s.parent = open_;
    s.request_id = request_id;
    s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     Clock::now() - origin_)
                     .count();
    spans_.push_back(s);
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
}

void
Tracer::end(int index)
{
    Span &s = spans_[static_cast<size_t>(index)];
    s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
                   .count();
    open_ = s.parent;
}

std::map<std::string, SpanTotals>
spanTotals(const std::vector<Span> &spans)
{
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span &s : spans) {
        if (s.parent >= 0)
            child_ns[static_cast<size_t>(s.parent)] +=
                s.end_ns - s.start_ns;
    }
    std::map<std::string, SpanTotals> out;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const int64_t dur = s.end_ns - s.start_ns;
        SpanTotals &t = out[s.name];
        t.total_ms += static_cast<double>(dur) * 1e-6;
        t.self_ms += static_cast<double>(dur - child_ns[i]) * 1e-6;
        ++t.count;
    }
    return out;
}

std::string
Tracer::chromeJson() const
{
    std::string out = "{\"traceEvents\":[";
    char buf[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                      "\"parent\":%d,\"request_id\":%llu}}",
                      i ? "," : "", jsonString(s.name).c_str(),
                      static_cast<double>(s.start_ns) * 1e-3,
                      static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                      i, s.parent,
                      static_cast<unsigned long long>(s.request_id));
        out += buf;
    }
    out += "]}\n";
    return out;
}

double
rootCoverage(const std::vector<Span> &spans, const char *root)
{
    const auto counts = [&](const Span &s) {
        return s.parent < 0
               && (root == nullptr || std::string(s.name) == root);
    };
    int64_t root_ns = 0;
    int64_t covered_ns = 0;
    for (const Span &s : spans) {
        if (counts(s))
            root_ns += s.end_ns - s.start_ns;
        else if (s.parent >= 0
                 && counts(spans[static_cast<size_t>(s.parent)]))
            covered_ns += s.end_ns - s.start_ns;
    }
    return root_ns > 0 ? static_cast<double>(covered_ns)
                             / static_cast<double>(root_ns)
                       : 0.0;
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec)
               + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace qbench

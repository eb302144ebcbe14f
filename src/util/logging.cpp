#include "util/logging.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace qbasis {

namespace {

LogLevel g_level = LogLevel::Inform;

std::chrono::steady_clock::time_point
logEpoch()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return epoch;
}

std::string
vformat(const char *fmt, va_list ap)
{
    va_list ap_copy;
    va_copy(ap_copy, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (n < 0)
        return std::string(fmt);
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), static_cast<size_t>(n));
}

/**
 * Every line carries a monotonic [seconds.ms] timestamp and the
 * caller's small thread id so interleaved shard/dispatcher output
 * stays attributable. Level gating happens in the callers, so
 * LogLevel::Silent keeps the stream truly silent.
 */
void
emit(const char *prefix, const std::string &msg)
{
    std::fprintf(stderr, "[%11.3f] [T%02u] %s%s\n",
                 logElapsedMs() / 1000.0, threadLogId(), prefix,
                 msg.c_str());
}

/** First message and counted repeats of one warn() format. */
struct RepeatedWarning
{
    std::string first;
    uint64_t repeats = 0;
};

/** Formats warn() printed since the last flushRepeatedWarnings(). */
struct WarningLedger
{
    std::mutex mutex;
    std::map<std::string, RepeatedWarning> by_format;
};

/** Never destroyed, so warnings from static destructors and the
 *  at-exit flush always find it alive. */
WarningLedger &
warningLedger()
{
    static WarningLedger *const ledger = [] {
        auto *l = new WarningLedger;
        std::atexit(flushRepeatedWarnings);
        return l;
    }();
    return *ledger;
}

} // namespace

uint32_t
threadLogId()
{
    static std::atomic<uint32_t> next{0};
    thread_local const uint32_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

double
logElapsedMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - logEpoch())
        .count();
}

void
setLogLevel(LogLevel level)
{
    g_level = level;
}

LogLevel
logLevel()
{
    return g_level;
}

void
inform(const char *fmt, ...)
{
    if (g_level < LogLevel::Inform)
        return;
    va_list ap;
    va_start(ap, fmt);
    emit("info: ", vformat(fmt, ap));
    va_end(ap);
}

void
warn(const char *fmt, ...)
{
    if (g_level < LogLevel::Warn)
        return;
    std::string msg;
    {
        WarningLedger &ledger = warningLedger();
        std::lock_guard<std::mutex> lock(ledger.mutex);
        auto [it, first] = ledger.by_format.try_emplace(fmt);
        if (!first) {
            ++it->second.repeats;
            return;
        }
        va_list ap;
        va_start(ap, fmt);
        msg = vformat(fmt, ap);
        va_end(ap);
        it->second.first = msg;
    }
    emit("warn: ", msg);
}

void
flushRepeatedWarnings()
{
    std::map<std::string, RepeatedWarning> drained;
    {
        WarningLedger &ledger = warningLedger();
        std::lock_guard<std::mutex> lock(ledger.mutex);
        drained.swap(ledger.by_format);
    }
    if (g_level < LogLevel::Warn)
        return;
    for (const auto &[fmt, w] : drained) {
        if (w.repeats > 0)
            emit("warn: ",
                 strformat("%s (%llu more like this)", w.first.c_str(),
                           static_cast<unsigned long long>(w.repeats)));
    }
}

void
debugLog(const char *fmt, ...)
{
    if (g_level < LogLevel::Debug)
        return;
    va_list ap;
    va_start(ap, fmt);
    emit("debug: ", vformat(fmt, ap));
    va_end(ap);
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    const std::string msg = vformat(fmt, ap);
    va_end(ap);
    emit("fatal: ", msg);
    throw std::runtime_error("fatal: " + msg);
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    const std::string msg = vformat(fmt, ap);
    va_end(ap);
    emit("panic: ", msg);
    throw std::logic_error("panic: " + msg);
}

std::string
strformat(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vformat(fmt, ap);
    va_end(ap);
    return s;
}

} // namespace qbasis

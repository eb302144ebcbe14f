#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "util/logging.hpp"

namespace qbasis {

namespace obs_detail {
std::atomic<bool> g_trace_enabled{false};
thread_local uint64_t g_trace_correlation = 0;
} // namespace obs_detail

namespace {

/** Default per-thread ring capacity (events). ~80 B/event keeps a
 *  busy 16-thread process around 20 MB at this size. */
constexpr size_t kDefaultCapacity = size_t{1} << 14;

size_t
ringCapacity()
{
    static const size_t cap = [] {
        if (const char *env = std::getenv("QBASIS_TRACE_CAPACITY")) {
            const long v = std::atol(env);
            if (v > 0)
                return static_cast<size_t>(v);
        }
        return kDefaultCapacity;
    }();
    return cap;
}

/** One thread's span ring. Lives in a shared_ptr held by both the
 *  owning thread's TLS slot and the global registry, so records
 *  survive thread exit until clearTrace(). The mutex is taken only
 *  on the enabled path (append) and by drains. */
struct ThreadTraceBuffer
{
    std::mutex mutex;
    std::vector<TraceEvent> ring; ///< Size fixed at ringCapacity().
    size_t next = 0;              ///< Write cursor (wraps).
    uint64_t recorded = 0;        ///< Total appends ever.
    uint32_t tid = 0;
    std::string thread_name;
    bool retired = false; ///< Owning thread exited.

    void
    append(const TraceEvent &ev)
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (ring.empty())
            ring.resize(ringCapacity());
        ring[next] = ev;
        next = (next + 1) % ring.size();
        ++recorded;
    }
};

struct TraceRegistry
{
    std::mutex mutex;
    std::vector<std::shared_ptr<ThreadTraceBuffer>> buffers;

    static TraceRegistry &
    instance()
    {
        static TraceRegistry *reg = new TraceRegistry(); // never dtor
        return *reg;
    }
};

/** TLS slot; the destructor marks the buffer retired (its events
 *  stay drainable through the registry's shared_ptr). */
struct ThreadTraceSlot
{
    std::shared_ptr<ThreadTraceBuffer> buffer;

    ~ThreadTraceSlot()
    {
        if (buffer) {
            std::lock_guard<std::mutex> lock(buffer->mutex);
            buffer->retired = true;
        }
    }
};

thread_local ThreadTraceSlot t_trace_slot;

ThreadTraceBuffer &
threadBuffer()
{
    if (!t_trace_slot.buffer) {
        auto buf = std::make_shared<ThreadTraceBuffer>();
        // Trace tids are the logging thread ids, so Perfetto tracks
        // and [Tnn] log prefixes name the same threads.
        buf->tid = threadLogId();
        TraceRegistry &reg = TraceRegistry::instance();
        std::lock_guard<std::mutex> lock(reg.mutex);
        reg.buffers.push_back(buf);
        t_trace_slot.buffer = std::move(buf);
    }
    return *t_trace_slot.buffer;
}

std::chrono::steady_clock::time_point
traceEpoch()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return epoch;
}

void
jsonEscape(std::string &out, const std::string &s)
{
    for (const char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char hex[8];
                std::snprintf(hex, sizeof(hex), "\\u%04x",
                              static_cast<unsigned>(c));
                out += hex;
            } else {
                out += c;
            }
        }
    }
}

/** QBASIS_TRACE / QBASIS_TRACE_FILE startup activation. The static
 *  instance below runs its constructor in any binary that links an
 *  instrumented call site, so every bench/test can be traced with
 *  environment variables alone. */
struct TraceEnvActivation
{
    TraceEnvActivation()
    {
        (void)traceEpoch(); // pin the epoch before any span
        const char *on = std::getenv("QBASIS_TRACE");
        if (on != nullptr && on[0] != '\0' && on[0] != '0')
            setTraceEnabled(true);
        if (std::getenv("QBASIS_TRACE_FILE") != nullptr)
            std::atexit([] {
                const char *path = std::getenv("QBASIS_TRACE_FILE");
                if (path != nullptr && !writeChromeTrace(path))
                    warn("trace: failed to write %s", path);
            });
    }
};

const TraceEnvActivation g_trace_env_activation;

} // namespace

void
setTraceEnabled(bool enabled)
{
    obs_detail::g_trace_enabled.store(enabled,
                                      std::memory_order_relaxed);
}

uint64_t
traceNowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - traceEpoch())
            .count());
}

void
TraceScope::begin(const char *name, const char *a0, uint64_t v0,
                  const char *a1, uint64_t v1)
{
    ev_.name = name;
    ev_.arg_names[0] = a0;
    ev_.arg_values[0] = v0;
    ev_.arg_names[1] = a1;
    ev_.arg_values[1] = v1;
    ev_.correlation = obs_detail::g_trace_correlation;
    ev_.start_ns = traceNowNs();
    active_ = true;
}

void
TraceScope::end()
{
    ev_.dur_ns = traceNowNs() - ev_.start_ns;
    ThreadTraceBuffer &buf = threadBuffer();
    ev_.tid = buf.tid;
    buf.append(ev_);
}

void
setTraceThreadName(const std::string &name)
{
    ThreadTraceBuffer &buf = threadBuffer();
    std::lock_guard<std::mutex> lock(buf.mutex);
    buf.thread_name = name;
}

std::vector<TraceEvent>
traceSnapshot()
{
    // Copy the buffer list first so appends on other threads only
    // contend on their own buffer's mutex, never the registry's.
    std::vector<std::shared_ptr<ThreadTraceBuffer>> buffers;
    {
        TraceRegistry &reg = TraceRegistry::instance();
        std::lock_guard<std::mutex> lock(reg.mutex);
        buffers = reg.buffers;
    }
    std::vector<TraceEvent> out;
    for (const auto &buf : buffers) {
        std::lock_guard<std::mutex> lock(buf->mutex);
        const size_t n = std::min<uint64_t>(buf->recorded,
                                            buf->ring.size());
        // Oldest-first: the cursor points at the oldest record once
        // the ring has wrapped.
        const size_t start = buf->recorded > buf->ring.size()
                                 ? buf->next
                                 : 0;
        for (size_t i = 0; i < n; ++i)
            out.push_back(buf->ring[(start + i) % buf->ring.size()]);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.start_ns < b.start_ns;
                     });
    return out;
}

uint64_t
traceDroppedEvents()
{
    TraceRegistry &reg = TraceRegistry::instance();
    std::lock_guard<std::mutex> lock(reg.mutex);
    uint64_t dropped = 0;
    for (const auto &buf : reg.buffers) {
        std::lock_guard<std::mutex> buf_lock(buf->mutex);
        if (buf->recorded > buf->ring.size())
            dropped += buf->recorded - buf->ring.size();
    }
    return dropped;
}

void
clearTrace()
{
    TraceRegistry &reg = TraceRegistry::instance();
    std::lock_guard<std::mutex> lock(reg.mutex);
    auto it = reg.buffers.begin();
    while (it != reg.buffers.end()) {
        bool retired;
        {
            std::lock_guard<std::mutex> buf_lock((*it)->mutex);
            (*it)->next = 0;
            (*it)->recorded = 0;
            retired = (*it)->retired;
        }
        // Erase only after the buffer lock is released: erasing may
        // drop the last reference and free the mutex it guards.
        if (retired)
            it = reg.buffers.erase(it);
        else
            ++it;
    }
}

std::string
chromeTraceJson()
{
    // Thread-name metadata first, then every span as a "complete"
    // (ph:"X") event; ts/dur are microseconds per the trace-event
    // spec, emitted with ns resolution.
    std::vector<std::pair<uint32_t, std::string>> names;
    {
        TraceRegistry &reg = TraceRegistry::instance();
        std::lock_guard<std::mutex> lock(reg.mutex);
        for (const auto &buf : reg.buffers) {
            std::lock_guard<std::mutex> buf_lock(buf->mutex);
            if (!buf->thread_name.empty())
                names.emplace_back(buf->tid, buf->thread_name);
        }
    }
    const std::vector<TraceEvent> events = traceSnapshot();

    std::string out;
    out.reserve(128 + events.size() * 96);
    out += "{\"traceEvents\":[";
    char line[256];
    bool first = true;
    for (const auto &[tid, name] : names) {
        std::snprintf(line, sizeof(line),
                      "%s\n{\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
                      "\"name\":\"thread_name\",\"args\":{\"name\":\"",
                      first ? "" : ",", tid);
        out += line;
        jsonEscape(out, name);
        out += "\"}}";
        first = false;
    }
    for (const TraceEvent &ev : events) {
        std::snprintf(line, sizeof(line),
                      "%s\n{\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                      "\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f",
                      first ? "" : ",", ev.tid,
                      ev.name != nullptr ? ev.name : "?",
                      static_cast<double>(ev.start_ns) / 1000.0,
                      static_cast<double>(ev.dur_ns) / 1000.0);
        out += line;
        first = false;
        const bool has_args = ev.correlation != 0
                              || ev.arg_names[0] != nullptr
                              || ev.arg_names[1] != nullptr;
        if (has_args) {
            out += ",\"args\":{";
            bool first_arg = true;
            if (ev.correlation != 0) {
                std::snprintf(line, sizeof(line),
                              "\"request_id\":%llu",
                              static_cast<unsigned long long>(
                                  ev.correlation));
                out += line;
                first_arg = false;
            }
            for (int a = 0; a < 2; ++a) {
                if (ev.arg_names[a] == nullptr)
                    continue;
                // Some call sites pass the request id explicitly as
                // an arg AND run under a correlation scope; emit the
                // key once.
                if (ev.correlation != 0
                    && std::string(ev.arg_names[a]) == "request_id")
                    continue;
                std::snprintf(line, sizeof(line), "%s\"%s\":%llu",
                              first_arg ? "" : ",", ev.arg_names[a],
                              static_cast<unsigned long long>(
                                  ev.arg_values[a]));
                out += line;
                first_arg = false;
            }
            out += "}";
        }
        out += "}";
    }
    out += "\n]}\n";
    return out;
}

bool
writeChromeTrace(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const std::string json = chromeTraceJson();
    const size_t written = std::fwrite(json.data(), 1, json.size(), f);
    const bool ok = written == json.size() && std::fclose(f) == 0;
    if (ok)
        inform("trace: wrote %zu events to %s",
               traceSnapshot().size(), path.c_str());
    return ok;
}

} // namespace qbasis

#include "bench.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <mutex>
#include <thread>

#include "calib/drift.hpp"
#include "util/rng.hpp"

namespace qbench {

using namespace qbasis;

std::unique_ptr<CompileService>
setUp(const WorkloadSpec &w, double *seconds)
{
    const auto t0 = Clock::now();
    auto svc = std::make_unique<CompileService>(w.service);
    svc->start(w.devices);
    for (const CompileRequest &req : w.warm_fill) {
        const CompileResponse resp = svc->compileSync(req);
        if (resp.status != CompileStatus::Ok)
            throw std::runtime_error("warm fill failed: " + resp.error);
    }
    *seconds = msSince(t0) / 1000.0;
    return svc;
}

namespace {

void
countInto(PhaseCount &c, const CompileResponse &resp)
{
    ++c.sent;
    switch (resp.status) {
    case CompileStatus::Ok: ++c.ok; break;
    case CompileStatus::Failed: ++c.failed; break;
    case CompileStatus::Rejected: ++c.rejected; break;
    }
}

Sample
sampleOf(const CompileResponse &resp, double latency_ms, double done_s)
{
    Sample s;
    s.latency_ms = static_cast<float>(latency_ms);
    s.done_s = static_cast<float>(done_s);
    s.queue_ms = static_cast<float>(resp.queue_ms);
    s.compile_ms = static_cast<float>(resp.compile_ms);
    s.snapshot_wait_ms = static_cast<float>(resp.snapshot_wait_ms);
    s.path = resp.plan_path;
    s.ok = resp.status == CompileStatus::Ok;
    return s;
}

} // namespace

ClosedLoop
closedLoop(CompileService &svc, const RequestSource &source,
           int clients, double seconds, size_t min_requests,
           size_t keep_served, SampleLog *log)
{
    ClosedLoop out;
    log->clear();
    std::atomic<uint64_t> next{0};
    std::atomic<bool> full{false};
    std::mutex mutex; // guards out and error
    std::exception_ptr error;
    const auto t0 = Clock::now();
    const auto deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    const double cpu0 = processCpuSeconds();
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&] {
            PhaseCount count;
            std::vector<Served> served;
            // An exception must not escape the thread: keep the first
            // one and rethrow it after the join.
            try {
                for (;;) {
                    const uint64_t i = next.fetch_add(1);
                    if (i >= min_requests
                        && (full.load() || Clock::now() >= deadline))
                        break;
                    CompileRequest req = source(i);
                    const auto ts = Clock::now();
                    CompileResponse resp =
                        svc.submit(std::move(req)).get();
                    if (!log->append(sampleOf(resp, msSince(ts),
                                              msSince(t0) / 1000.0)))
                        full.store(true);
                    countInto(count, resp);
                    if (i < keep_served)
                        served.push_back({std::move(resp)});
                }
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex);
                if (!error)
                    error = std::current_exception();
                return;
            }
            std::lock_guard<std::mutex> lock(mutex);
            out.count = totalOf({out.count, count});
            for (Served &s : served)
                out.served.push_back(std::move(s));
        });
    }
    for (std::thread &t : threads)
        t.join();
    if (error)
        std::rethrow_exception(error);
    out.wall_s = msSince(t0) / 1000.0;
    out.cpu_s = processCpuSeconds() - cpu0;
    std::sort(out.served.begin(), out.served.end(),
              [](const Served &a, const Served &b) {
                  return a.resp.request_id < b.resp.request_id;
              });
    out.count.name = "closed_loop";
    return out;
}

ClosedLoop
closedLoopList(CompileService &svc,
               const std::vector<CompileRequest> &reqs, int clients,
               SampleLog *log)
{
    ClosedLoop out = closedLoop(
        svc, [&reqs](uint64_t i) { return reqs[i]; }, clients, 0.0,
        reqs.size(), reqs.size(), log);
    out.count.name = "zoo_pass";
    return out;
}

Rung
openRung(CompileService &svc, const RequestSource &source, uint64_t first,
         double rate, double seconds, double limit_ms, SampleLog *log)
{
    using std::chrono::duration;
    struct Pending
    {
        std::future<CompileResponse> future;
        Clock::time_point due;
    };
    Rung rung;
    rung.rate_rps = rate;
    rung.count.name = "open_" + std::to_string(static_cast<int>(
                                    std::lround(rate))) + "rps";
    log->clear();
    const uint64_t n = std::min<uint64_t>(
        log->capacity(),
        std::max<uint64_t>(
            2, static_cast<uint64_t>(std::llround(rate * seconds))));

    // One thread sends on schedule and, while it waits for the next
    // due time, stamps every finished request: no collector thread
    // competes with the service for a core, and a request is timed
    // when it finishes, not when its predecessor does.
    std::vector<Pending> pending;
    const auto start = Clock::now() + std::chrono::milliseconds(1);
    Clock::time_point last_done{};
    const auto reap = [&] {
        const auto now = Clock::now();
        for (size_t k = 0; k < pending.size();) {
            if (pending[k].future.wait_for(std::chrono::seconds(0))
                != std::future_status::ready) {
                ++k;
                continue;
            }
            const CompileResponse resp = pending[k].future.get();
            countInto(rung.count, resp);
            log->append(sampleOf(
                resp,
                duration<double, std::milli>(now - pending[k].due).count(),
                duration<double>(now - start).count()));
            last_done = now;
            pending[k] = std::move(pending.back());
            pending.pop_back();
        }
    };

    // In flight = rate x latency (Little's law): three times the
    // requests the limit allows in flight is a growing backlog (a host
    // stall of a few ms is not), so the rung has failed and stops
    // sending, and overload never piles up more pending requests.
    const size_t backlog_cap = std::max<size_t>(
        64, static_cast<size_t>(3.0 * rate * limit_ms / 1000.0));
    const double period_s = 1.0 / rate;
    Clock::time_point first_sent{};
    Clock::time_point last_sent{};
    Clock::time_point last_due{};
    uint64_t sent = 0;
    for (uint64_t i = 0; i < n; ++i) {
        if (pending.size() > backlog_cap) {
            rung.overloaded = true;
            break;
        }
        CompileRequest req = source(first + i);
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        duration<double>(period_s * static_cast<double>(i)));
        while (Clock::now() < due) {
            reap();
            std::this_thread::yield();
        }
        last_sent = Clock::now();
        if (i == 0)
            first_sent = last_sent;
        rung.max_lag_ms = std::max(
            rung.max_lag_ms,
            duration<double, std::milli>(last_sent - due).count());
        last_due = due;
        pending.push_back({svc.submit(std::move(req)), due});
        ++sent;
    }
    while (!pending.empty()) {
        reap();
        std::this_thread::yield();
    }

    const auto latency = [](const Sample &s) { return s.latency_ms; };
    const size_t m =
        log->column(latency, [](const Sample &) { return true; });
    // p99, or on a rung too short for it the highest percentile with
    // ten samples beyond it (the tail rule).
    rung.tail_q = std::min(0.99, 1.0 - 10.0 / static_cast<double>(m));
    rung.p99_ms = windowedQuantileInPlace(log->scratch(), m, rung.tail_q);
    rung.max_ms = quantileInPlace(log->scratch(), m, 1.0);
    rung.p50_ms = quantileInPlace(log->scratch(), m, 0.5);
    // Requests due in the rung's last tenth: a backlog that grew
    // through the rung shows in their latency, which the windowed tail
    // of the whole rung can miss.
    const double end_s =
        0.9 * duration<double>(last_due - start).count();
    const size_t m_end = log->column(latency, [end_s](const Sample &s) {
        return s.done_s - s.latency_ms / 1000.0 >= end_s;
    });
    rung.end_p50_ms = quantileInPlace(log->scratch(), m_end, 0.5);
    rung.sent_rps = static_cast<double>(sent - 1)
                    / duration<double>(last_sent - first_sent).count();
    rung.drain_ms =
        duration<double, std::milli>(last_done - last_due).count();
    // A rejected or failed request misses the limit too.
    rung.meets = !rung.overloaded && rung.count.ok == n
                 && rung.p99_ms <= limit_ms && rung.end_p50_ms <= limit_ms;
    return rung;
}

std::array<double, 3>
tierMedians(SampleLog *log)
{
    std::array<double, 3> out{};
    for (int tier = 0; tier < 3; ++tier) {
        const size_t n = log->column(
            [](const Sample &s) { return s.compile_ms; },
            [tier](const Sample &s) {
                return static_cast<int>(s.path) == tier;
            });
        out[static_cast<size_t>(tier)] =
            n > 0 ? quantileInPlace(log->scratch(), n, 0.5) : std::nan("");
    }
    return out;
}

std::vector<RecalibEdgeRequest>
cycleEdges(const FleetDriver &driver, uint64_t cycle)
{
    std::vector<RecalibEdgeRequest> out;
    const DriftModel model;
    for (size_t d = 0; d < driver.deviceCount(); ++d) {
        const FleetDeviceState &state =
            driver.device(static_cast<int>(d));
        const int n_edges =
            static_cast<int>(state.device.coupling().edges().size());
        // A fixed rotation: cycle c retunes the edges e with
        // e % period == (c - 1) % period, so every run retunes the same
        // edges to the same drifted parameters in the same cycle.
        std::vector<int> order;
        for (int e = 0; e < n_edges; ++e) {
            if (static_cast<uint64_t>(e % kRetunePeriod)
                == (cycle - 1) % kRetunePeriod)
                order.push_back(e);
        }
        const uint64_t drift_seed = Rng::deriveSeed(kDriftSeed, d);
        for (const int e : order) {
            RecalibEdgeRequest req;
            req.device_id = static_cast<int>(d);
            req.edge_id = e;
            req.cycle = cycle;
            req.params = driftParamsAt(state.device.edgeParams(e), model,
                                       drift_seed, e, cycle);
            out.push_back(std::move(req));
        }
    }
    return out;
}

Cycle
driftCycle(CompileService &svc, const WorkloadSpec &w, uint64_t cycle,
           SampleLog *log)
{
    Cycle c;
    c.cycle = cycle;
    FleetDriver &driver = svc.driver();
    const std::vector<RecalibEdgeRequest> edges =
        cycleEdges(driver, cycle);
    c.edges = static_cast<int>(edges.size());
    const RecalibScheduler::Stats before = driver.recalibStats();
    const uint64_t plans_before = driver.planCache().stats().retired;

    const auto t0 = Clock::now();
    svc.recalibrate(edges);
    svc.drainRecalibration();
    c.retune_ms = msSince(t0);
    const auto t1 = Clock::now();
    c.classes_retired = driver.retireCache();
    c.retire_ms = msSince(t1);
    c.plans_retired = driver.planCache().stats().retired - plans_before;

    std::vector<CompileRequest> pass = w.zoo_pass;
    for (size_t j = 0; j < pass.size(); ++j)
        pass[j].request_id = kPassIndexBase + cycle * 1000 + j;
    const auto t2 = Clock::now();
    c.pass = closedLoopList(svc, pass, 4, log);
    c.pass_ms = msSince(t2);
    c.tier_ms = tierMedians(log);
    c.cycle_ms = msSince(t0);

    const RecalibScheduler::Stats after = driver.recalibStats();
    c.presynth_owned = after.presynth_owned - before.presynth_owned;
    c.retries = after.retries - before.retries;
    c.window_extensions =
        after.window_extensions - before.window_extensions;
    c.busy_ms = after.busy_ms - before.busy_ms;
    return c;
}

Circuit
shiftOneQubitAngles(const Circuit &c, uint64_t seed)
{
    Rng rng(seed);
    Circuit out(c.numQubits());
    for (Gate g : c.gates()) {
        if (!g.isTwoQubit()) {
            for (double &p : g.params)
                p += rng.uniform(0.05, 0.25);
        }
        out.append(std::move(g));
    }
    return out;
}

} // namespace qbench

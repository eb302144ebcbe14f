#include "calib/async/recalib_scheduler.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"
#include "weyl/gates.hpp"
#include "weyl/kak.hpp"

namespace qbasis {

namespace {

/** Registry mirrors of the scheduler's retry/quarantine stats. */
struct RecalibMetrics
{
    Counter &scheduled;
    Counter &completed;
    Counter &published;
    Counter &retries;
    Counter &contained_errors;
    Counter &quarantine_skipped;

    static RecalibMetrics &
    instance()
    {
        MetricsRegistry &reg = MetricsRegistry::instance();
        static RecalibMetrics m{
            reg.counter("recalib.scheduled"),
            reg.counter("recalib.completed"),
            reg.counter("recalib.published"),
            reg.counter("recalib.retries"),
            reg.counter("recalib.contained_errors"),
            reg.counter("recalib.quarantine_skipped")};
        return m;
    }
};

// One probe per pipeline stage; keys are the logical edge identity,
// so a fault campaign replays bit-identically at any shard count.
const FaultSite kFaultRecalibSimulate("recalib.simulate");
const FaultSite kFaultRecalibSelect("recalib.select");
const FaultSite kFaultRecalibResynth("recalib.resynth");

uint64_t
edgeFaultKey(int device_id, int edge_id)
{
    return (static_cast<uint64_t>(static_cast<uint32_t>(device_id))
            << 32)
           | static_cast<uint32_t>(edge_id);
}

std::string
describeError(const std::exception_ptr &error)
{
    try {
        std::rethrow_exception(error);
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "unknown error";
    }
}

} // namespace

/** One in-flight edge pipeline (owned by its stage closures). */
struct RecalibScheduler::Task
{
    RecalibJob job;
    std::unique_ptr<PairSimulator> sim;
    double window_ns = 0.0;
    int extensions_used = 0;
    /** Whole-pipeline restarts already consumed by this task. */
    int retries_used = 0;
    bool selected = false;
    Trajectory traj;
    EdgeCalibration cal;
};

RecalibScheduler::RecalibScheduler(ThreadPool &pool,
                                   DecompositionCache &cache,
                                   RecalibSchedulerOptions opts)
    : pool_(pool), cache_(cache), opts_(std::move(opts)),
      epoch_(std::chrono::steady_clock::now())
{
}

RecalibScheduler::~RecalibScheduler()
{
    try {
        drain();
    } catch (const std::exception &e) {
        warn("RecalibScheduler: dropping error at destruction: %s",
             e.what());
    } catch (...) {
        warn("RecalibScheduler: dropping error at destruction");
    }
}

double
RecalibScheduler::nowMs() const
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

void
RecalibScheduler::noteStage(double t0_ms)
{
    const double t1_ms = nowMs();
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.busy_ms += t1_ms - t0_ms;
    if (stats_.window_start_ms < 0.0
        || t0_ms < stats_.window_start_ms)
        stats_.window_start_ms = t0_ms;
    if (t1_ms > stats_.window_end_ms)
        stats_.window_end_ms = t1_ms;
}

void
RecalibScheduler::schedule(RecalibJob job)
{
    if (job.device == nullptr || job.target == nullptr)
        panic("RecalibScheduler: job without device/target");
    const EdgeKey key{job.device_id, job.edge_id};
    std::shared_ptr<Task> start;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto quarantined = quarantine_.find(key);
        if (quarantined != quarantine_.end()) {
            if (job.cycle < quarantined->second.release_cycle) {
                // Cycle-denominated backoff: the edge sits out until
                // a job stamped at/after the release cycle arrives.
                // The device keeps serving the last-good basis.
                ++stats_.quarantine_skipped;
                RecalibMetrics::instance().quarantine_skipped.add();
                return;
            }
            quarantine_.erase(quarantined);
        }
        ++stats_.scheduled;
        RecalibMetrics::instance().scheduled.add();
        EdgeQueue &q = queues_[key];
        if (q.running) {
            // The edge already has a pipeline in flight: strict FIFO
            // per edge, so cycle c+1 observes cycle c's publish.
            q.pending.push_back(std::move(job));
        } else {
            q.running = true;
            ++inflight_;
            start = std::make_shared<Task>();
            start->job = std::move(job);
        }
    }
    if (start)
        submitSimulate(std::move(start));
}

void
RecalibScheduler::submitSimulate(std::shared_ptr<Task> task)
{
    pool_.submit(
        [this, task = std::move(task)] {
            const double t0 = nowMs();
            try {
                stageSimulate(task);
            } catch (...) {
                noteStage(t0);
                completeTask(task, std::current_exception());
                return;
            }
            noteStage(t0);
            submitSelect(task);
        },
        TaskPriority::Background);
}

void
RecalibScheduler::submitSelect(std::shared_ptr<Task> task)
{
    pool_.submit(
        [this, task = std::move(task)] {
            const double t0 = nowMs();
            try {
                stageSelect(task);
            } catch (...) {
                noteStage(t0);
                completeTask(task, std::current_exception());
                return;
            }
            noteStage(t0);
            // No crossing in this window: double it and loop the
            // pipeline back to stage 1, mirroring the serial
            // calibrateDevice() extension loop.
            if (task->selected)
                submitResynthesize(task);
            else
                submitSimulate(task);
        },
        TaskPriority::Background);
}

void
RecalibScheduler::submitResynthesize(std::shared_ptr<Task> task)
{
    pool_.submit(
        [this, task = std::move(task)] {
            const double t0 = nowMs();
            try {
                stageResynthesize(task);
            } catch (...) {
                noteStage(t0);
                completeTask(task, std::current_exception());
                return;
            }
            noteStage(t0);
            completeTask(task, nullptr);
        },
        TaskPriority::Background);
}

void
RecalibScheduler::stageSimulate(const std::shared_ptr<Task> &task)
{
    RecalibJob &job = task->job;
    QBASIS_TRACE_SCOPE(
        "recalib.simulate", "device",
        static_cast<uint64_t>(static_cast<uint32_t>(job.device_id)),
        "edge",
        static_cast<uint64_t>(static_cast<uint32_t>(job.edge_id)));
    faultPoint(kFaultRecalibSimulate,
               edgeFaultKey(job.device_id, job.edge_id));
    if (!task->sim) {
        task->sim = std::make_unique<PairSimulator>(
            job.params, job.device->couplerOmegaMax(),
            opts_.calib.sim);
        task->window_ns = opts_.calib.max_ns;
        task->cal = EdgeCalibration{};
        task->cal.edge_id = job.edge_id;
        task->cal.xi = job.xi;
        task->cal.omega_c0 = task->sim->omegaC0();
        task->cal.zz_residual = task->sim->zzResidual();
        task->cal.omega_d = task->sim->calibrateDriveFrequency(job.xi);
    } else {
        // Window extension re-entry.
        task->window_ns *= 2.0;
        ++task->extensions_used;
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.window_extensions;
    }
    task->traj = task->sim->simulateTrajectory(
        job.xi, task->cal.omega_d, task->window_ns);
}

void
RecalibScheduler::stageSelect(const std::shared_ptr<Task> &task)
{
    QBASIS_TRACE_SCOPE("recalib.select", "device",
                       static_cast<uint64_t>(static_cast<uint32_t>(
                           task->job.device_id)),
                       "edge",
                       static_cast<uint64_t>(static_cast<uint32_t>(
                           task->job.edge_id)));
    faultPoint(kFaultRecalibSelect,
               edgeFaultKey(task->job.device_id, task->job.edge_id));
    const std::optional<SelectedBasisGate> sel = selectBasisGate(
        task->traj, task->job.criterion, opts_.calib.selector);
    if (sel) {
        task->cal.gate = *sel;
        task->selected = true;
        return;
    }
    if (task->extensions_used >= opts_.calib.max_extensions) {
        throw std::runtime_error(
            "recalibration: edge " + std::to_string(task->job.edge_id)
            + " of device " + std::to_string(task->job.device_id)
            + ": no basis gate satisfied criterion '"
            + criterionName(task->job.criterion) + "' within "
            + std::to_string(task->window_ns) + " ns");
    }
    task->selected = false;
}

void
RecalibScheduler::stageResynthesize(const std::shared_ptr<Task> &task)
{
    QBASIS_TRACE_SCOPE("recalib.resynth", "device",
                       static_cast<uint64_t>(static_cast<uint32_t>(
                           task->job.device_id)),
                       "edge",
                       static_cast<uint64_t>(static_cast<uint32_t>(
                           task->job.edge_id)));
    // Probe before any side effect: a firing probe must leave the
    // edge's published state untouched (no torn publish).
    faultPoint(kFaultRecalibResynth,
               edgeFaultKey(task->job.device_id, task->job.edge_id));
    EdgeCalibration &cal = task->cal;
    cal.calibrated_cycle = task->job.cycle;

    if (opts_.presynthesize) {
        // Warm the SWAP and CNOT classes of the new basis through
        // the shared cache's claim/publish protocol so the first
        // compile against the new basis pays no synthesis. Never
        // wait(): this runs on a pool worker, and a Pending class is
        // already being synthesized by its claim owner.
        const Mat4 targets[] = {swapGate(), cnotGate()};
        for (const Mat4 &target : targets) {
            const CanonicalKak kak = canonicalKakDecompose(target);
            const DecompositionCache::ClassKey key =
                DecompositionCache::classKey(kak.coords, cal.gate.gate,
                                             opts_.synth);
            const TwoQubitDecomposition *dec = nullptr;
            switch (cache_.acquire(key, task->job.device_id, 1,
                                   &dec)) {
            case DecompositionCache::Claim::Owner: {
                // The guard abandons the claim if synthesis throws,
                // so a waiter re-claims instead of blocking forever.
                ClaimGuard guard(&cache_, key);
                cache_.publish(key,
                               synthesizeGate(
                                   DecompositionCache::classGate(key),
                                   cal.gate.gate, opts_.synth));
                guard.release();
                {
                    std::lock_guard<std::mutex> lock(mutex_);
                    ++stats_.presynth_owned;
                }
                break;
            }
            case DecompositionCache::Claim::Ready: {
                std::lock_guard<std::mutex> lock(mutex_);
                ++stats_.presynth_ready;
                break;
            }
            case DecompositionCache::Claim::Pending: {
                std::lock_guard<std::mutex> lock(mutex_);
                ++stats_.presynth_pending;
                break;
            }
            }
        }
    }

    // Atomic swap: readers see the new edges[e]/bases[e] pair
    // together or not at all.
    EdgeBasis basis;
    basis.gate = cal.gate.gate;
    basis.duration_ns = cal.gate.duration_ns;
    basis.label = task->job.label;
    task->job.target->publishEdge(cal, basis);
    RecalibMetrics::instance().published.add();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.published;
    }
}

void
RecalibScheduler::completeTask(const std::shared_ptr<Task> &task,
                               std::exception_ptr error)
{
    const RecalibPolicy &policy = opts_.policy;
    const EdgeKey key{task->job.device_id, task->job.edge_id};
    std::shared_ptr<Task> next;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (error && policy.contain_failures
            && task->retries_used < policy.max_stage_retries) {
            // Bounded retry: restart the whole pipeline on a fresh
            // Task (stage 1 is not re-entrant after a mid-stage
            // failure -- a half-built Task would wrongly take the
            // window-extension branch). The edge queue stays
            // `running`, so FIFO order is preserved.
            ++stats_.retries;
            RecalibMetrics::instance().retries.add();
            next = std::make_shared<Task>();
            next->job = task->job;
            next->retries_used = task->retries_used + 1;
        } else {
            ++stats_.completed;
            RecalibMetrics::instance().completed.add();
            uint64_t release_cycle = 0;
            bool quarantined = false;
            if (error) {
                if (policy.contain_failures) {
                    // Retry budget exhausted: quarantine the edge.
                    // Its device keeps serving the last-good basis;
                    // drain() does not fail.
                    ++stats_.contained_errors;
                    RecalibMetrics::instance().contained_errors.add();
                    Quarantine &quar = quarantine_[key];
                    quar.since_cycle = task->job.cycle;
                    quar.release_cycle =
                        task->job.cycle
                        + std::max<uint64_t>(1,
                                             policy.quarantine_cycles);
                    quar.failures +=
                        static_cast<uint64_t>(task->retries_used) + 1;
                    quar.error = describeError(error);
                    release_cycle = quar.release_cycle;
                    quarantined = true;
                    warn("RecalibScheduler: quarantined edge %d of "
                         "device %d until cycle %llu: %s",
                         task->job.edge_id, task->job.device_id,
                         static_cast<unsigned long long>(
                             release_cycle),
                         quar.error.c_str());
                } else {
                    errors_.emplace(
                        std::make_tuple(task->job.device_id,
                                        task->job.edge_id,
                                        task->job.cycle),
                        error);
                }
            }
            EdgeQueue &q = queues_[key];
            if (quarantined) {
                // Drop queued jobs inside the quarantine window; a
                // queued job at/after the release cycle lifts it.
                while (!q.pending.empty()
                       && q.pending.front().cycle < release_cycle) {
                    ++stats_.quarantine_skipped;
                    RecalibMetrics::instance().quarantine_skipped.add();
                    q.pending.pop_front();
                }
                if (!q.pending.empty())
                    quarantine_.erase(key);
            }
            if (!q.pending.empty()) {
                next = std::make_shared<Task>();
                next->job = std::move(q.pending.front());
                q.pending.pop_front();
            } else {
                q.running = false;
                if (--inflight_ == 0)
                    idle_cv_.notify_all();
            }
        }
    }
    if (next)
        submitSimulate(std::move(next));
}

void
RecalibScheduler::drain()
{
    std::exception_ptr first;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        idle_cv_.wait(lock, [this] { return inflight_ == 0; });
        if (!errors_.empty()) {
            first = errors_.begin()->second;
            errors_.clear();
        }
    }
    if (first)
        std::rethrow_exception(first);
}

RecalibScheduler::Stats
RecalibScheduler::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::vector<EdgeQuarantine>
RecalibScheduler::quarantined() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<EdgeQuarantine> out;
    out.reserve(quarantine_.size());
    for (const auto &[key, quar] : quarantine_) {
        EdgeQuarantine e;
        e.device_id = key.first;
        e.edge_id = key.second;
        e.since_cycle = quar.since_cycle;
        e.release_cycle = quar.release_cycle;
        e.failures = quar.failures;
        e.error = quar.error;
        out.push_back(std::move(e));
    }
    return out;
}

void
RecalibScheduler::resetWindow()
{
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.window_start_ms = -1.0;
    stats_.window_end_ms = -1.0;
}

} // namespace qbasis

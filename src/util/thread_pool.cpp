#include "util/thread_pool.hpp"

#include <chrono>
#include <exception>
#include <string>

#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace qbasis {

namespace {

/** Worker index of the current thread, or SIZE_MAX off-pool. */
thread_local size_t tls_worker_index = SIZE_MAX;
/** Pool owning the current worker thread. */
thread_local const void *tls_worker_pool = nullptr;

} // namespace

int
ThreadPool::hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

ThreadPool::ThreadPool(int threads)
{
    if (threads < 0)
        fatal("ThreadPool: negative thread count %d", threads);
    if (threads == 0)
        threads = hardwareThreads();
    workers_.reserve(static_cast<size_t>(threads));
    for (int i = 0; i < threads; ++i)
        workers_.push_back(std::make_unique<Worker>());
    threads_.reserve(static_cast<size_t>(threads));
    for (int i = 0; i < threads; ++i)
        threads_.emplace_back([this, i] {
            setTraceThreadName("pool-worker-" + std::to_string(i));
            workerLoop(static_cast<size_t>(i));
        });
}

ThreadPool::~ThreadPool()
{
    stop_.store(true);
    sleep_cv_.notify_all();
    for (auto &t : threads_)
        t.join();
}

void
ThreadPool::submit(std::function<void()> task, TaskPriority priority)
{
    size_t slot;
    if (tls_worker_pool == this) {
        // Worker threads push to their own deque for locality.
        slot = tls_worker_index;
    } else {
        slot = submit_counter_.fetch_add(1) % workers_.size();
    }
    {
        std::lock_guard<std::mutex> lock(workers_[slot]->mutex);
        if (priority == TaskPriority::Background)
            workers_[slot]->background.push_back(std::move(task));
        else
            workers_[slot]->tasks.push_back(std::move(task));
    }
    // Serialize against the worker's empty-rescan before notifying:
    // without this a push landing between a worker's rescan and its
    // wait() would have its notification dropped, stalling the task
    // for a full wait_for timeout.
    { std::lock_guard<std::mutex> lock(sleep_mutex_); }
    sleep_cv_.notify_one();
}

bool
ThreadPool::tryRunLane(size_t self, bool background)
{
    std::function<void()> task;
    {
        // Own deque first (front; most recently local-submitted work
        // stays hot at the back for thieves).
        Worker &w = *workers_[self];
        std::lock_guard<std::mutex> lock(w.mutex);
        auto &lane = background ? w.background : w.tasks;
        if (!lane.empty()) {
            task = std::move(lane.front());
            lane.pop_front();
        }
    }
    if (!task) {
        // Steal from the back of a sibling deque.
        const size_t n = workers_.size();
        for (size_t k = 1; k < n && !task; ++k) {
            Worker &v = *workers_[(self + k) % n];
            std::lock_guard<std::mutex> lock(v.mutex);
            auto &lane = background ? v.background : v.tasks;
            if (!lane.empty()) {
                task = std::move(lane.back());
                lane.pop_back();
            }
        }
    }
    if (!task)
        return false;
    task();
    return true;
}

bool
ThreadPool::tryRun(size_t self)
{
    // Exhaust the Normal lane pool-wide before taking a Background
    // task: recalibration work never outcompetes the serving path
    // for a free worker.
    return tryRunLane(self, /*background=*/false)
           || tryRunLane(self, /*background=*/true);
}

void
ThreadPool::workerLoop(size_t self)
{
    tls_worker_index = self;
    tls_worker_pool = this;
    for (;;) {
        if (tryRun(self))
            continue;
        std::unique_lock<std::mutex> lock(sleep_mutex_);
        if (stop_.load())
            break;
        // Re-check for work while holding the sleep lock; submit()
        // touches the sleep lock after pushing, so any push landing
        // after this rescan notifies once we are in wait_for below.
        bool any = false;
        for (const auto &w : workers_) {
            std::lock_guard<std::mutex> wl(w->mutex);
            if (!w->tasks.empty() || !w->background.empty()) {
                any = true;
                break;
            }
        }
        if (any)
            continue;
        sleep_cv_.wait_for(lock, std::chrono::milliseconds(50));
    }
    tls_worker_pool = nullptr;
    tls_worker_index = SIZE_MAX;
}

void
ThreadPool::parallelFor(size_t n, const std::function<void(size_t)> &fn)
{
    if (n == 0)
        return;
    struct State
    {
        std::atomic<size_t> remaining;
        std::mutex mutex;
        std::condition_variable done;
        std::vector<std::exception_ptr> errors;
    };
    auto state = std::make_shared<State>();
    state->remaining.store(n);
    state->errors.resize(n);

    for (size_t i = 0; i < n; ++i) {
        submit([state, i, &fn] {
            try {
                fn(i);
            } catch (...) {
                state->errors[i] = std::current_exception();
            }
            if (state->remaining.fetch_sub(1) == 1) {
                std::lock_guard<std::mutex> lock(state->mutex);
                state->done.notify_all();
            }
        });
    }

    // Take the errors out under the lock: a worker may still hold the
    // last reference to `state`, and the exceptions must not be freed
    // on its thread while the caller is reading the one rethrown.
    std::vector<std::exception_ptr> errors;
    {
        std::unique_lock<std::mutex> lock(state->mutex);
        state->done.wait(lock,
                         [&] { return state->remaining.load() == 0; });
        errors.swap(state->errors);
    }
    for (const std::exception_ptr &err : errors) {
        if (err)
            std::rethrow_exception(err);
    }
}

} // namespace qbasis

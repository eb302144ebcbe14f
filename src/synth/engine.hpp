#ifndef QBASIS_SYNTH_ENGINE_HPP
#define QBASIS_SYNTH_ENGINE_HPP

/**
 * @file
 * Parallel two-qubit synthesis engine.
 *
 * The engine batches every synthesis job of a compilation pass (all
 * 2Q gates of a circuit, or all SWAP/CNOT summaries of a device
 * sweep), dedupes them through the Weyl-class cache, and fans the
 * remaining class syntheses over a work-stealing thread pool:
 *
 *  - one *job* per distinct (basis, options, canonical-coords) class;
 *  - per job, a *wave* of multistart restarts at the current depth
 *    runs concurrently, each restart on its own splitmix-derived RNG
 *    stream;
 *  - the first restart (in index order) that reaches the target
 *    infidelity wins; restarts with larger indices are cooperatively
 *    cancelled (lower indices run to completion so the winner never
 *    depends on thread timing), and queued restarts that have not
 *    started yet are *pruned* outright once a smaller index succeeds
 *    (they would have been cancelled anyway, so skipping their setup
 *    cannot change the winner);
 *  - if a wave fails, the job advances one depth and launches the
 *    next wave (waves of different jobs interleave freely).
 *
 * Results are bit-identical to synthesizeGate() on each class gate
 * for a fixed seed, independent of thread count and completion
 * order: restart streams are derived (not shared), selection is by
 * index rather than by completion time, and classes publish in
 * first-appearance order.
 *
 * Batches accept a TaskPriority: recalibration resynthesis submits
 * at TaskPriority::Background so its waves never outcompete
 * compile-path (Normal) jobs for pool workers. Priority only biases
 * dequeue order; results are bit-identical across lanes.
 */

#include <atomic>
#include <memory>
#include <vector>

#include "synth/cache.hpp"
#include "util/thread_pool.hpp"

namespace qbasis {

/** One two-qubit synthesis request (a target gate against a basis). */
struct SynthRequest
{
    int edge_id = -1; ///< Originating device edge (diagnostics only).
    Mat4 target;      ///< Gate to decompose.
    Mat4 basis;       ///< Edge basis gate to decompose into.
};

/** Thread-pooled batch synthesizer. */
class SynthEngine
{
  public:
    /** Create an engine with its own pool; 0 threads = hardware. */
    explicit SynthEngine(int threads = 0);

    /**
     * Create an engine on a borrowed pool (the fleet driver runs one
     * engine per shard on one process-wide pool). The pool must
     * outlive the engine.
     */
    explicit SynthEngine(ThreadPool &pool);

    /**
     * Synthesize every request on behalf of device `device_id`,
     * using and filling `cache`.
     *
     * Returns one decomposition per request, in request order. The
     * cache's hit/miss counters advance exactly as if the requests
     * had been looked up one by one in order.
     *
     * Safe to call concurrently from multiple (non-pool) threads on
     * the same engine or on sibling engines sharing the pool. Classes
     * already claimed by a concurrent batch are awaited rather than
     * re-synthesized, so each class is synthesized once per cache.
     * Results are bit-identical for a fixed SynthOptions::seed,
     * independent of client count, as long as clients sharing a
     * class hash use byte-identical basis matrices (true for
     * replicated fleet devices; sub-1e-9 basis differences would
     * share the class anyway by construction of the key).
     */
    std::vector<TwoQubitDecomposition>
    synthesizeBatch(const std::vector<SynthRequest> &requests,
                    DecompositionCache &cache,
                    const SynthOptions &opts, int device_id = 0,
                    TaskPriority priority = TaskPriority::Normal);

    /** Worker threads in the pool. */
    int threadCount() const { return pool_->size(); }

    /** Cumulative restart accounting across batches. */
    struct Stats
    {
        /** Restarts that actually ran the optimizer. */
        uint64_t restarts_run = 0;
        /** Queued restarts skipped at dequeue time because a
         *  smaller-index restart of their wave had already reached
         *  the target (submission-time pruning). */
        uint64_t restarts_pruned = 0;
        /** Restarts that threw and were contained as aborted slots
         *  (the job fails only when every restart of every wave
         *  fails; see the failure-model notes in the README). */
        uint64_t restarts_failed = 0;
        /** Mat4 kernel backend the engine's synthesis math ran on
         *  ("scalar" or "avx2"; see linalg/mat4_kernels.hpp). */
        const char *mat4_backend = "";
    };

    Stats stats() const;
    void resetStats();

    /**
     * Process-wide engine sized from QBASIS_SYNTH_THREADS (or the
     * hardware concurrency when unset); shared by the transpiler and
     * the experiment drivers.
     */
    static SynthEngine &shared();

  private:
    std::unique_ptr<ThreadPool> owned_; ///< Null for borrowed pools.
    ThreadPool *pool_;
    std::atomic<uint64_t> restarts_run_{0};
    std::atomic<uint64_t> restarts_pruned_{0};
    std::atomic<uint64_t> restarts_failed_{0};
};

/**
 * The one synthesis route: a device's submissions, on one lane,
 * through an engine into a Weyl-class cache. The transpiler, the
 * compile API, the experiment drivers, and the benches all submit
 * through this handle. A fleet hands every device the same cache, so
 * identical bases on different devices dedupe onto one synthesis; a
 * standalone caller passes its own unshared cache, usually with
 * SynthEngine::shared() as the engine.
 *
 * The client never owns what it points at; the engine and cache must
 * outlive every call made through it.
 */
struct SynthClient
{
    SynthEngine &engine;
    DecompositionCache &cache;
    int device_id = 0;
    /** Lane of this client's pool submissions; recalibration clients
     *  use Background so they never starve compile-path batches. */
    TaskPriority priority = TaskPriority::Normal;

    std::vector<TwoQubitDecomposition>
    synthesizeBatch(const std::vector<SynthRequest> &requests,
                    const SynthOptions &opts) const
    {
        return engine.synthesizeBatch(requests, cache, opts,
                                      device_id, priority);
    }
};

/** The benchmark in qbench/ spells the route by its pre-merge name. */
using SynthRoute = SynthClient;

} // namespace qbasis

#endif // QBASIS_SYNTH_ENGINE_HPP

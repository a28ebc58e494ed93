/**
 * @file
 * Backend adapter that executes shot batches on a thread pool.
 *
 * ParallelBackend wraps any ShardedBackend (TrajectorySimulator,
 * IdealSimulator): it clones one simulator per worker thread, splits
 * every run() into a ShotPlan of fixed-size batches, binds batch i
 * to the RNG substream derived at index i, and merges the per-batch
 * histograms in batch-index order. An atomic cursor hands batches
 * out; the calling thread claims them beside at most
 * min(batches - 1, pool size) pool helpers, so a one-batch run
 * executes inline with no pool round trip. The merged Counts is bit-identical for the same seed
 * regardless of thread count (see docs/runtime.md).
 *
 * Failure semantics (docs/resilience.md): every batch runs through
 * attemptBatch(), inline on whichever thread claimed it. A batch that throws
 * TransientError is re-submitted with exponential backoff up to
 * RuntimeOptions::maxRetries times; each attempt re-derives its
 * index-keyed RNG substream, so the merged histogram is unchanged
 * by which batches failed. Exhausted batches either abort the run
 * with BudgetExhausted (SalvageMode::FailFast) or are dropped and
 * reported in RunOutcome (SalvageMode::DropBatches). Setting
 * `INVERTQ_FAULTS` wraps every worker in a FaultInjectingBackend
 * (see fault_injection.hh).
 */

#ifndef QEM_RUNTIME_PARALLEL_BACKEND_HH
#define QEM_RUNTIME_PARALLEL_BACKEND_HH

#include <memory>
#include <mutex>
#include <vector>

#include "qsim/simulator.hh"
#include "runtime/batch_attempt.hh"
#include "runtime/runtime_stats.hh"
#include "runtime/shot_plan.hh"
#include "runtime/thread_pool.hh"

namespace qem
{

/** Tuning knobs for the parallel execution runtime. */
struct RuntimeOptions
{
    /**
     * Threads that execute batches, the calling thread included
     * (the pool holds numThreads - 1); 0 = one per hardware thread.
     */
    unsigned numThreads = 0;
    /** Shots per batch (the unit of parallel work). */
    std::size_t batchSize = 256;
    /**
     * Re-submissions allowed per batch after a TransientError
     * before the batch counts as lost; 0 disables retrying.
     * FatalError and non-taxonomy exceptions are never retried.
     */
    unsigned maxRetries = 2;
    /** Backoff between re-submissions of a batch. */
    BackoffPolicy backoff{};
    /** What to do with a batch whose retry budget ran out. */
    SalvageMode salvage = SalvageMode::FailFast;
};

class ParallelBackend : public Backend
{
  public:
    /**
     * @param prototype Simulator to clone per worker (not retained).
     * @param seed Root of the runtime's RNG tree; each run() call
     *             derives a fresh job stream, each batch a substream
     *             of that, so repeated runs differ but a
     *             reconstructed backend replays the same sequence —
     *             mirroring the serial simulators' contract.
     * @param options Thread count, batch size and retry budget.
     * @throws std::invalid_argument for a zero batch size, an
     *         invalid BackoffPolicy, or a malformed INVERTQ_FAULTS.
     */
    ParallelBackend(const ShardedBackend& prototype,
                    std::uint64_t seed,
                    RuntimeOptions options = {});

    Counts run(const Circuit& circuit, std::size_t shots) override;

    unsigned numQubits() const override
    {
        return workers_.front()->numQubits();
    }

    /** Threads that execute batches: the pool plus the caller. */
    unsigned numThreads() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Throughput and failure accounting of the most recent run().
     * stats().valid is false before the first run() and after a
     * run() that threw — a failed run never reports the previous
     * run's numbers.
     *
     * The returned reference aliases state the next run() on this
     * backend rewrites; callers that share a backend across threads
     * (or read stats while another thread may call run()) must use
     * statsSnapshot() instead.
     */
    const RuntimeStats& lastRunStats() const { return stats_; }

    /** Failure-semantics summary of the most recent run(). Same
     *  aliasing caveat as lastRunStats(). */
    const RunOutcome& lastOutcome() const { return stats_.outcome; }

    /** Thread-safe copy of the most recent run()'s stats. */
    RuntimeStats statsSnapshot() const
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        return stats_;
    }

    /**
     * Mark the current stats invalid without running. Callers that
     * wrap several run() calls into one logical operation (e.g.
     * MachineSession::runPolicy) use this so an operation that
     * fails before its first batch cannot show stale throughput.
     */
    void invalidateStats()
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        stats_ = RuntimeStats{};
    }

  private:
    std::vector<std::unique_ptr<ShardedBackend>> workers_;
    std::unique_ptr<ThreadPool> pool_; // Null for a single worker.
    /**
     * Held by the run() executing batches on the last worker clone
     * (the caller's); a concurrent run() that cannot take it leaves
     * its batches to the pool.
     */
    std::mutex callerSlotMutex_;
    Rng rng_;
    RuntimeOptions options_;
    /** Guards stats_ and the per-run job-stream draw from rng_. */
    mutable std::mutex statsMutex_;
    RuntimeStats stats_;
};

} // namespace qem

#endif // QEM_RUNTIME_PARALLEL_BACKEND_HH

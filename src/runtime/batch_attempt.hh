/**
 * @file
 * Failure semantics for the execution runtime: the error taxonomy
 * every layer above the backend speaks, a deterministic
 * exponential-backoff schedule, and attemptBatch(), the one
 * retry/salvage loop both ParallelBackend and the job service run
 * every shot batch through.
 *
 * The paper's policies assume every trial batch submitted to the
 * machine comes back; real cloud backends (the IBM queues the paper
 * ran on) drop jobs, time out, and return partial results. This
 * module gives callers a vocabulary to tell those cases apart:
 *
 *   - TransientError   "try again" — queue hiccup, lost connection,
 *                      injected fault. The only retryable kind.
 *   - FatalError       "never retry" — malformed circuit, a backend
 *                      that cannot run this program at all.
 *   - BudgetExhausted  "the runtime gave up" — a batch ran out of
 *                      retries, or a policy refused to merge an
 *                      under-budget mode.
 *
 * Exceptions outside the taxonomy (std::logic_error from an
 * unsupported RESET, bad_alloc, ...) are treated as fatal and
 * propagate unchanged, so pre-existing error contracts are intact.
 */

#ifndef QEM_RUNTIME_BATCH_ATTEMPT_HH
#define QEM_RUNTIME_BATCH_ATTEMPT_HH

#include <exception>
#include <functional>
#include <stdexcept>
#include <string>

#include "qsim/rng.hh"
#include "qsim/simulator.hh"
#include "runtime/runtime_stats.hh"
#include "runtime/shot_plan.hh"

namespace qem
{

/** Base of the runtime failure taxonomy. */
class BackendError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** A failure worth retrying (dropped job, queue hiccup). */
class TransientError : public BackendError
{
  public:
    using BackendError::BackendError;
};

/** A failure retrying cannot fix (rejected program, dead device). */
class FatalError : public BackendError
{
  public:
    using BackendError::BackendError;
};

/**
 * A batch ran out of retries, or a policy refused to merge a
 * result that came back under budget.
 */
class BudgetExhausted : public BackendError
{
  public:
    using BackendError::BackendError;
};

/** Exponential backoff with deterministic jitter. */
struct BackoffPolicy
{
    /** Delay before the first retry. */
    double baseSeconds = 0.005;
    /** Upper bound on any single delay. */
    double maxSeconds = 1.0;
    /**
     * Jitter fraction in [0, 1): attempt k sleeps
     * base * 2^k * U[1 - jitter, 1 + jitter), capped at maxSeconds.
     * Draws come from the caller's Rng, so a fixed seed replays the
     * exact delay sequence.
     */
    double jitter = 0.5;

    /** Delay (seconds) before retry number @p attempt (0-based). */
    double delaySeconds(unsigned attempt, Rng& rng) const;

    /**
     * Throw std::invalid_argument unless every field is finite,
     * both durations are >= 0 and jitter lies in [0, 1).
     */
    void validate() const;
};

/** True when @p e is retryable under the taxonomy. */
bool isTransient(const std::exception& e);

/** Sleep the calling thread for @p seconds (no-op when <= 0). */
void backoffSleep(double seconds);

/** What one batch came to after all its attempts. */
struct BatchResult
{
    /** The batch's histogram; meaningful only when ok(). */
    Counts counts{0};
    /**
     * Retries ran out under SalvageMode::DropBatches: the batch is
     * lost and `error` holds its last transient failure.
     */
    bool dropped = false;
    /**
     * Why the batch has no counts: the last transient failure of a
     * dropped batch, BudgetExhausted for one that ran out of
     * retries under FailFast, or the fatal / non-taxonomy
     * exception itself. Null on success.
     */
    std::exception_ptr error;
    /** Re-submissions after the first attempt. */
    unsigned retries = 0;
    /** Seconds slept in backoff. */
    double backoffSeconds = 0.0;

    bool ok() const { return !error; }
};

/**
 * Called before each backoff sleep with the 1-based retry number,
 * the delay about to be slept, and the failure that caused it.
 */
using RetryObserver = std::function<void(
    unsigned retry, double delay, const TransientError& cause)>;

/**
 * Run @p batch of a job to completion: every attempt re-derives
 * the batch's substream ShotPlan::substream(@p job, batch.index),
 * so a recovered batch yields exactly the counts of a clean first
 * attempt. The attempt runs @p compiled when non-null, else
 * @p worker's per-batch run(). A TransientError is retried up to
 * @p max_retries times, sleeping BackoffPolicy delays drawn from
 * the per-batch stream job.splitAt(UINT64_MAX - batch.index); past
 * that, @p salvage decides between dropping the batch and failing
 * it with BudgetExhausted. Any other exception fails the batch on
 * its first occurrence. Never throws.
 */
BatchResult attemptBatch(const ShardedBackend::CompiledRun* compiled,
                         const ShardedBackend& worker,
                         const Circuit& circuit, const Rng& job,
                         const ShotBatch& batch, unsigned max_retries,
                         const BackoffPolicy& backoff,
                         SalvageMode salvage,
                         const RetryObserver& on_retry = {});

} // namespace qem

#endif // QEM_RUNTIME_BATCH_ATTEMPT_HH

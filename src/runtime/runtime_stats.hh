/**
 * @file
 * Throughput and failure accounting for one parallel job.
 *
 * Filled in by ParallelBackend::run and surfaced through
 * MachineSession so bench binaries can report shots/sec next to the
 * reproduced figures, and so policies and the harness can tell a
 * clean run from a degraded (retried / salvaged) one.
 */

#ifndef QEM_RUNTIME_RUNTIME_STATS_HH
#define QEM_RUNTIME_RUNTIME_STATS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace qem
{

/** What the runtime does with a batch whose retries ran out. */
enum class SalvageMode
{
    /** Abort the whole run with BudgetExhausted (default). */
    FailFast,
    /**
     * Drop the batch, keep the run alive, and report the loss in
     * RunOutcome. The merged histogram then holds fewer trials than
     * requested — policies must check RunOutcome (or Counts::total)
     * before treating it as complete.
     */
    DropBatches,
};

/**
 * Failure-semantics summary of one submission: how much of the
 * requested work actually completed and what it took to get there.
 */
struct RunOutcome
{
    /** Trials the caller asked for. */
    std::size_t requestedShots = 0;
    /** Trials present in the returned histogram. */
    std::size_t completedShots = 0;
    /** Batches that succeeded only after at least one retry. */
    std::size_t retriedBatches = 0;
    /** Total re-submissions across all batches. */
    std::size_t totalRetries = 0;
    /** Batches abandoned under SalvageMode::DropBatches. */
    std::size_t droppedBatches = 0;
    /** Seconds spent sleeping in backoff. */
    double backoffSeconds = 0.0;
    /** Salvage policy the run executed under. */
    SalvageMode salvage = SalvageMode::FailFast;

    /** True iff every requested trial is in the histogram. */
    bool complete() const
    {
        return completedShots == requestedShots &&
               droppedBatches == 0;
    }

    /** True iff the run needed the resilience machinery at all. */
    bool degraded() const
    {
        return !complete() || retriedBatches > 0;
    }

    /** One-line human-readable summary. */
    std::string toString() const;
};

struct RuntimeStats
{
    /** Trials executed by the job. */
    std::size_t shots = 0;
    /** Batches the job was split into. */
    std::size_t batches = 0;
    /** Worker threads the job ran on. */
    unsigned numThreads = 0;
    /** Wall-clock duration of the job. */
    double wallSeconds = 0.0;
    /** shots / wallSeconds (0 when the clock read 0). */
    double shotsPerSecond = 0.0;
    /** Shots executed by each worker, indexed by worker id. */
    std::vector<std::uint64_t> perWorkerShots;
    /** Failure-semantics summary of the job. */
    RunOutcome outcome;
    /**
     * False until the owning run() completes. A failed run leaves
     * stats zeroed-but-invalid instead of showing the previous
     * run's numbers.
     */
    bool valid = false;

    /** One-line human-readable summary. */
    std::string toString() const;
};

} // namespace qem

#endif // QEM_RUNTIME_RUNTIME_STATS_HH

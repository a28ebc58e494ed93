/**
 * @file
 * Job model of the multi-tenant service: what a tenant submits,
 * how it is prioritized and seeded, and the audit record every job
 * leaves behind.
 *
 * Determinism contract (docs/jobservice.md): a job's output Counts
 * is a pure function of (service seed, tenant id, job key, circuit,
 * shots, batch size) — never of submission interleaving, queue
 * depth, thread count, or which jobs ran beside it. The per-job RNG
 * derives via two index-keyed splits (Rng::splitAt) so concurrent
 * submissions in any order reproduce bit-identical per-job results.
 */

#ifndef QEM_SERVICE_JOB_HH
#define QEM_SERVICE_JOB_HH

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "qsim/counts.hh"
#include "runtime/batch_attempt.hh"
#include "runtime/runtime_stats.hh"
#include "telemetry/flight_recorder.hh"
#include "telemetry/json.hh"

namespace qem::svc
{

/** Scheduling classes; lower values dispatch first. */
enum class JobPriority : std::uint8_t
{
    /** Latency-sensitive (canary runs, interactive queries). */
    Interactive = 0,
    /** The default bulk class. */
    Batch = 1,
    /** Yield to everyone (re-profiling, maintenance sweeps). */
    Background = 2,
};

/** Display name ("interactive", "batch", "background"). */
const char* jobPriorityName(JobPriority priority);

/** Lifecycle of one job. */
enum class JobStatus : std::uint8_t
{
    Queued,
    Running,
    /** Terminal: result available (possibly salvaged short). */
    Completed,
    /** Terminal: the job's exception is stored in the handle. */
    Failed,
    /** Terminal: cancelled before completion. */
    Cancelled,
};

/** Display name ("queued", ... "cancelled"). */
const char* jobStatusName(JobStatus status);

/** True for Completed / Failed / Cancelled. */
bool isTerminal(JobStatus status);

/** A submit() on a cancelled/failed/completed job's handle. */
class JobCancelled : public BackendError
{
  public:
    using BackendError::BackendError;
};

/** Per-submission knobs. */
struct JobOptions
{
    /** Who is submitting; scopes the RNG stream and the audit
     *  record. */
    std::string tenant = "default";
    JobPriority priority = JobPriority::Batch;
    /** Shots per scheduled batch; 0 = the service default. */
    std::size_t batchSize = 0;
    /** Retries per batch after a TransientError; -1 (the default
     *  sentinel) = the service default. Other negative values are
     *  rejected by submit(). */
    int maxRetries = -1;
    /** What happens to a batch whose retry budget runs out. */
    SalvageMode salvage = SalvageMode::FailFast;
    /**
     * Index keying this job's RNG substream within its tenant.
     * The default sentinel assigns the tenant's next submission
     * sequence number (deterministic when each tenant submits its
     * jobs in a fixed order). Set it explicitly to make a job's
     * stream independent of how many jobs the tenant submitted
     * before it.
     */
    std::uint64_t jobKey = UINT64_MAX;
    /** Free-form label copied into the audit record. */
    std::string label;
};

/**
 * Audit record of one job: who ran what, under which seed and
 * policy knobs, what it cost, and how it ended. Appended to the
 * service's audit log when the job reaches a terminal status;
 * exported by JobService::summaryJson().
 */
struct JobRecord
{
    std::uint64_t id = 0;
    std::string tenant;
    std::string machine;
    std::string label;
    JobPriority priority = JobPriority::Batch;
    /** Index-key of the job's RNG substream within the tenant. */
    std::uint64_t jobKey = 0;
    std::size_t shotsRequested = 0;
    std::size_t shotsCompleted = 0;
    std::size_t batches = 0;
    /** Total batch re-submissions after transient failures. */
    std::size_t retries = 0;
    std::size_t droppedBatches = 0;
    SalvageMode salvage = SalvageMode::FailFast;
    /** Cache lookups this job made, split hit/miss. */
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    /** Did the job execute a shared compiled program? */
    bool compiled = false;
    JobStatus status = JobStatus::Queued;
    /** what() of the terminal exception (Failed jobs). */
    std::string error;
    /** Submission-to-terminal wall seconds. */
    double wallSeconds = 0.0;
    /**
     * Submission-to-first-dispatch wall seconds: how long the job
     * sat in the queue before any batch ran. Equals wallSeconds
     * for jobs that never dispatched (cancelled while queued,
     * zero-shot jobs).
     */
    double queueWaitSeconds = 0.0;
    /**
     * First-dispatch-to-terminal wall seconds; 0 when the job
     * never dispatched. Invariant (asserted in test_job_service):
     * queueWaitSeconds + execSeconds == wallSeconds, both >= 0.
     */
    double execSeconds = 0.0;
    /**
     * Flight-recorder dump: the job's lifecycle events, oldest
     * first. Empty unless recording was on (telemetry enabled or
     * ServiceOptions::flightRecorder). flightDropped counts events
     * evicted by the ring bound.
     */
    std::vector<telemetry::FlightEvent> flight;
    std::uint64_t flightDropped = 0;

    telemetry::JsonValue toJson() const;
};

/** Internal shared state behind a JobHandle (service-owned). */
struct JobState;

/**
 * The submitter's view of one async job. Cheap to copy (shared
 * state); safe to wait on from any thread. A default-constructed
 * handle is empty (valid() == false).
 */
class JobHandle
{
  public:
    JobHandle() = default;

    bool valid() const { return state_ != nullptr; }

    /** Service-assigned id (stable across the job's lifetime). */
    std::uint64_t id() const;

    /** Current lifecycle status (racy by nature; terminal statuses
     *  are stable once observed). */
    JobStatus status() const;

    /** Block until the job reaches a terminal status. */
    void wait() const;

    /**
     * Block for the result histogram. Throws the job's failure
     * (BudgetExhausted, FatalError, ...) for Failed jobs and
     * JobCancelled for cancelled ones. Callable repeatedly.
     */
    const Counts& get() const;

    /**
     * The job's audit record; blocks until terminal so the record
     * is final.
     */
    const JobRecord& record() const;

  private:
    friend class JobService;
    explicit JobHandle(std::shared_ptr<JobState> state)
        : state_(std::move(state))
    {
    }

    std::shared_ptr<JobState> state_;
};

} // namespace qem::svc

#endif // QEM_SERVICE_JOB_HH

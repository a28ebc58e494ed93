/**
 * @file
 * Long-lived, multi-tenant job service over the execution runtime.
 *
 * PRs 1-5 built a fast, failure-tolerant runtime that is still
 * driven one synchronous MachineSession::run at a time. This layer
 * turns it into a service: tenants submit() jobs asynchronously and
 * get a JobHandle back; jobs from every tenant and machine are
 * split into shot batches and multiplexed onto ONE shared
 * ThreadPool (instead of one pool per session); a bounded priority
 * queue provides admission control; and expensive per-machine
 * artifacts — compiled NoiseProgram​s, RBMS profiles, confusion
 * CDFs — are shared through an ArtifactCache so a million users
 * running the same canary circuit compile it once.
 *
 * Determinism: each job's RNG tree is
 *
 *     Rng(serviceSeed).splitAt(fp(tenant)).splitAt(jobKey)
 *
 * and batch i of the job samples from splitAt(i) of that — three
 * index-keyed derivations, no call-order state anywhere. Any
 * submission interleaving, queue depth, or thread count reproduces
 * bit-identical per-job Counts (pinned by the committed golden
 * tests/golden/job_service.json).
 *
 * Failure semantics are ParallelBackend's, from the same
 * attemptBatch() loop (docs/resilience.md): per-batch transient
 * retries with deterministic backoff, then FailFast (the job's
 * handle throws BudgetExhausted) or DropBatches (the job completes
 * short and its JobRecord reports the loss). Every job leaves a
 * JobRecord in the audit log, exportable as a service manifest.
 */

#ifndef QEM_SERVICE_JOB_SERVICE_HH
#define QEM_SERVICE_JOB_SERVICE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "qsim/circuit.hh"
#include "qsim/rng.hh"
#include "qsim/simulator.hh"
#include "runtime/batch_attempt.hh"
#include "runtime/thread_pool.hh"
#include "service/artifact_cache.hh"
#include "service/job.hh"
#include "service/job_queue.hh"
#include "telemetry/health.hh"
#include "telemetry/json.hh"

namespace qem::svc
{

/** Construction-time knobs of one service instance. */
struct ServiceOptions
{
    /** Shared pool workers; 0 = one per hardware thread. */
    unsigned numThreads = 0;
    /** Shots per batch when JobOptions::batchSize is 0. */
    std::size_t defaultBatchSize = 256;
    /**
     * Admission bound: queued batches across all jobs. A submission
     * whose batches would overflow it is rejected with
     * BudgetExhausted (nothing is enqueued).
     */
    std::size_t maxQueuedBatches = 4096;
    /** Per-batch retry budget when JobOptions::maxRetries is -1. */
    unsigned defaultMaxRetries = 2;
    /** Backoff shape between batch retry attempts. */
    BackoffPolicy backoff{};
    /** Shared artifact cache sizing. */
    ArtifactCache::Options cache{};
    /**
     * Attach a flight recorder to every job even when telemetry
     * is off (otherwise recording follows telemetry::enabled() at
     * submit time). Off by default: the established zero-cost
     * discipline — a disabled service allocates nothing per job.
     */
    bool flightRecorder = false;
    /** Ring capacity of each per-job flight recorder. */
    std::size_t flightCapacity = 64;
};

/** Aggregate accounting of one service instance. */
struct ServiceSummary
{
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t rejected = 0;
    std::uint64_t shotsCompleted = 0;
    std::uint64_t retries = 0;
    std::uint64_t droppedBatches = 0;
    CacheStats cache;
    /** Aggregate of the last health check; Healthy when the
     *  service's monitor was never created or never ran. */
    telemetry::HealthStatus health =
        telemetry::HealthStatus::Healthy;
};

class JobService
{
  public:
    /**
     * @param options Pool size, queue bound, retry defaults, cache
     *        budget.
     * @throws std::invalid_argument for an invalid
     *         ServiceOptions::backoff.
     * @param seed Root of the service's RNG tree; per-tenant and
     *        per-job streams derive from it by index-keyed splits.
     */
    explicit JobService(ServiceOptions options = ServiceOptions(),
                        std::uint64_t seed = 2019);

    /** Drains every in-flight job, then joins the pool. */
    ~JobService();

    JobService(const JobService&) = delete;
    JobService& operator=(const JobService&) = delete;

    /**
     * Register @p prototype as the executor for @p name, cloning
     * one worker per pool thread through cloneWorkers() (wrapped in
     * a fault injector when `INVERTQ_FAULTS` is set, exactly like
     * ParallelBackend). Returns false — keeping the existing registration — when the
     * machine is already registered.
     */
    bool registerMachine(const std::string& name,
                         const ShardedBackend& prototype);

    /**
     * Swap the executor of an already-registered machine for
     * @p prototype (re-cloning one worker per pool thread) and
     * bump the machine's generation. The swap is a single atomic
     * publication: jobs submitted before it finish on the worker
     * set they resolved at submit time (pinned via shared_ptr),
     * jobs submitted after it run on the new one, and compiled
     * programs are keyed by generation so a swapped machine
     * misses cleanly instead of serving the old backend's
     * lowering. Returns false when @p name is not registered.
     */
    bool replaceMachine(const std::string& name,
                        const ShardedBackend& prototype);

    bool hasMachine(const std::string& name) const;

    /** Times the machine's backend was replaced (0 = as first
     *  registered). Throws for an unregistered machine. */
    std::uint64_t machineGeneration(const std::string& name) const;

    /**
     * Queue @p shots trials of @p circuit on @p machine. Returns
     * immediately with a handle to the async result.
     *
     * @throws std::invalid_argument for an unregistered machine,
     *         zero batch size, or JobOptions::maxRetries below -1;
     *         no job id or tenant sequence number is consumed.
     * @throws BudgetExhausted when admission control rejects the
     *         job (queue full); nothing is enqueued.
     */
    JobHandle submit(const std::string& machine,
                     const Circuit& circuit, std::size_t shots,
                     JobOptions options = {});

    /**
     * Request cancellation. Batches not yet started are skipped;
     * running batches finish (a batch is never interrupted). The
     * handle's get() then throws JobCancelled. Returns false when
     * the job is already terminal.
     */
    bool cancel(const JobHandle& handle);

    /** Block until every job submitted so far is terminal. */
    void drain();

    /** The shared artifact cache (also usable directly, e.g. for
     *  cached RBMS profiling via MachineSession). */
    ArtifactCache& cache() { return cache_; }

    /** Workers in the shared pool. */
    unsigned numThreads() const
    {
        return static_cast<unsigned>(pool_->size());
    }

    std::uint64_t seed() const { return seed_; }

    /**
     * The deterministic RNG root of (tenant, jobKey) under
     * @p service_seed — the exact stream a service job consumes,
     * exposed so tests and offline tools can replay any job
     * serially and compare bit-for-bit.
     */
    static Rng jobStream(std::uint64_t service_seed,
                         const std::string& tenant,
                         std::uint64_t job_key);

    /** Queued batches right now (live introspection). */
    std::size_t queueDepth() const { return queue_.size(); }

    /** Admission bound on queued batches. */
    std::size_t queueCapacity() const
    {
        return queue_.capacity();
    }

    /** Batches popped and executed (or skipped) so far; the
     *  liveness signal behind the worker-starvation probe. */
    std::uint64_t dispatchedBatches() const
    {
        return dispatchedBatches_.load(
            std::memory_order_relaxed);
    }

    /**
     * The service's health monitor, created on first call with the
     * built-in probes — queue saturation, worker starvation, cache
     * thrash — wired to this instance. Callers add
     * machine-specific probes (e.g. svc::RbmsStalenessProbe) via
     * addProbe() and drive checkAll() at their own cadence; the
     * latest aggregate lands in ServiceSummary::health and the
     * service manifest. The monitor must not outlive the service.
     */
    std::shared_ptr<telemetry::HealthMonitor> healthMonitor();

    /** Audit records of every terminal job, in completion order. */
    std::vector<JobRecord> auditLog() const;

    /** Aggregate accounting (includes live cache stats). */
    ServiceSummary summary() const;

    /**
     * Register (or overwrite) an extra top-level section of the
     * service manifest: summaryJson() emits @p section() under
     * @p key. Used by sidecar subsystems (e.g. the recalibration
     * scheduler) to surface their state in the one manifest the
     * status page renders. The callable must stay valid until
     * removed — a sidecar must removeManifestSection() before it
     * is destroyed.
     */
    void addManifestSection(
        const std::string& key,
        std::function<telemetry::JsonValue()> section);

    /** Remove a section added by addManifestSection (no-op when
     *  absent). */
    void removeManifestSection(const std::string& key);

    /**
     * Service manifest (`invertq.service.manifest/v1`): service
     * configuration, aggregate summary, and the full per-job audit
     * log.
     */
    telemetry::JsonValue summaryJson() const;

    /** Write summaryJson() to @p path; false on I/O failure. */
    bool writeSummary(const std::string& path) const;

  private:
    /** One backend clone per pool worker; immutable once built so
     *  jobs can pin it with a shared_ptr across a replaceMachine. */
    using WorkerSet = std::vector<std::unique_ptr<ShardedBackend>>;

    /** Per-machine execution state. The workers pointer is the
     *  swap point of replaceMachine: readers snapshot it under
     *  mutex_ and keep running on their snapshot. */
    struct MachineRuntime
    {
        std::string name;
        std::shared_ptr<const WorkerSet> workers;
        /** Bumped per replaceMachine; folded into compiled-program
         *  cache keys. */
        std::uint64_t generation = 0;
    };

    /** The worker set + generation a job resolves at submit time. */
    struct MachineSnapshot
    {
        std::shared_ptr<const WorkerSet> workers;
        std::uint64_t generation = 0;
    };

    /** Resolve a registered machine's current snapshot or throw. */
    MachineSnapshot machineSnapshot(const std::string& name) const;

    /**
     * Compile @p circuit for @p machine through the shared cache
     * (single-flight across concurrent submissions), keyed by the
     * snapshot's generation. Returns nullptr for backends without
     * a compiled form. Records hit/miss in @p record.
     */
    std::shared_ptr<const ShardedBackend::CompiledRun>
    compileCached(const std::string& machine,
                  const MachineSnapshot& snapshot,
                  const Circuit& circuit, JobRecord& record);

    /** Execute one batch (retries included); never throws. */
    void runBatch(
        const std::shared_ptr<JobState>& state,
        std::shared_ptr<const WorkerSet> workers,
        std::shared_ptr<const ShardedBackend::CompiledRun>
            compiled,
        const ShotBatch& batch);

    /** Mark one batch finished; finalizes the job on the last. */
    void finishBatch(const std::shared_ptr<JobState>& state);

    /** Close out a terminal job. Caller holds the job mutex. */
    void finalizeLocked(JobState& state);

    /** Audit/accounting after a job turned terminal (no job lock
     *  held). */
    void afterTerminal(const std::shared_ptr<JobState>& state);

    ServiceOptions options_;
    std::uint64_t seed_;
    ArtifactCache cache_;
    JobQueue queue_;
    std::unique_ptr<ThreadPool> pool_;

    mutable std::mutex mutex_;
    std::condition_variable idleCv_;
    std::map<std::string, std::unique_ptr<MachineRuntime>>
        machines_;
    std::map<std::string, std::uint64_t> tenantSeq_;
    std::uint64_t nextJobId_ = 1;
    std::uint64_t nextJobSeq_ = 0;
    std::size_t activeJobs_ = 0;
    std::shared_ptr<telemetry::HealthMonitor> health_;
    std::map<std::string,
             std::function<telemetry::JsonValue()>>
        manifestSections_;
    std::atomic<std::uint64_t> dispatchedBatches_{0};

    mutable std::mutex auditMutex_;
    std::vector<JobRecord> auditLog_;
    ServiceSummary totals_;
};

} // namespace qem::svc

#endif // QEM_SERVICE_JOB_SERVICE_HH

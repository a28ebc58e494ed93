#include "service/job_service.hh"

#include <chrono>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "runtime/fault_injection.hh"
#include "runtime/shot_plan.hh"
#include "service/artifacts.hh"
#include "service/fingerprint.hh"
#include "service/job_state.hh"
#include "telemetry/manifest.hh"
#include "telemetry/telemetry.hh"

namespace qem::svc
{

namespace
{

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now()
                   .time_since_epoch())
        .count();
}

/** what() of the exception in @p error. */
std::string
errorMessage(const std::exception_ptr& error)
{
    try {
        std::rethrow_exception(error);
    } catch (const std::exception& e) {
        return e.what();
    } catch (...) {
        return "unknown exception";
    }
}

} // namespace

JobService::JobService(ServiceOptions options, std::uint64_t seed)
    : options_(options), seed_(seed), cache_(options.cache),
      queue_(options.maxQueuedBatches)
{
    options_.backoff.validate();
    unsigned threads = options_.numThreads;
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    pool_ = std::make_unique<ThreadPool>(threads);
}

JobService::~JobService()
{
    drain();
    // Pool destruction drains the (now no-op) remaining tickets.
    pool_.reset();
}

bool
JobService::registerMachine(const std::string& name,
                            const ShardedBackend& prototype)
{
    // Clone outside the lock: prototypes can be heavy.
    auto workers = std::make_shared<const WorkerSet>(
        cloneWorkers(prototype, pool_->size()));
    auto runtime = std::make_unique<MachineRuntime>();
    runtime->name = name;
    runtime->workers = std::move(workers);

    std::lock_guard<std::mutex> lock(mutex_);
    return machines_.emplace(name, std::move(runtime)).second;
}

bool
JobService::replaceMachine(const std::string& name,
                           const ShardedBackend& prototype)
{
    // Clone outside the lock; the swap itself is one pointer
    // assignment plus the generation bump under mutex_.
    auto workers = std::make_shared<const WorkerSet>(
        cloneWorkers(prototype, pool_->size()));
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = machines_.find(name);
        if (it == machines_.end())
            return false;
        it->second->workers = std::move(workers);
        ++it->second->generation;
    }
    telemetry::count("service.machine_swaps");
    return true;
}

bool
JobService::hasMachine(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return machines_.count(name) != 0;
}

std::uint64_t
JobService::machineGeneration(const std::string& name) const
{
    return machineSnapshot(name).generation;
}

JobService::MachineSnapshot
JobService::machineSnapshot(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = machines_.find(name);
    if (it == machines_.end())
        throw std::invalid_argument(
            "JobService: machine \"" + name +
            "\" is not registered");
    return {it->second->workers, it->second->generation};
}

Rng
JobService::jobStream(std::uint64_t service_seed,
                      const std::string& tenant,
                      std::uint64_t job_key)
{
    return Rng(service_seed)
        .splitAt(fingerprintString(tenant))
        .splitAt(job_key);
}

std::shared_ptr<const ShardedBackend::CompiledRun>
JobService::compileCached(const std::string& machine,
                          const MachineSnapshot& snapshot,
                          const Circuit& circuit,
                          JobRecord& record)
{
    // Generation-keyed: after a replaceMachine the key misses
    // cleanly and the new backend compiles fresh; the previous
    // generation's entry ages out of the LRU.
    const ArtifactKey key = compiledProgramKey(
        machine, circuit, snapshot.generation);

    bool hit = false;
    auto compiled = cache_.getOrCompute<
        ShardedBackend::CompiledRun>(
        key,
        [&]() -> ArtifactCache::Costed<
                  ShardedBackend::CompiledRun> {
            auto program = snapshot.workers->front()->compile(
                circuit);
            if (program)
                telemetry::count("runtime.compiled_jobs");
            // Backends without a compiled form cache the nullptr
            // (cheaply), so repeat submissions skip the probe too.
            const std::size_t bytes = program ? program->bytes() : 64;
            return {std::move(program), bytes};
        },
        &hit);
    if (hit)
        ++record.cacheHits;
    else
        ++record.cacheMisses;
    record.compiled = compiled != nullptr;
    return compiled;
}

JobHandle
JobService::submit(const std::string& machine,
                   const Circuit& circuit, std::size_t shots,
                   JobOptions options)
{
    // Pin the machine's worker set for this job's whole lifetime:
    // a replaceMachine issued after this line never affects the
    // batches below (they run on the snapshot), only later
    // submissions.
    const MachineSnapshot snapshot = machineSnapshot(machine);

    const std::size_t batchSize = options.batchSize != 0
                                      ? options.batchSize
                                      : options_.defaultBatchSize;
    if (batchSize == 0)
        throw std::invalid_argument(
            "JobService: batch size must be nonzero");
    if (options.maxRetries < -1)
        throw std::invalid_argument(
            "JobService: maxRetries must be >= 0, or -1 for the "
            "service default");
    if (options.priority != JobPriority::Interactive &&
        options.priority != JobPriority::Batch &&
        options.priority != JobPriority::Background)
        throw std::invalid_argument(
            "JobService: priority must be Interactive, Batch or "
            "Background");
    const unsigned maxRetries =
        options.maxRetries == -1
            ? options_.defaultMaxRetries
            : static_cast<unsigned>(options.maxRetries);

    const ShotPlan plan(shots, batchSize);

    // Advisory early reject: shed load before paying for a
    // compile. tryPushAll below is the authoritative check.
    if (queue_.size() + plan.numBatches() >
        queue_.capacity()) {
        telemetry::count("service.rejected_jobs");
        {
            std::lock_guard<std::mutex> lock(auditMutex_);
            ++totals_.rejected;
        }
        throw BudgetExhausted(
            "JobService: queue full (" +
            std::to_string(plan.numBatches()) +
            " batches over capacity " +
            std::to_string(queue_.capacity()) + ")");
    }

    auto state = std::make_shared<JobState>();
    state->circuit = circuit;
    state->maxRetries = maxRetries;
    state->salvage = options.salvage;
    state->submitSeconds = nowSeconds();
    if (options_.flightRecorder || telemetry::enabled()) {
        // Timestamps are seconds since this job's submission, so
        // dumps read the same regardless of process uptime.
        const double submitted = state->submitSeconds;
        state->flight =
            std::make_shared<telemetry::FlightRecorder>(
                options_.flightCapacity, [submitted] {
                    return nowSeconds() - submitted;
                });
        state->flight->record(
            telemetry::FlightEventKind::Enqueue, -1,
            plan.numBatches(), machine);
    }

    JobRecord& record = state->record;
    record.tenant = options.tenant;
    record.machine = machine;
    record.label = options.label;
    record.priority = options.priority;
    record.salvage = options.salvage;
    record.shotsRequested = shots;
    record.batches = plan.numBatches();

    std::uint64_t jobSeq = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        record.id = nextJobId_++;
        jobSeq = nextJobSeq_++;
        // An auto-keyed job consumes its tenant's next sequence
        // number here — even if admission rejects it below —
        // because rolling back under concurrent submitters would
        // reorder streams. Use explicit jobKeys for streams that
        // must not depend on prior submissions.
        record.jobKey = options.jobKey != UINT64_MAX
                            ? options.jobKey
                            : tenantSeq_[options.tenant]++;
        ++activeJobs_;
    }

    state->jobRng =
        jobStream(seed_, options.tenant, record.jobKey);

    const std::uint64_t hitsBefore = record.cacheHits;
    auto compiled =
        compileCached(machine, snapshot, circuit, record);
    if (state->flight)
        state->flight->record(
            record.cacheHits > hitsBefore
                ? telemetry::FlightEventKind::CacheHit
                : telemetry::FlightEventKind::Compile,
            -1, 0, machine);

    state->partial.assign(plan.numBatches(),
                          Counts(circuit.numClbits()));
    state->remaining = plan.numBatches();

    std::vector<WorkItem> items;
    items.reserve(plan.numBatches());
    for (const ShotBatch& batch : plan.batches()) {
        WorkItem item;
        item.priority = options.priority;
        item.jobSeq = jobSeq;
        item.batchIndex = batch.index;
        item.work = [this, state, workers = snapshot.workers,
                     compiled, batch] {
            runBatch(state, workers, compiled, batch);
        };
        items.push_back(std::move(item));
    }

    if (!items.empty() && !queue_.tryPushAll(std::move(items))) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --activeJobs_;
        }
        idleCv_.notify_all();
        telemetry::count("service.rejected_jobs");
        {
            std::lock_guard<std::mutex> lock(auditMutex_);
            ++totals_.rejected;
        }
        throw BudgetExhausted(
            "JobService: queue full (" +
            std::to_string(plan.numBatches()) +
            " batches over capacity " +
            std::to_string(queue_.capacity()) + ")");
    }

    telemetry::count("service.submitted_jobs");
    if (state->flight)
        state->flight->record(telemetry::FlightEventKind::Admit,
                              -1, plan.numBatches());
    {
        std::lock_guard<std::mutex> lock(auditMutex_);
        ++totals_.submitted;
    }

    if (plan.numBatches() == 0) {
        // Zero-shot job: terminal immediately, empty histogram.
        {
            std::lock_guard<std::mutex> lock(state->mutex);
            finalizeLocked(*state);
        }
        afterTerminal(state);
        return JobHandle(state);
    }

    // One interchangeable ticket per admitted batch: each pops the
    // globally best-ranked item, so priority order holds even
    // though the pool itself is FIFO.
    for (std::size_t i = 0; i < plan.numBatches(); ++i) {
        pool_->submit([this] {
            if (auto item = queue_.tryPop())
                item->work();
        });
    }
    return JobHandle(state);
}

void
JobService::runBatch(
    const std::shared_ptr<JobState>& state,
    std::shared_ptr<const WorkerSet> workers,
    std::shared_ptr<const ShardedBackend::CompiledRun> compiled,
    const ShotBatch& batch)
{
    dispatchedBatches_.fetch_add(1, std::memory_order_relaxed);
    const auto index = static_cast<std::int64_t>(batch.index);
    bool skip = false;
    {
        std::lock_guard<std::mutex> lock(state->mutex);
        if (state->cancelled || state->failure) {
            skip = true;
        } else {
            if (state->record.status == JobStatus::Queued)
                state->record.status = JobStatus::Running;
            if (state->firstDispatchSeconds == 0.0)
                state->firstDispatchSeconds = nowSeconds();
        }
    }
    if (skip) {
        if (state->flight)
            state->flight->record(telemetry::FlightEventKind::Skip,
                                  index);
        // Skipped batch: still counts as finished so the job
        // reaches a terminal status.
        finishBatch(state);
        return;
    }
    if (state->flight)
        state->flight->record(telemetry::FlightEventKind::Dispatch,
                              index, batch.shots);

    const int workerIdx = ThreadPool::workerIndex();
    const std::size_t worker =
        workerIdx >= 0 ? static_cast<std::size_t>(workerIdx) %
                             workers->size()
                       : 0;
    telemetry::FlightRecorder* flight = state->flight.get();
    BatchResult result = attemptBatch(
        compiled.get(), *(*workers)[worker], state->circuit,
        state->jobRng, batch, state->maxRetries, options_.backoff,
        state->salvage,
        [flight, index](unsigned retry, double delay,
                        const TransientError& cause) {
            telemetry::count("service.retries");
            if (flight) {
                flight->record(telemetry::FlightEventKind::Retry,
                               index, retry, cause.what());
                flight->record(
                    telemetry::FlightEventKind::Backoff, index,
                    static_cast<std::uint64_t>(delay * 1e6));
            }
        });
    if (result.dropped)
        telemetry::count("service.dropped_batches");
    if (flight && !result.ok())
        flight->record(result.dropped
                           ? telemetry::FlightEventKind::Salvage
                           : telemetry::FlightEventKind::Fail,
                       index, result.retries,
                       errorMessage(result.error));
    {
        std::lock_guard<std::mutex> lock(state->mutex);
        state->record.retries += result.retries;
        if (result.ok())
            state->partial[batch.index] = std::move(result.counts);
        else if (result.dropped)
            ++state->record.droppedBatches;
        else if (!state->failure)
            state->failure = result.error;
    }
    finishBatch(state);
}

void
JobService::finishBatch(const std::shared_ptr<JobState>& state)
{
    bool terminal = false;
    {
        std::lock_guard<std::mutex> lock(state->mutex);
        --state->remaining;
        if (state->remaining == 0) {
            finalizeLocked(*state);
            terminal = true;
        }
    }
    if (terminal)
        afterTerminal(state);
}

void
JobService::finalizeLocked(JobState& state)
{
    JobRecord& record = state.record;
    if (state.failure) {
        record.status = JobStatus::Failed;
        record.error = errorMessage(state.failure);
    } else if (state.cancelled) {
        record.status = JobStatus::Cancelled;
    } else {
        record.status = JobStatus::Completed;
        Counts merged(state.circuit.numClbits());
        for (const Counts& part : state.partial)
            merged.merge(part);
        state.result = std::move(merged);
        record.shotsCompleted = state.result.total();
    }
    record.wallSeconds = nowSeconds() - state.submitSeconds;
    // Queue-wait vs execute split: the audit record reports how
    // long the job waited for its first batch to dispatch and how
    // long it then took to finish. Clamped so the invariant
    // queueWait + exec == wall, both >= 0, holds exactly.
    if (state.firstDispatchSeconds > 0.0) {
        double wait =
            state.firstDispatchSeconds - state.submitSeconds;
        if (wait < 0.0)
            wait = 0.0;
        if (wait > record.wallSeconds)
            wait = record.wallSeconds;
        record.queueWaitSeconds = wait;
        record.execSeconds = record.wallSeconds - wait;
    } else {
        // Never dispatched (cancelled in queue, zero batches):
        // the whole lifetime was queue wait.
        record.queueWaitSeconds = record.wallSeconds;
        record.execSeconds = 0.0;
    }
    if (state.flight) {
        switch (record.status) {
        case JobStatus::Completed:
            state.flight->record(
                telemetry::FlightEventKind::Merge, -1,
                record.shotsCompleted);
            break;
        case JobStatus::Cancelled:
            state.flight->record(
                telemetry::FlightEventKind::Cancel);
            break;
        case JobStatus::Failed:
            state.flight->record(
                telemetry::FlightEventKind::Fail, -1, 0,
                record.error);
            break;
        default:
            break;
        }
    }
    // No notify here: waiters are released by afterTerminal once
    // the job is recorded in the audit log and service totals.
}

void
JobService::afterTerminal(const std::shared_ptr<JobState>& state)
{
    JobRecord record;
    {
        std::lock_guard<std::mutex> lock(state->mutex);
        if (state->flight) {
            // The audit marker is the recorder's final event; the
            // dump then freezes into the record every consumer
            // (handle, audit log, manifest) sees.
            state->flight->record(
                telemetry::FlightEventKind::Audit);
            state->record.flight = state->flight->events();
            state->record.flightDropped =
                state->flight->droppedCount();
        }
        record = state->record;
    }
    if (record.status == JobStatus::Failed &&
        !record.flight.empty())
        telemetry::count("service.flight_dumps");
    {
        std::lock_guard<std::mutex> lock(auditMutex_);
        auditLog_.push_back(record);
        switch (record.status) {
        case JobStatus::Completed:
            ++totals_.completed;
            break;
        case JobStatus::Failed:
            ++totals_.failed;
            break;
        case JobStatus::Cancelled:
            ++totals_.cancelled;
            break;
        default:
            break;
        }
        totals_.shotsCompleted += record.shotsCompleted;
        totals_.retries += record.retries;
        totals_.droppedBatches += record.droppedBatches;
    }
    if (telemetry::enabled()) {
        switch (record.status) {
        case JobStatus::Completed:
            telemetry::count("service.completed_jobs");
            break;
        case JobStatus::Failed:
            telemetry::count("service.failed_jobs");
            break;
        case JobStatus::Cancelled:
            telemetry::count("service.cancelled_jobs");
            break;
        default:
            break;
        }
        telemetry::count("service.shots",
                         record.shotsCompleted);
        telemetry::observe("service.job_seconds",
                           record.wallSeconds);
    }
    {
        std::lock_guard<std::mutex> lock(state->mutex);
        state->audited = true;
    }
    state->terminalCv.notify_all();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        --activeJobs_;
    }
    idleCv_.notify_all();
}

bool
JobService::cancel(const JobHandle& handle)
{
    if (!handle.valid())
        return false;
    JobState& state = *handle.state_;
    std::lock_guard<std::mutex> lock(state.mutex);
    if (isTerminal(state.record.status))
        return false;
    state.cancelled = true;
    return true;
}

void
JobService::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idleCv_.wait(lock, [this] { return activeJobs_ == 0; });
}

std::shared_ptr<telemetry::HealthMonitor>
JobService::healthMonitor()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (health_)
        return health_;
    health_ = std::make_shared<telemetry::HealthMonitor>();

    // Queue saturation: how close admission control is to
    // rejecting. Sustained high utilization means tenants are
    // about to see BudgetExhausted.
    health_->addProbe(std::make_shared<telemetry::FunctionProbe>(
        "queue_saturation", [this] {
            telemetry::ProbeResult result;
            const std::size_t depth = queue_.size();
            const std::size_t cap = queue_.capacity();
            result.value =
                cap > 0 ? static_cast<double>(depth) /
                              static_cast<double>(cap)
                        : 0.0;
            result.status = telemetry::statusFromUtilization(
                result.value, 0.75, 0.95);
            result.message = std::to_string(depth) + "/" +
                             std::to_string(cap) +
                             " batches queued";
            return result;
        }));

    // Worker starvation: work is queued but no batch has been
    // popped since the previous check — the pool is wedged (or
    // every worker is stuck in one pathological batch). One
    // stagnant interval degrades; two in a row go unhealthy.
    struct StarvationState
    {
        std::uint64_t lastDispatched = 0;
        int stagnantChecks = 0;
    };
    auto starvation = std::make_shared<StarvationState>();
    health_->addProbe(std::make_shared<telemetry::FunctionProbe>(
        "worker_starvation", [this, starvation] {
            telemetry::ProbeResult result;
            const std::size_t depth = queue_.size();
            const std::uint64_t dispatched =
                dispatchedBatches();
            if (depth > 0 &&
                dispatched == starvation->lastDispatched) {
                ++starvation->stagnantChecks;
                result.status =
                    starvation->stagnantChecks >= 2
                        ? telemetry::HealthStatus::Unhealthy
                        : telemetry::HealthStatus::Degraded;
                result.message =
                    std::to_string(depth) +
                    " batches queued with no dispatch progress "
                    "across " +
                    std::to_string(starvation->stagnantChecks) +
                    " check(s)";
            } else {
                starvation->stagnantChecks = 0;
            }
            starvation->lastDispatched = dispatched;
            result.value = static_cast<double>(depth);
            return result;
        }));

    // Cache thrash: evictions per lookup since the last check.
    // A hot cache evicting on most lookups is churning artifacts
    // faster than tenants reuse them — the budget is too small
    // for the working set.
    struct ThrashState
    {
        std::uint64_t lastEvictions = 0;
        std::uint64_t lastLookups = 0;
    };
    auto thrash = std::make_shared<ThrashState>();
    health_->addProbe(std::make_shared<telemetry::FunctionProbe>(
        "cache_thrash", [this, thrash] {
            telemetry::ProbeResult result;
            const CacheStats stats = cache_.stats();
            const std::uint64_t lookups =
                stats.hits + stats.misses;
            const std::uint64_t lookupDelta =
                lookups - thrash->lastLookups;
            const std::uint64_t evictionDelta =
                stats.evictions - thrash->lastEvictions;
            thrash->lastLookups = lookups;
            thrash->lastEvictions = stats.evictions;
            result.value =
                lookupDelta > 0
                    ? static_cast<double>(evictionDelta) /
                          static_cast<double>(lookupDelta)
                    : 0.0;
            result.status = telemetry::statusFromUtilization(
                result.value, 0.25, 0.75);
            result.message =
                std::to_string(evictionDelta) +
                " evictions over " +
                std::to_string(lookupDelta) + " lookups";
            return result;
        }));

    return health_;
}

void
JobService::addManifestSection(
    const std::string& key,
    std::function<telemetry::JsonValue()> section)
{
    std::lock_guard<std::mutex> lock(mutex_);
    manifestSections_[key] = std::move(section);
}

void
JobService::removeManifestSection(const std::string& key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    manifestSections_.erase(key);
}

std::vector<JobRecord>
JobService::auditLog() const
{
    std::lock_guard<std::mutex> lock(auditMutex_);
    return auditLog_;
}

ServiceSummary
JobService::summary() const
{
    ServiceSummary result;
    {
        std::lock_guard<std::mutex> lock(auditMutex_);
        result = totals_;
    }
    result.cache = cache_.stats();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (health_)
            result.health = health_->status();
    }
    return result;
}

telemetry::JsonValue
JobService::summaryJson() const
{
    const ServiceSummary totals = summary();
    const std::vector<JobRecord> jobs = auditLog();

    telemetry::JsonValue doc = telemetry::JsonValue::object();
    doc["schema"] =
        telemetry::JsonValue("invertq.service.manifest/v1");

    telemetry::JsonValue service =
        telemetry::JsonValue::object();
    service["seed"] = telemetry::JsonValue(seed_);
    service["num_threads"] = telemetry::JsonValue(
        static_cast<std::uint64_t>(pool_->size()));
    service["queue_capacity"] = telemetry::JsonValue(
        static_cast<std::uint64_t>(queue_.capacity()));
    service["default_batch_size"] = telemetry::JsonValue(
        static_cast<std::uint64_t>(options_.defaultBatchSize));
    service["default_max_retries"] = telemetry::JsonValue(
        static_cast<std::uint64_t>(options_.defaultMaxRetries));
    service["cache_max_bytes"] = telemetry::JsonValue(
        static_cast<std::uint64_t>(cache_.maxBytes()));
    doc["service"] = std::move(service);

    telemetry::JsonValue sum = telemetry::JsonValue::object();
    sum["submitted"] = telemetry::JsonValue(totals.submitted);
    sum["completed"] = telemetry::JsonValue(totals.completed);
    sum["failed"] = telemetry::JsonValue(totals.failed);
    sum["cancelled"] = telemetry::JsonValue(totals.cancelled);
    sum["rejected"] = telemetry::JsonValue(totals.rejected);
    sum["shots_completed"] =
        telemetry::JsonValue(totals.shotsCompleted);
    sum["retries"] = telemetry::JsonValue(totals.retries);
    sum["dropped_batches"] =
        telemetry::JsonValue(totals.droppedBatches);

    telemetry::JsonValue cache = telemetry::JsonValue::object();
    cache["hits"] = telemetry::JsonValue(totals.cache.hits);
    cache["misses"] = telemetry::JsonValue(totals.cache.misses);
    cache["evictions"] =
        telemetry::JsonValue(totals.cache.evictions);
    cache["invalidations"] =
        telemetry::JsonValue(totals.cache.invalidations);
    cache["single_flight_waits"] =
        telemetry::JsonValue(totals.cache.singleFlightWaits);
    cache["bytes_used"] =
        telemetry::JsonValue(totals.cache.bytesUsed);
    cache["entries"] =
        telemetry::JsonValue(totals.cache.entries);
    sum["cache"] = std::move(cache);
    doc["summary"] = std::move(sum);

    std::shared_ptr<telemetry::HealthMonitor> health;
    std::map<std::string,
             std::function<telemetry::JsonValue()>>
        sections;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        health = health_;
        sections = manifestSections_;
    }
    if (health)
        doc["health"] = health->toJson();
    // Evaluated outside mutex_: a section callable may take its
    // own subsystem lock (and must not deadlock against ours).
    for (const auto& [key, section] : sections)
        doc[key] = section();

    telemetry::JsonValue jobsJson =
        telemetry::JsonValue::array();
    for (const JobRecord& record : jobs)
        jobsJson.push(record.toJson());
    doc["jobs"] = std::move(jobsJson);
    return doc;
}

bool
JobService::writeSummary(const std::string& path) const
{
    return telemetry::writeTextAtomic(
        path, summaryJson().dump(2) + "\n");
}

} // namespace qem::svc

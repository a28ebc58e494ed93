#include "runtime/parallel_backend.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>

#include "runtime/fault_injection.hh"
#include "telemetry/telemetry.hh"

namespace qem
{

namespace
{

unsigned
resolveThreads(unsigned requested)
{
    if (requested > 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

/**
 * Per-worker batch-latency histograms plus the shared queue-wait
 * histogram, resolved once per run() so workers touch only
 * lock-free handles. Null handles (telemetry disabled) skip all
 * clock reads on the batch path.
 */
struct RunTelemetry
{
    std::vector<telemetry::Histogram*> workerBatchSeconds;
    telemetry::Histogram* queueWaitSeconds = nullptr;

    static RunTelemetry resolve(std::size_t workers)
    {
        RunTelemetry t;
        if (!telemetry::enabled()) {
            t.workerBatchSeconds.assign(workers, nullptr);
            return t;
        }
        telemetry::MetricsRegistry& m = telemetry::metrics();
        t.workerBatchSeconds.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w) {
            t.workerBatchSeconds.push_back(&m.histogram(
                "runtime.worker" + std::to_string(w) +
                ".batch_seconds"));
        }
        t.queueWaitSeconds =
            &m.histogram("runtime.queue_wait_seconds");
        return t;
    }
};

} // namespace

ParallelBackend::ParallelBackend(const ShardedBackend& prototype,
                                 std::uint64_t seed,
                                 RuntimeOptions options)
    : rng_(seed), options_(options)
{
    if (options_.batchSize == 0)
        throw std::invalid_argument("ParallelBackend: batch size "
                                    "must be nonzero");
    options_.backoff.validate();
    // The calling thread is one of the executors, so the pool
    // holds the other threads - 1.
    const unsigned threads = resolveThreads(options_.numThreads);
    workers_ = cloneWorkers(prototype, threads);
    if (threads > 1)
        pool_ = std::make_unique<ThreadPool>(threads - 1);
}

Counts
ParallelBackend::run(const Circuit& circuit, std::size_t shots)
{
    const auto start = std::chrono::steady_clock::now();
    const ShotPlan plan(shots, options_.batchSize);
    Rng job(0);
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        // Invalidate up front: a run that throws must never leave
        // the previous run's throughput on display.
        stats_ = RuntimeStats{};
        // One job stream per call: repeated runs see fresh
        // substreams (call-order dependent, like the serial
        // simulators), while the batch->substream mapping below
        // stays order-independent. Drawn under the lock so
        // concurrent run() calls split distinct streams.
        job = rng_.split();
    }
    telemetry::SpanTracer::Scope runSpan =
        telemetry::span("runtime.run");
    const RunTelemetry tele =
        RunTelemetry::resolve(workers_.size());

    // Lower the circuit once and share the immutable compiled run
    // across every worker; backends without a compiled form (and
    // the fault-injection decorator, which must keep perturbing
    // each run() call) return nullptr and fall back to per-batch
    // run(). Both paths consume each batch's substream identically,
    // so the merged histogram is the same either way.
    const std::shared_ptr<const ShardedBackend::CompiledRun>
        compiled = workers_[0]->compile(circuit);

    std::vector<BatchResult> results(plan.numBatches());
    std::vector<std::uint64_t> workerShots(workers_.size(), 0);
    const RetryObserver onRetry = [](unsigned, double delay,
                                     const TransientError&) {
        telemetry::count("runtime.retries");
        telemetry::observe("runtime.backoff_seconds", delay);
    };
    // Set by the first batch that fails the run; later batches are
    // skipped instead of spending their retry budgets.
    std::atomic<bool> failed{false};
    // Batch task on worker w: writes only results[batch.index] and
    // workerShots[w], so tasks never share a slot.
    const auto runBatch = [&](const ShotBatch& batch, std::size_t w) {
        if (failed.load())
            return;
        const auto batchStart =
            tele.workerBatchSeconds[w]
                ? std::chrono::steady_clock::now()
                : std::chrono::steady_clock::time_point{};
        BatchResult& result = results[batch.index];
        result = attemptBatch(compiled.get(), *workers_[w], circuit,
                              job, batch, options_.maxRetries,
                              options_.backoff, options_.salvage,
                              onRetry);
        if (result.ok())
            workerShots[w] += batch.shots;
        else if (!result.dropped)
            failed.store(true);
        if (tele.workerBatchSeconds[w]) {
            tele.workerBatchSeconds[w]->record(
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - batchStart)
                    .count());
        }
    };

    // Batches are handed out by an atomic cursor in index order;
    // every executor claims the next one until none are left.
    std::atomic<std::size_t> cursor{0};
    const auto dispatched =
        pool_ && tele.queueWaitSeconds
            ? std::chrono::steady_clock::now()
            : std::chrono::steady_clock::time_point{};
    const auto drain = [&](std::size_t w) {
        for (std::size_t i = cursor.fetch_add(1); i < plan.numBatches();
             i = cursor.fetch_add(1)) {
            if (pool_ && tele.queueWaitSeconds) {
                tele.queueWaitSeconds->record(
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - dispatched)
                        .count());
            }
            runBatch(plan.batches()[i], w);
        }
    };

    if (!pool_) {
        drain(0);
    } else {
        // The caller executes batches on the last worker clone. A
        // concurrent run() that finds that clone busy leaves all of
        // its batches to the pool instead of waiting for it.
        std::unique_lock<std::mutex> callerSlot(callerSlotMutex_,
                                                std::try_to_lock);
        const std::size_t callerShare = callerSlot.owns_lock() ? 1 : 0;
        const std::size_t helpers = std::min<std::size_t>(
            pool_->size(), plan.numBatches() > callerShare
                               ? plan.numBatches() - callerShare
                               : 0);
        std::vector<std::future<void>> helperDone;
        helperDone.reserve(helpers);
        for (std::size_t h = 0; h < helpers; ++h) {
            helperDone.push_back(pool_->submit([&drain] {
                drain(static_cast<std::size_t>(
                    ThreadPool::workerIndex()));
            }));
        }
        std::exception_ptr callerError;
        if (callerSlot.owns_lock()) {
            try {
                drain(workers_.size() - 1);
            } catch (...) {
                callerError = std::current_exception();
            }
            callerSlot.unlock();
        }
        // Wait for every helper before touching the stack frame the
        // tasks reference.
        for (std::future<void>& f : helperDone)
            f.wait();
        if (callerError)
            std::rethrow_exception(callerError);
        for (std::future<void>& f : helperDone)
            f.get();
    }

    // The lowest-index batch that failed the run decides the
    // exception; dropped batches only shorten the histogram.
    for (const BatchResult& result : results) {
        if (!result.ok() && !result.dropped)
            std::rethrow_exception(result.error);
    }
    RunOutcome outcome;
    outcome.requestedShots = shots;
    outcome.completedShots = shots;
    outcome.salvage = options_.salvage;
    Counts merged(circuit.numClbits());
    for (std::size_t i = 0; i < plan.numBatches(); ++i) {
        const BatchResult& result = results[i];
        outcome.totalRetries += result.retries;
        outcome.backoffSeconds += result.backoffSeconds;
        if (result.ok()) {
            merged.merge(result.counts);
            if (result.retries > 0)
                outcome.retriedBatches += 1;
        } else {
            outcome.droppedBatches += 1;
            outcome.completedShots -= plan.batches()[i].shots;
            telemetry::count("runtime.dropped_batches");
        }
    }

    const double seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        stats_.shots = outcome.completedShots;
        stats_.batches = plan.numBatches();
        stats_.numThreads = numThreads();
        stats_.wallSeconds = seconds;
        stats_.shotsPerSecond =
            seconds > 0.0
                ? static_cast<double>(outcome.completedShots) /
                      seconds
                : 0.0;
        stats_.perWorkerShots = std::move(workerShots);
        stats_.outcome = outcome;
        stats_.valid = true;
    }
    if (telemetry::enabled()) {
        // Fold RuntimeStats into the registry so sinks see the
        // runtime's throughput next to every other metric.
        telemetry::MetricsRegistry& m = telemetry::metrics();
        m.counter("runtime.shots").add(outcome.completedShots);
        m.counter("runtime.batches").add(plan.numBatches());
        m.counter("runtime.jobs").add(1);
        if (compiled)
            m.counter("runtime.compiled_jobs").add(1);
        m.gauge("runtime.threads")
            .set(static_cast<double>(numThreads()));
        m.histogram("runtime.run_seconds").record(seconds);
    }
    return merged;
}

} // namespace qem

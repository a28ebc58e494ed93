#include "runtime/batch_attempt.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

namespace qem
{

double
BackoffPolicy::delaySeconds(unsigned attempt, Rng& rng) const
{
    if (baseSeconds <= 0.0)
        return 0.0;
    // Saturating 2^attempt: past ~60 doublings the cap always wins.
    const double scale =
        attempt >= 60 ? maxSeconds
                      : baseSeconds *
                            static_cast<double>(1ULL << attempt);
    double delay = std::min(scale, maxSeconds);
    if (jitter > 0.0)
        delay *= rng.uniform(1.0 - jitter, 1.0 + jitter);
    return std::min(delay, maxSeconds);
}

void
BackoffPolicy::validate() const
{
    if (!std::isfinite(baseSeconds) || !std::isfinite(maxSeconds) ||
        !std::isfinite(jitter)) {
        throw std::invalid_argument("BackoffPolicy: non-finite field");
    }
    if (baseSeconds < 0.0 || maxSeconds < 0.0)
        throw std::invalid_argument("BackoffPolicy: negative delay");
    if (jitter < 0.0 || jitter >= 1.0)
        throw std::invalid_argument("BackoffPolicy: jitter must lie "
                                    "in [0, 1)");
}

bool
isTransient(const std::exception& e)
{
    return dynamic_cast<const TransientError*>(&e) != nullptr;
}

void
backoffSleep(double seconds)
{
    if (seconds > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(seconds));
    }
}

BatchResult
attemptBatch(const ShardedBackend::CompiledRun* compiled,
             const ShardedBackend& worker, const Circuit& circuit,
             const Rng& job, const ShotBatch& batch,
             unsigned max_retries, const BackoffPolicy& backoff,
             SalvageMode salvage, const RetryObserver& on_retry)
{
    BatchResult result;
    // Keyed far above any real batch index so backoff draws can
    // never collide with a batch substream.
    Rng backoffRng = job.splitAt(
        std::numeric_limits<std::uint64_t>::max() - batch.index);
    for (;;) {
        // Re-derived fresh each attempt: a failed attempt may have
        // consumed part of the stream.
        Rng rng = ShotPlan::substream(job, batch.index);
        try {
            result.counts =
                compiled ? compiled->run(batch.shots, rng)
                         : worker.run(circuit, batch.shots, rng);
            return result;
        } catch (const TransientError& e) {
            if (result.retries < max_retries) {
                const double delay =
                    backoff.delaySeconds(result.retries, backoffRng);
                ++result.retries;
                result.backoffSeconds += delay;
                if (on_retry)
                    on_retry(result.retries, delay, e);
                backoffSleep(delay);
                continue;
            }
            result.dropped = salvage == SalvageMode::DropBatches;
            result.error =
                result.dropped
                    ? std::current_exception()
                    : std::make_exception_ptr(BudgetExhausted(
                          "batch " + std::to_string(batch.index) +
                          " lost after " +
                          std::to_string(result.retries + 1) +
                          " attempts: " + e.what()));
            return result;
        } catch (...) {
            // FatalError and non-taxonomy exceptions: never retried.
            result.error = std::current_exception();
            return result;
        }
    }
}

} // namespace qem

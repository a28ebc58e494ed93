#include "runtime/runtime_stats.hh"

#include <cstdio>

namespace qem
{

std::string
RunOutcome::toString() const
{
    char head[192];
    std::snprintf(head, sizeof head,
                  "%zu/%zu shots, %zu retried batches "
                  "(%zu retries), %zu dropped, %.3f s backoff%s",
                  completedShots, requestedShots, retriedBatches,
                  totalRetries, droppedBatches, backoffSeconds,
                  salvage == SalvageMode::DropBatches
                      ? ", salvage"
                      : "");
    return head;
}

std::string
RuntimeStats::toString() const
{
    char head[160];
    std::snprintf(head, sizeof head,
                  "%zu shots in %.3f s (%.0f shots/sec), "
                  "%zu batches on %u threads, per-worker [",
                  shots, wallSeconds, shotsPerSecond, batches,
                  numThreads);
    std::string out(head);
    for (std::size_t i = 0; i < perWorkerShots.size(); ++i) {
        char item[32];
        std::snprintf(item, sizeof item, "%s%llu", i ? ", " : "",
                      static_cast<unsigned long long>(
                          perWorkerShots[i]));
        out += item;
    }
    out += "]";
    if (outcome.degraded()) {
        out += " degraded: ";
        out += outcome.toString();
    }
    return out;
}

} // namespace qem

#include "service/artifact_cache.hh"

#include <sstream>

#include "service/fingerprint.hh"
#include "telemetry/telemetry.hh"

namespace qem::svc
{

const char*
artifactKindName(ArtifactKind kind)
{
    switch (kind) {
    case ArtifactKind::CompiledProgram:
        return "compiled";
    case ArtifactKind::RbmsProfile:
        return "rbms";
    case ArtifactKind::ConfusionCdf:
        return "confusion_cdf";
    }
    return "unknown";
}

std::uint64_t
ArtifactKey::hash() const
{
    std::uint64_t h = kFnvBasis;
    h = fnvWord(h, static_cast<std::uint64_t>(kind));
    h = fnvWord(h, subject);
    h = fnvString(h, machine);
    h = fnvWord(h, options);
    return h;
}

std::string
ArtifactKey::toString() const
{
    std::ostringstream out;
    out << artifactKindName(kind) << '/' << machine << '/'
        << std::hex << subject << '/' << options;
    return out.str();
}

ArtifactCache::ArtifactCache() : ArtifactCache(Options()) {}

ArtifactCache::ArtifactCache(Options options) : options_(options)
{
    if (options_.shards == 0)
        options_.shards = 1;
    shards_.reserve(options_.shards);
    for (unsigned i = 0; i < options_.shards; ++i)
        shards_.push_back(std::make_unique<Shard>());
}

void
ArtifactCache::countTelemetry(const char* which, std::uint64_t n)
{
    telemetry::count(std::string("service.cache.") + which, n);
}

void
ArtifactCache::evictOver(Shard& shard, std::size_t shard_budget)
{
    while (shard.bytesUsed > shard_budget && !shard.lru.empty()) {
        const ArtifactKey victim = shard.lru.back();
        auto it = shard.entries.find(victim);
        // LRU holds ready entries only, so the lookup always lands.
        shard.bytesUsed -= it->second.bytes;
        shard.lru.pop_back();
        shard.entries.erase(it);
        shard.evictions += 1;
        countTelemetry("evictions");
    }
}

std::shared_ptr<const void>
ArtifactCache::getOrComputeErased(
    const ArtifactKey& key,
    const std::function<
        std::pair<std::shared_ptr<const void>, std::size_t>()>&
        compute,
    bool* hit)
{
    Shard& shard =
        *shards_[key.hash() % shards_.size()];
    if (hit)
        *hit = false;

    {
        std::unique_lock<std::mutex> lock(shard.mutex);
        for (;;) {
            auto it = shard.entries.find(key);
            if (it == shard.entries.end())
                break; // This caller computes.
            Entry& entry = it->second;
            if (entry.ready) {
                shard.lru.splice(shard.lru.begin(), shard.lru,
                                 entry.lruPos);
                entry.lruPos = shard.lru.begin();
                shard.hits += 1;
                countTelemetry("hits");
                if (hit)
                    *hit = true;
                return entry.value;
            }
            // Someone else is building this artifact: wait for the
            // slot to become ready (or to be withdrawn after a
            // failed computation, in which case we take over).
            shard.singleFlightWaits += 1;
            countTelemetry("single_flight_waits");
            shard.readyCv.wait(lock, [&] {
                auto now = shard.entries.find(key);
                return now == shard.entries.end() ||
                       now->second.ready;
            });
        }
        // Claim the key with a pending slot, then compute outside
        // the lock so the shard stays responsive.
        Entry pending;
        pending.ready = false;
        shard.entries.emplace(key, std::move(pending));
        shard.misses += 1;
        countTelemetry("misses");
    }

    std::shared_ptr<const void> value;
    std::size_t bytes = 0;
    try {
        auto [v, b] = compute();
        value = std::move(v);
        bytes = b;
    } catch (...) {
        // Withdraw the pending slot so a waiter can retry.
        {
            std::lock_guard<std::mutex> lock(shard.mutex);
            shard.entries.erase(key);
        }
        shard.readyCv.notify_all();
        throw;
    }

    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.entries.find(key);
        // clear() may have dropped the pending slot; reinsert.
        if (it == shard.entries.end())
            it = shard.entries.emplace(key, Entry{}).first;
        Entry& entry = it->second;
        if (entry.invalidated) {
            // invalidate() raced this computation: hand the value
            // to the caller that started before the invalidation,
            // but never let it become resident — waiters wake on
            // the erased slot and recompute fresh.
            shard.entries.erase(it);
        } else {
            entry.value = value;
            entry.bytes = bytes;
            entry.ready = true;
            shard.lru.push_front(key);
            entry.lruPos = shard.lru.begin();
            shard.bytesUsed += bytes;
            // Per-shard budget: the total divides evenly; a 0
            // budget keeps nothing resident (the entry is evicted
            // right here, after being handed to the caller).
            evictOver(shard, options_.maxBytes / shards_.size());
        }
    }
    shard.readyCv.notify_all();
    if (telemetry::enabled()) {
        telemetry::gaugeSet("service.cache.bytes",
                            static_cast<double>(stats().bytesUsed));
    }
    return value;
}

bool
ArtifactCache::invalidate(const ArtifactKey& key)
{
    Shard& shard = *shards_[key.hash() % shards_.size()];
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.entries.find(key);
        if (it == shard.entries.end())
            return false;
        Entry& entry = it->second;
        if (entry.ready) {
            shard.bytesUsed -= entry.bytes;
            shard.lru.erase(entry.lruPos);
            shard.entries.erase(it);
        } else if (entry.invalidated) {
            // Already marked by an earlier invalidate; count once.
            return false;
        } else {
            entry.invalidated = true;
        }
        shard.invalidations += 1;
    }
    countTelemetry("invalidations");
    if (telemetry::enabled()) {
        telemetry::gaugeSet("service.cache.bytes",
                            static_cast<double>(stats().bytesUsed));
    }
    return true;
}

CacheStats
ArtifactCache::stats() const
{
    CacheStats total;
    for (const auto& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total.hits += shard->hits;
        total.misses += shard->misses;
        total.evictions += shard->evictions;
        total.invalidations += shard->invalidations;
        total.singleFlightWaits += shard->singleFlightWaits;
        total.bytesUsed += shard->bytesUsed;
        total.entries += shard->lru.size();
    }
    return total;
}

void
ArtifactCache::clear()
{
    for (auto& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        // Keep pending slots (their computations are in flight and
        // will reinsert on completion); drop everything ready.
        for (const ArtifactKey& key : shard->lru)
            shard->entries.erase(key);
        shard->lru.clear();
        shard->bytesUsed = 0;
    }
}

} // namespace qem::svc

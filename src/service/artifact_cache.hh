/**
 * @file
 * Shared cache for expensive per-machine artifacts.
 *
 * The paper's AIM flow (Section 5-6) front-loads an expensive
 * characterization phase — RBMS profiling, calibration confusion
 * statistics — whose results are valid for every subsequent job on
 * the same machine, and PR 5's compiled NoiseProgram has the same
 * shape: lower once, run millions of shots. A multi-tenant service
 * must not redo that work per submission, so this cache holds all
 * three artifact families keyed by content fingerprints
 * (circuit hash, machine id, options hash).
 *
 * Concurrency contract:
 *  - sharded: keys hash onto independent shards, each with its own
 *    mutex, so unrelated lookups never contend;
 *  - single-flight: concurrent requests for the same missing key
 *    block on one computation — the artifact is built exactly once
 *    (asserted by test_artifact_cache's concurrent-compile test);
 *  - bounded: each ready entry carries a caller-estimated byte
 *    cost; exceeding the budget evicts least-recently-used ready
 *    entries (in-flight computations are never evicted).
 *
 * Telemetry (when enabled): `service.cache.hits`,
 * `service.cache.misses`, `service.cache.evictions`,
 * `service.cache.invalidations`,
 * `service.cache.single_flight_waits` counters and the
 * `service.cache.bytes` gauge. The same numbers are always
 * available programmatically through stats().
 */

#ifndef QEM_SERVICE_ARTIFACT_CACHE_HH
#define QEM_SERVICE_ARTIFACT_CACHE_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace qem::svc
{

/** Families of cached artifacts (part of the key). */
enum class ArtifactKind : std::uint8_t
{
    /** A ShardedBackend::CompiledRun lowered from one circuit. */
    CompiledProgram,
    /** An RbmsEstimate from machine characterization. */
    RbmsProfile,
    /** Per-truth-state readout-confusion CDF rows. */
    ConfusionCdf,
};

/** Display name ("compiled", "rbms", "confusion_cdf"). */
const char* artifactKindName(ArtifactKind kind);

/**
 * Cache key: what kind of artifact, derived from which circuit (or
 * qubit set), on which machine, under which options. Two tenants
 * submitting identical work produce equal keys and share one
 * artifact.
 */
struct ArtifactKey
{
    ArtifactKind kind = ArtifactKind::CompiledProgram;
    /** fingerprintCircuit / fingerprintQubits of the subject. */
    std::uint64_t subject = 0;
    /** Machine display name ("ibmqx4", ...). */
    std::string machine;
    /** Fingerprint of every option that changes the artifact. */
    std::uint64_t options = 0;

    bool operator==(const ArtifactKey& other) const
    {
        return kind == other.kind && subject == other.subject &&
               options == other.options &&
               machine == other.machine;
    }

    /** Shard/bucket hash, mixed over every field. */
    std::uint64_t hash() const;

    /** "compiled/ibmqx4/1a2b.../0" — for logs and audit records. */
    std::string toString() const;
};

/** Hash functor so ArtifactKey works in unordered containers. */
struct ArtifactKeyHash
{
    std::size_t operator()(const ArtifactKey& key) const
    {
        return static_cast<std::size_t>(key.hash());
    }
};

/** Point-in-time counters of one cache. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /**
     * Entries dropped through invalidate(). Deliberately separate
     * from evictions: an eviction is the byte budget reclaiming
     * space, an invalidation is a caller declaring the value wrong
     * (e.g. a recalibration swap) — conflating them would make the
     * cache-thrash probe fire on healthy recalibration churn.
     */
    std::uint64_t invalidations = 0;
    /** Requests that waited on another thread's computation. */
    std::uint64_t singleFlightWaits = 0;
    /** Estimated bytes held by ready entries. */
    std::uint64_t bytesUsed = 0;
    /** Ready entries currently resident. */
    std::uint64_t entries = 0;
};

class ArtifactCache
{
  public:
    struct Options
    {
        /**
         * Total budget (estimated bytes) across all shards; 0 keeps
         * nothing resident (every request recomputes), which is the
         * cache-disabled configuration used by A/B tests.
         */
        std::size_t maxBytes = std::size_t{64} << 20;
        /** Independent shards (>= 1); keys hash onto shards. */
        unsigned shards = 8;
    };

    /** The value slot: an immutable artifact plus its byte cost. */
    template <typename T>
    struct Costed
    {
        std::shared_ptr<const T> value;
        std::size_t bytes = 0;
    };

    /** Default Options (64 MiB, 8 shards). */
    ArtifactCache();
    explicit ArtifactCache(Options options);

    /**
     * The artifact under @p key, computing it with @p compute on a
     * miss. Concurrent callers with the same key single-flight: one
     * computes, the rest wait and share the result. If compute
     * throws, the pending slot is withdrawn (waiters retry the
     * computation themselves) and the exception propagates to the
     * computing caller.
     *
     * @tparam T The artifact type; callers must use one T per
     *         ArtifactKind consistently (the cache stores a
     *         type-erased pointer and trusts the kind tag).
     * @param hit Optional out-param: true when served from cache
     *        without waiting on a computation.
     */
    template <typename T>
    std::shared_ptr<const T> getOrCompute(
        const ArtifactKey& key,
        const std::function<Costed<T>()>& compute,
        bool* hit = nullptr)
    {
        auto erased = getOrComputeErased(
            key,
            [&compute]() -> std::pair<std::shared_ptr<const void>,
                                      std::size_t> {
                Costed<T> costed = compute();
                return {std::static_pointer_cast<const void>(
                            std::move(costed.value)),
                        costed.bytes};
            },
            hit);
        return std::static_pointer_cast<const T>(
            std::move(erased));
    }

    /**
     * Drop @p key so no getOrCompute issued after this call ever
     * observes the value cached under it. A ready entry is erased
     * immediately; an in-flight computation is marked so its result
     * is still handed to the caller that initiated it but is never
     * retained (waiters then recompute). Holders of previously
     * returned shared_ptr values are unaffected — that is the
     * pinned-generation contract recalibration relies on.
     *
     * @return true when an entry (ready or pending) existed.
     */
    bool invalidate(const ArtifactKey& key);

    /** Merged counters across every shard. */
    CacheStats stats() const;

    /** Drop every ready entry (in-flight computations finish and
     *  are then dropped on insert if the budget is 0 — otherwise
     *  they land normally). */
    void clear();

    std::size_t maxBytes() const { return options_.maxBytes; }

  private:
    struct Entry
    {
        std::shared_ptr<const void> value;
        std::size_t bytes = 0;
        bool ready = false;
        /** Pending slot invalidated mid-compute: the result is
         *  handed to its caller but never becomes resident. */
        bool invalidated = false;
        /** Iterator into the shard's LRU list (ready only). */
        std::list<ArtifactKey>::iterator lruPos;
    };

    struct Shard
    {
        mutable std::mutex mutex;
        std::condition_variable readyCv;
        std::unordered_map<ArtifactKey, Entry, ArtifactKeyHash>
            entries;
        /** Ready keys, most recently used at the front. */
        std::list<ArtifactKey> lru;
        std::size_t bytesUsed = 0;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::uint64_t invalidations = 0;
        std::uint64_t singleFlightWaits = 0;
    };

    std::shared_ptr<const void> getOrComputeErased(
        const ArtifactKey& key,
        const std::function<
            std::pair<std::shared_ptr<const void>, std::size_t>()>&
            compute,
        bool* hit);

    /** Evict ready LRU entries until the shard fits its budget.
     *  Caller holds the shard mutex. */
    void evictOver(Shard& shard, std::size_t shard_budget);

    /** Mirror shard counter deltas into the telemetry registry. */
    void countTelemetry(const char* which, std::uint64_t n = 1);

    Options options_;
    std::vector<std::unique_ptr<Shard>> shards_;
};

} // namespace qem::svc

#endif // QEM_SERVICE_ARTIFACT_CACHE_HH

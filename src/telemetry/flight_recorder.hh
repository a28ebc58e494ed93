/**
 * @file
 * Per-job flight recorder: a fixed-size ring of structured
 * lifecycle events.
 *
 * The job service attaches one recorder to each job (when
 * telemetry or the flightRecorder service option is on) and
 * records every control-plane transition — enqueue, admission,
 * compile/cache-hit, batch dispatch/retry/backoff/salvage, merge,
 * failure, audit. The ring is bounded, so a pathological job
 * (thousands of retries) keeps its newest events and counts the
 * overflow instead of growing; the dump lands in JobRecord,
 * the audit log, and the service manifest, which is how a failed
 * job is reconstructed after the fact.
 *
 * Timestamps are whatever the owner passes to recordAt() —
 * the service uses seconds since job submission, which keeps the
 * dumps meaningful without a global clock. record() uses the
 * injected clock when one was provided (0.0 otherwise).
 */

#ifndef QEM_TELEMETRY_FLIGHT_RECORDER_HH
#define QEM_TELEMETRY_FLIGHT_RECORDER_HH

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/json.hh"

namespace qem::telemetry
{

enum class FlightEventKind : std::uint8_t {
    Enqueue,
    Admit,
    Compile,
    CacheHit,
    Dispatch,
    Retry,
    Backoff,
    Salvage,
    Skip,
    Merge,
    Cancel,
    Fail,
    Audit,
    /** Staleness probe rejected a cached confusion model. */
    RecalTrip,
    /** A recalibration refresh published a new artifact
     *  generation (exactly one per refresh). */
    RecalSwap,
};

/** Stable lower-case token used in JSON dumps ("enqueue", ...). */
const char* flightEventKindName(FlightEventKind kind);

struct FlightEvent
{
    /** Monotonic per-recorder sequence (survives ring eviction). */
    std::uint64_t seq = 0;
    double tSeconds = 0.0;
    FlightEventKind kind = FlightEventKind::Enqueue;
    /** Batch index the event refers to; -1 for job-level events. */
    std::int64_t batch = -1;
    /** Kind-specific scalar (attempt number, batch count...). */
    std::uint64_t value = 0;
    /** Free-form detail (machine name, error text). */
    std::string detail;

    JsonValue toJson() const;
};

class FlightRecorder
{
  public:
    explicit FlightRecorder(std::size_t capacity = 64,
                            std::function<double()> clock = {});

    /** Record at clock() (or t=0 without a clock). */
    void record(FlightEventKind kind, std::int64_t batch = -1,
                std::uint64_t value = 0, std::string detail = {});

    /** Record with an explicit timestamp. */
    void recordAt(double t_seconds, FlightEventKind kind,
                  std::int64_t batch = -1, std::uint64_t value = 0,
                  std::string detail = {});

    /** Ring contents, oldest first. */
    std::vector<FlightEvent> events() const;

    /** Every record*() call ever made on this recorder. */
    std::uint64_t totalRecorded() const;

    /** Events evicted by the ring bound. */
    std::uint64_t droppedCount() const;

    /** Array-of-events dump (plus a drop marker when truncated). */
    JsonValue toJson() const;

  private:
    /** Stamp (at clock() when @p stampNow, else @p t_seconds),
     *  number and store one event. */
    void append(double t_seconds, bool stampNow, FlightEventKind kind,
                std::int64_t batch, std::uint64_t value,
                std::string detail);

    const std::size_t capacity_;
    const std::function<double()> clock_;
    mutable std::mutex mutex_;
    std::vector<FlightEvent> ring_;
    std::size_t head_ = 0; // Next slot once the ring is full.
    std::uint64_t total_ = 0;
};

} // namespace qem::telemetry

#endif // QEM_TELEMETRY_FLIGHT_RECORDER_HH

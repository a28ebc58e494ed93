#include "telemetry/flight_recorder.hh"

#include <algorithm>

namespace qem::telemetry
{

const char*
flightEventKindName(FlightEventKind kind)
{
    switch (kind) {
    case FlightEventKind::Enqueue: return "enqueue";
    case FlightEventKind::Admit: return "admit";
    case FlightEventKind::Compile: return "compile";
    case FlightEventKind::CacheHit: return "cache_hit";
    case FlightEventKind::Dispatch: return "dispatch";
    case FlightEventKind::Retry: return "retry";
    case FlightEventKind::Backoff: return "backoff";
    case FlightEventKind::Salvage: return "salvage";
    case FlightEventKind::Skip: return "skip";
    case FlightEventKind::Merge: return "merge";
    case FlightEventKind::Cancel: return "cancel";
    case FlightEventKind::Fail: return "fail";
    case FlightEventKind::Audit: return "audit";
    case FlightEventKind::RecalTrip: return "recal_trip";
    case FlightEventKind::RecalSwap: return "recal_swap";
    }
    return "unknown";
}

JsonValue
FlightEvent::toJson() const
{
    JsonValue out = JsonValue::object();
    out["seq"] = JsonValue(seq);
    out["t"] = JsonValue(tSeconds);
    out["event"] = JsonValue(flightEventKindName(kind));
    if (batch >= 0)
        out["batch"] = JsonValue(batch);
    if (value != 0)
        out["value"] = JsonValue(value);
    if (!detail.empty())
        out["detail"] = JsonValue(detail);
    return out;
}

FlightRecorder::FlightRecorder(std::size_t capacity,
                               std::function<double()> clock)
    : capacity_(std::max<std::size_t>(1, capacity)),
      clock_(std::move(clock))
{
    ring_.reserve(std::min<std::size_t>(capacity_, 16));
}

void
FlightRecorder::record(FlightEventKind kind, std::int64_t batch,
                       std::uint64_t value, std::string detail)
{
    append(0.0, true, kind, batch, value, std::move(detail));
}

void
FlightRecorder::recordAt(double t_seconds, FlightEventKind kind,
                         std::int64_t batch, std::uint64_t value,
                         std::string detail)
{
    append(t_seconds, false, kind, batch, value, std::move(detail));
}

void
FlightRecorder::append(double t_seconds, bool stampNow,
                       FlightEventKind kind, std::int64_t batch,
                       std::uint64_t value, std::string detail)
{
    FlightEvent event;
    event.kind = kind;
    event.batch = batch;
    event.value = value;
    event.detail = std::move(detail);

    std::lock_guard<std::mutex> lock(mutex_);
    // Read the clock under the lock that assigns seq, so clocked
    // timestamps never run backwards against sequence order when
    // several threads record into one job's recorder.
    event.tSeconds = stampNow ? (clock_ ? clock_() : 0.0) : t_seconds;
    event.seq = total_++;
    if (ring_.size() < capacity_) {
        ring_.push_back(std::move(event));
    } else {
        ring_[head_] = std::move(event);
        head_ = (head_ + 1) % capacity_;
    }
}

std::vector<FlightEvent>
FlightRecorder::events() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<FlightEvent> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i)
        out.push_back(ring_[(head_ + i) % ring_.size()]);
    return out;
}

std::uint64_t
FlightRecorder::totalRecorded() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return total_;
}

std::uint64_t
FlightRecorder::droppedCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return total_ - ring_.size();
}

JsonValue
FlightRecorder::toJson() const
{
    const std::uint64_t dropped = droppedCount();
    JsonValue out = JsonValue::array();
    if (dropped > 0) {
        JsonValue marker = JsonValue::object();
        marker["dropped"] = JsonValue(dropped);
        out.push(std::move(marker));
    }
    for (const FlightEvent& event : events())
        out.push(event.toJson());
    return out;
}

} // namespace qem::telemetry

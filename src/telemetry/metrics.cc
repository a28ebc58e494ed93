#include "telemetry/metrics.hh"

#include <algorithm>
#include <stdexcept>

namespace qem::telemetry
{

namespace
{

/**
 * fetch_add for atomic<double> via CAS: std::atomic<double>
 * arithmetic is C++20 but not universally lock-free-optimized; the
 * CAS loop is portable and contention on a histogram sum is low
 * (one update per recorded batch, not per shot).
 */
void
atomicAdd(std::atomic<double>& target, double delta)
{
    double cur = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(
        cur, cur + delta, std::memory_order_relaxed)) {
    }
}

void
atomicMin(std::atomic<double>& target, double v)
{
    double cur = target.load(std::memory_order_relaxed);
    while (v < cur && !target.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
}

void
atomicMax(std::atomic<double>& target, double v)
{
    double cur = target.load(std::memory_order_relaxed);
    while (v > cur && !target.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
}

} // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      buckets_(bounds_.size() + 1)
{
    if (bounds_.empty())
        throw std::invalid_argument("Histogram: need at least one "
                                    "bucket bound");
    if (!std::is_sorted(bounds_.begin(), bounds_.end()))
        throw std::invalid_argument("Histogram: bounds must be "
                                    "ascending");
}

void
Histogram::record(double v)
{
    const auto it =
        std::lower_bound(bounds_.begin(), bounds_.end(), v);
    const std::size_t bucket =
        static_cast<std::size_t>(it - bounds_.begin());
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    atomicAdd(sum_, v);
    atomicMin(min_, v);
    atomicMax(max_, v);
}

std::vector<std::uint64_t>
Histogram::bucketCounts() const
{
    std::vector<std::uint64_t> out(buckets_.size(), 0);
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        out[i] = buckets_[i].load(std::memory_order_relaxed);
    return out;
}

void
Histogram::reset()
{
    for (std::atomic<std::uint64_t>& b : buckets_)
        b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
    min_.store(std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
    max_.store(-std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
}

const std::vector<double>&
latencyBucketsSeconds()
{
    static const std::vector<double> kBounds = {
        1e-6,  2.5e-6, 5e-6,  1e-5, 2.5e-5, 5e-5, 1e-4,
        2.5e-4, 5e-4,  1e-3,  2.5e-3, 5e-3, 1e-2, 2.5e-2,
        5e-2,  1e-1,  2.5e-1, 5e-1, 1.0,   2.5,  5.0,
        10.0,  30.0};
    return kBounds;
}

Counter&
MetricsRegistry::counter(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::unique_ptr<Counter>& slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge&
MetricsRegistry::gauge(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::unique_ptr<Gauge>& slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram&
MetricsRegistry::histogram(const std::string& name,
                           std::vector<double> upper_bounds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::unique_ptr<Histogram>& slot = histograms_[name];
    if (!slot) {
        if (upper_bounds.empty())
            upper_bounds = latencyBucketsSeconds();
        slot = std::make_unique<Histogram>(
            std::move(upper_bounds));
    }
    return *slot;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot snap;
    for (const auto& [name, c] : counters_)
        snap.counters[name] = c->value();
    for (const auto& [name, g] : gauges_)
        snap.gauges[name] = g->value();
    for (const auto& [name, h] : histograms_) {
        MetricsSnapshot::HistogramData data;
        data.upperBounds = h->upperBounds();
        data.buckets = h->bucketCounts();
        data.count = h->count();
        data.sum = h->sum();
        data.min = h->min();
        data.max = h->max();
        snap.histograms[name] = std::move(data);
    }
    return snap;
}

void
MetricsRegistry::reset()
{
    // Zero in place: handles cached by other threads (and the ones
    // a run resolved up front) stay valid across a reset.
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [name, c] : counters_)
        c->reset();
    for (auto& [name, g] : gauges_)
        g->reset();
    for (auto& [name, h] : histograms_)
        h->reset();
}

} // namespace qem::telemetry

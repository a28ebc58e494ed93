/**
 * @file
 * Thread-safe metrics registry: monotonic counters, gauges, and
 * fixed-bucket histograms.
 *
 * Design split: *registration* (name -> handle lookup) takes a
 * mutex and is expected once per job, while the *hot path*
 * (Counter::add, Histogram::record) is lock-free — plain relaxed
 * atomics, safe to call from every pool worker concurrently.
 * Handles returned by the registry are stable for the registry's
 * lifetime (node-based storage), so callers may cache references
 * across jobs.
 */

#ifndef QEM_TELEMETRY_METRICS_HH
#define QEM_TELEMETRY_METRICS_HH

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace qem::telemetry
{

/** Monotonic counter (events, shots, gates...). */
class Counter
{
  public:
    void add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-write-wins instantaneous value (thread count, queue depth). */
class Gauge
{
  public:
    void set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { set(0.0); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Fixed-bucket histogram with lock-free recording. Bucket i counts
 * samples <= upperBounds()[i] (cumulative-style "le" bounds like
 * Prometheus, but stored per-bucket); one implicit overflow bucket
 * catches everything above the last bound. Bounds are fixed at
 * construction, so record() touches only atomics.
 */
class Histogram
{
  public:
    /** @param upper_bounds Ascending bucket upper bounds (>= 1). */
    explicit Histogram(std::vector<double> upper_bounds);

    void record(double v);

    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    double sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }

    /** +inf / -inf respectively when no samples were recorded. */
    double min() const
    {
        return min_.load(std::memory_order_relaxed);
    }
    double max() const
    {
        return max_.load(std::memory_order_relaxed);
    }

    const std::vector<double>& upperBounds() const
    {
        return bounds_;
    }

    /** Per-bucket sample counts; size() == upperBounds().size()+1,
     *  last entry is the overflow bucket. */
    std::vector<std::uint64_t> bucketCounts() const;

    void reset();

  private:
    std::vector<double> bounds_;
    std::vector<std::atomic<std::uint64_t>> buckets_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{
        std::numeric_limits<double>::infinity()};
    std::atomic<double> max_{
        -std::numeric_limits<double>::infinity()};
};

/** Default histogram bounds for latencies, in seconds: 1us..30s,
 *  roughly 3 buckets per decade. */
const std::vector<double>& latencyBucketsSeconds();

/** Point-in-time copy of every registered metric. */
struct MetricsSnapshot
{
    struct HistogramData
    {
        std::vector<double> upperBounds;
        std::vector<std::uint64_t> buckets;
        std::uint64_t count = 0;
        double sum = 0.0;
        double min = 0.0;
        double max = 0.0;
    };

    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramData> histograms;

    bool empty() const
    {
        return counters.empty() && gauges.empty() &&
               histograms.empty();
    }
};

class MetricsRegistry
{
  public:
    /** Find-or-create; the returned reference stays valid for the
     *  registry's lifetime. */
    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);

    /**
     * Find-or-create. @p upper_bounds is consulted only on first
     * registration (empty means latencyBucketsSeconds()); a later
     * call with different bounds returns the existing histogram
     * unchanged.
     */
    Histogram& histogram(const std::string& name,
                         std::vector<double> upper_bounds = {});

    MetricsSnapshot snapshot() const;

    /**
     * Zero every registered metric in place. Names stay registered
     * (a snapshot lists them with zero values) and every handle
     * stays valid, so threads that cached one may keep using it
     * concurrently with the reset.
     */
    void reset();

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

} // namespace qem::telemetry

#endif // QEM_TELEMETRY_METRICS_HH

/**
 * @file
 * The benchmark's own arithmetic: percentiles with the
 * "ten samples beyond" rule, open-loop due-time latency, the
 * Poisson arrival schedule, span self time, and the digest that
 * pins the determinism contract. Pure functions, tested by
 * ledger_test.cc, so a wrong number can never be a bug of the
 * benchmark itself.
 */

#ifndef PERFBENCH_LEDGER_HH
#define PERFBENCH_LEDGER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "qsim/counts.hh"
#include "qsim/rng.hh"
#include "telemetry/span.hh"

namespace perfbench
{

/** Median of @p values (mean of the middle two for even sizes);
 *  0 for an empty sample. */
double median(std::vector<double> values);

/**
 * Nearest-rank percentile: the smallest sample x such that at
 * least a share @p q of the samples are <= x. @p q in (0, 1];
 * 0 for an empty sample.
 */
double nearestRank(std::vector<double> samples, double q);

/** Samples strictly above the nearest-rank @p q of @p n samples. */
std::size_t samplesBeyond(std::size_t n, double q);

/** A tail percentile together with the sample that supports it. */
struct Tail
{
    /** The quantile reported (e.g. 0.99). */
    double quantile = 0.0;
    double value = 0.0;
    std::size_t samples = 0;
    /** Samples above the reported one. */
    std::size_t beyond = 0;
};

/**
 * The highest of p99, p95, p90, p75 and p50 that has at least
 * @p min_beyond samples beyond it (p50 when none has). Reporting a
 * p99 from 200 samples would be reporting the third-worst sample.
 */
Tail tailPercentile(const std::vector<double>& samples,
                    std::size_t min_beyond = 10);

/**
 * A quantile that one bad stretch of a run cannot move: split
 * @p samples (in arrival order) into as many equal consecutive
 * windows as hold @p window_min samples each (at least one), take
 * the nearest-rank @p q of each window, and report the median over
 * windows.
 */
double windowedQuantile(const std::vector<double>& samples, double q,
                        std::size_t window_min);

/**
 * Rate of @p amounts completed at @p times (seconds) over
 * [@p start, @p end]: the median over @p windows equal time windows
 * of each window's amount per second.
 */
double windowedRate(const std::vector<double>& times,
                    const std::vector<double>& amounts, double start,
                    double end, std::size_t windows);

/** One part of a request (a mode job): when its submit() call
 *  started and the service's submission-to-terminal seconds. */
struct PartTiming
{
    double submitStart = 0.0;
    double wallSeconds = 0.0;
};

/**
 * Open-loop request latency: from the time the request was *due*
 * to the terminal time of its last part. Measuring from the due
 * time, not from the actual submit, charges a stalled generator's
 * delay to every request it held back.
 */
double dueLatency(double due, const std::vector<PartTiming>& parts);

/** Poisson arrival times in [0, @p seconds) at @p rate per second,
 *  drawn from @p rng (same stream, same schedule). */
std::vector<double> poissonSchedule(qem::Rng& rng, double rate,
                                    double seconds);

/** A closed time interval [start, end] in seconds. */
struct Interval
{
    double start = 0.0;
    double end = 0.0;
};

/**
 * Seconds of @p parent covered by the union of @p children
 * (clipped to the parent), so overlapping children count once.
 */
double coveredSeconds(Interval parent, std::vector<Interval> children);

/** A span's self time: its duration minus coveredSeconds. */
double selfSeconds(Interval parent,
                   const std::vector<Interval>& children);

/** Per-name totals over a span tree. */
struct SpanTotals
{
    std::size_t calls = 0;
    double wallSeconds = 0.0;
    double selfSeconds = 0.0;
};

/**
 * Self time and wall time of every span under @p root, summed by
 * span name. The root itself is not included.
 */
std::map<std::string, SpanTotals>
spanTotals(const qem::telemetry::SpanSnapshot& root);

/** Order-sensitive digest of a sequence of histograms (FNV-1a over
 *  widths, outcomes and counts). */
class CountsDigest
{
  public:
    void add(const qem::Counts& counts);
    std::uint64_t value() const { return hash_; }
    std::string hex() const;

  private:
    void mix(std::uint64_t word);

    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

} // namespace perfbench

#endif // PERFBENCH_LEDGER_HH

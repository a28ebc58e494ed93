/**
 * @file
 * Shared plumbing of the perfbench binary: run options, the report
 * every workload fills, bench-local tracing, the oracle check and
 * the single-thread layer probes.
 *
 * Spans are recorded into a private SpanTracer owned by the
 * benchmark, never the program's global telemetry, so a traced run
 * times the same program code an untraced run does.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ledger.hh"
#include "mitigation/inversion.hh"
#include "qsim/simulator.hh"
#include "telemetry/json.hh"
#include "telemetry/span.hh"
#include "verify/oracle.hh"

namespace perfbench
{

/** Seconds on the steady clock, the same epoch JobService uses. */
inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for the trace and the result record. */
    std::string outDir = ".";
    /** Identifies the sources built (git sha or a content hash). */
    std::string sourceId = "unknown";
};

/**
 * Pool workers for a workload: the pool plus every runnable bench
 * thread, the calling thread included, must fit in nproc.
 * @p bench_threads counts the bench's own runnable threads.
 */
unsigned threadBudget(unsigned bench_threads);

/** Bench-local span recording; inert when tracing is off. */
class Tracer
{
  public:
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Switch recording on or off between timed phases. */
    void setEnabled(bool enabled)
    {
        enabled_.store(enabled, std::memory_order_relaxed);
    }

    qem::telemetry::SpanTracer::Scope span(const char* name)
    {
        return enabled() ? tracer_.scoped(name)
                         : qem::telemetry::SpanTracer::Scope();
    }

    qem::telemetry::SpanSnapshot snapshot() const
    {
        return tracer_.snapshot();
    }

  private:
    std::atomic<bool> enabled_{false};
    qem::telemetry::SpanTracer tracer_;
};

/** What a workload run produced. */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Failed output checks; empty means correct. */
    std::vector<std::string> checkFailures;
    std::map<std::string, double> endToEnd;
    std::map<std::string, double> perLayer;
    /** Extra facts for the human-readable output and the record. */
    qem::telemetry::JsonValue details =
        qem::telemetry::JsonValue::object();

    void fail(std::string what) { checkFailures.push_back(std::move(what)); }
};

/**
 * Fill the figures every workload reports the same way: setup_s (the
 * median of @p setup_seconds, each kept in details), the bounded
 * request_latency_p50_s (median over @p window-request windows of
 * each window's median), and the printed but unbounded tails (the
 * windowed p90 and the highest nearest-rank percentile with ten
 * samples beyond it). @p latency is in request order.
 */
void reportSetupAndLatency(Report& report,
                           const std::vector<double>& setup_seconds,
                           const std::vector<double>& latency,
                           std::size_t window);

/**
 * Oracle check of sampled, corrected logs: each log must lie within
 * the concentration radius of the exact post-correction
 * distribution of its realized plan. The exact distribution of each
 * (program, inversion string) mode costs one density-matrix
 * evolution (seconds at nine active qubits), so modes are declared
 * with require(), evaluated in parallel once, and shared by every
 * log that uses them.
 */
class OracleCheck
{
  public:
    /**
     * @param design_effect Correlated shots per trajectory; the
     *        radius uses shots / design_effect effective trials.
     * @param alpha Family-wise false-alarm probability, split
     *        evenly over @p checks.
     */
    OracleCheck(double design_effect, double alpha, std::size_t checks);

    /** Declare the mode (@p key, @p inversion) of @p circuit under
     *  @p oracle; both must outlive evaluate(). */
    void require(const std::string& key,
                 const qem::verify::ExactOracle& oracle,
                 const qem::Circuit& circuit,
                 qem::InversionString inversion);

    /** Compute every declared mode on up to @p threads threads. */
    void evaluate(unsigned threads);

    /** True when every mode of @p plan has been evaluated. */
    bool covers(const std::string& key, const qem::ModePlan& plan) const;

    /** Check @p counts against the mixture of @p plan's modes
     *  (covers() must hold). Returns false on a violation. */
    bool check(const std::string& key, const qem::ModePlan& plan,
               const qem::Counts& counts);

    double maxTvd() const { return maxTvd_; }
    /** Largest TVD as a share of its radius (must stay <= 1). */
    double maxRatio() const { return maxRatio_; }
    std::size_t checked() const { return checked_; }
    std::size_t modes() const { return modes_.size(); }

  private:
    using ModeKey = std::pair<std::string, qem::InversionString>;

    struct Pending
    {
        ModeKey key;
        const qem::verify::ExactOracle* oracle;
        const qem::Circuit* circuit;
    };

    double designEffect_;
    double alpha_;
    std::vector<Pending> pending_;
    std::map<ModeKey, std::vector<double>> modes_;
    double maxTvd_ = 0.0;
    double maxRatio_ = 0.0;
    std::size_t checked_ = 0;
};

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** Single-thread layer probes shared by the workloads. */
struct LayerProbe
{
    std::size_t compileCalls = 0;
    double compileP50 = 0.0;
    /** CompiledRun::run shots per second on one thread. */
    double shotsPerSecond1t = 0.0;
    /** StateVector::applyMatrix1q amplitudes per second. */
    double kernelAmpsPerSecond = 0.0;
    unsigned kernelQubits = 0;
};

/**
 * Time ShardedBackend::compile and a single-thread CompiledRun::run
 * for each (backend, circuit) pair of a workload, then
 * StateVector::applyMatrix1q at the widest compact register among
 * the circuits, under the active kernel implementation.
 */
LayerProbe probeLayers(
    const std::vector<std::pair<const qem::ShardedBackend*, qem::Circuit>>&
        runs,
    std::uint64_t seed);

/** Sweep workload: q14-session-sweep. */
Report runSessionSweep(const Options& options, double process_start);

/** Service workloads: q5-service-open (drift false) and
 *  q5-service-drift (drift true). */
Report runServiceTraffic(const Options& options, bool drift,
                         double process_start);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH

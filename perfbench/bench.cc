#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "noise/compaction.hh"
#include "qsim/gate.hh"
#include "qsim/statevector.hh"
#include "verify/statistics.hh"

namespace perfbench
{

unsigned
threadBudget(unsigned bench_threads)
{
    const unsigned nproc =
        std::max(1u, std::thread::hardware_concurrency());
    return nproc > bench_threads ? nproc - bench_threads : 1u;
}

void
reportSetupAndLatency(Report& report,
                      const std::vector<double>& setup_seconds,
                      const std::vector<double>& latency, std::size_t window)
{
    report.endToEnd["setup_s"] = median(setup_seconds);
    auto runs = qem::telemetry::JsonValue::array();
    for (const double s : setup_seconds)
        runs.push(s);
    report.details["setup_runs_s"] = std::move(runs);

    report.endToEnd["request_latency_p50_s"] =
        windowedQuantile(latency, 0.5, window);
    // The tails swing with the host's load too much to bound.
    report.details["request_latency_p90_s"] =
        windowedQuantile(latency, 0.9, window);
    const Tail tail = tailPercentile(latency);
    report.details["request_latency_p99_s"] = tail.value;
    report.details["request_latency_tail_quantile"] = tail.quantile;
    report.details["request_latency_samples"] =
        static_cast<std::uint64_t>(tail.samples);
}

OracleCheck::OracleCheck(double design_effect, double alpha,
                         std::size_t checks)
    : designEffect_(design_effect),
      alpha_(alpha / static_cast<double>(std::max<std::size_t>(1, checks)))
{
}

void
OracleCheck::require(const std::string& key,
                     const qem::verify::ExactOracle& oracle,
                     const qem::Circuit& circuit,
                     qem::InversionString inversion)
{
    ModeKey mode{key, inversion};
    if (modes_.count(mode) > 0)
        return;
    for (const Pending& p : pending_)
        if (p.key == mode)
            return;
    pending_.push_back({std::move(mode), &oracle, &circuit});
}

void
OracleCheck::evaluate(unsigned threads)
{
    std::vector<std::vector<double>> results(pending_.size());
    std::atomic<std::size_t> next{0};
    const auto work = [&] {
        for (std::size_t i = next++; i < pending_.size(); i = next++)
            results[i] = pending_[i].oracle->correctedDistribution(
                *pending_[i].circuit, pending_[i].key.second);
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < std::max(1u, threads); ++t)
        pool.emplace_back(work);
    work();
    for (std::thread& thread : pool)
        thread.join();
    for (std::size_t i = 0; i < pending_.size(); ++i)
        modes_[pending_[i].key] = std::move(results[i]);
    pending_.clear();
}

bool
OracleCheck::covers(const std::string& key, const qem::ModePlan& plan) const
{
    for (const qem::ModeShare& mode : plan)
        if (mode.shots > 0 && modes_.count({key, mode.inversion}) == 0)
            return false;
    return true;
}

bool
OracleCheck::check(const std::string& key, const qem::ModePlan& plan,
                   const qem::Counts& counts)
{
    std::size_t total = 0;
    for (const qem::ModeShare& mode : plan)
        total += mode.shots;
    if (total == 0 || counts.total() != total)
        return false;
    std::vector<double> mixture(std::size_t{1} << counts.numBits(), 0.0);
    for (const qem::ModeShare& mode : plan) {
        if (mode.shots == 0)
            continue;
        const std::vector<double>& dist = modes_.at({key, mode.inversion});
        const double weight = static_cast<double>(mode.shots) /
                              static_cast<double>(total);
        for (std::size_t x = 0; x < mixture.size(); ++x)
            mixture[x] += weight * dist[x];
    }
    const double tvd = qem::verify::totalVariation(counts, mixture);
    const auto effective = static_cast<std::uint64_t>(
        std::max(1.0, static_cast<double>(total) / designEffect_));
    const double bound =
        qem::verify::tvdBound(mixture.size(), effective, alpha_);
    ++checked_;
    maxTvd_ = std::max(maxTvd_, tvd);
    maxRatio_ = std::max(maxRatio_, tvd / bound);
    return tvd <= bound;
}

double
peakRssMb()
{
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB.
}

LayerProbe
probeLayers(
    const std::vector<std::pair<const qem::ShardedBackend*, qem::Circuit>>&
        runs,
    std::uint64_t seed)
{
    constexpr std::size_t kShots = 4096;
    LayerProbe probe;
    std::vector<double> compileSeconds;
    double runSeconds = 0.0;
    std::uint64_t shots = 0;
    qem::Rng rng(seed);
    for (const auto& [backend, circuit] : runs) {
        const double start = now();
        const auto compiled = backend->compile(circuit);
        compileSeconds.push_back(now() - start);
        if (!compiled)
            throw std::logic_error("probeLayers: backend has no "
                                   "compiled form");
        const double runStart = now();
        const qem::Counts counts = compiled->run(kShots, rng);
        runSeconds += now() - runStart;
        shots += counts.total();
        probe.kernelQubits = std::max(
            probe.kernelQubits, qem::compactCircuit(circuit).compactQubits);
    }
    probe.compileCalls = compileSeconds.size();
    probe.compileP50 = nearestRank(compileSeconds, 0.5);
    probe.shotsPerSecond1t =
        runSeconds > 0.0 ? static_cast<double>(shots) / runSeconds : 0.0;

    // A generic 1q unitary (no fast path) swept over every qubit of
    // the widest register for a fixed wall-clock slice.
    const qem::Matrix2 u = qem::gateMatrix1q(
        qem::GateKind::U3, {0.3, 0.7, 1.1});
    qem::StateVector state(probe.kernelQubits);
    std::uint64_t applications = 0;
    const double start = now();
    double elapsed = 0.0;
    do {
        for (unsigned round = 0; round < 64; ++round) {
            for (unsigned q = 0; q < probe.kernelQubits; ++q)
                state.applyMatrix1q(u, q);
            applications += probe.kernelQubits;
        }
        elapsed = now() - start;
    } while (elapsed < 0.2);
    probe.kernelAmpsPerSecond =
        static_cast<double>(applications) *
        static_cast<double>(std::size_t{1} << probe.kernelQubits) /
        elapsed;
    return probe;
}

} // namespace perfbench

/**
 * @file
 * q14-session-sweep: one closed-loop caller drives
 * MachineSession(ibmq_melbourne) on the parallel runtime through the
 * Q14 suite under Baseline, four-mode SIM and AIM (re-profiled per
 * program), the paper's Fig 14 melbourne column. Gate-noise
 * trajectories on at most nine active qubits keep the statevector
 * in L1, so the run measures per-step overhead in noise, qsim and
 * runtime and never touches the job service.
 */

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "harness/experiment.hh"
#include "mitigation/aim_policy.hh"
#include "mitigation/sim_policy.hh"
#include "runtime/parallel_backend.hh"
#include "telemetry/trace.hh"

namespace perfbench
{

namespace
{

using namespace qem;

/** Trials per policy run (the shared trial budget of Fig 14). */
constexpr std::size_t kShotsPerPolicy = 4096;
/** Shots per warm-up run of each program during set-up. */
constexpr std::size_t kWarmupShots = 256;
/** Set-ups per run; setup_s is their median. */
constexpr unsigned kSetupReps = 7;
/** Policy runs per window of the windowed latency quantiles. */
constexpr std::size_t kLatencyWindow = 200;
/** Seconds per window of the windowed throughput. */
constexpr double kRateWindowSeconds = 2.0;
/** Programs replayed by the determinism check. */
constexpr std::size_t kReplayPrograms = 8;

constexpr const char* kPolicies[] = {"Baseline", "SIM", "AIM"};
constexpr const char* kPolicySpans[] = {"mitigation.policy:Baseline",
                                        "mitigation.policy:SIM",
                                        "mitigation.policy:AIM"};

/** What the timing decorator saw across one phase. */
struct BackendTally
{
    std::uint64_t calls = 0;
    std::uint64_t shots = 0;
    double busySeconds = 0.0;
    std::uint64_t batches = 0;
    std::uint64_t retries = 0;
    std::vector<std::uint64_t> perWorkerShots;
};

/**
 * Backend decorator timing every run() from outside the runtime,
 * and collecting the parallel runtime's per-run accounting.
 */
class TimingBackend : public Backend
{
  public:
    TimingBackend(ParallelBackend& inner, Tracer& tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    Counts run(const Circuit& circuit, std::size_t shots) override
    {
        telemetry::SpanTracer::Scope s =
            tracer_.span("runtime.backend_run");
        const double start = now();
        Counts counts = inner_.run(circuit, shots);
        tally.busySeconds += now() - start;
        ++tally.calls;
        tally.shots += shots;
        const RuntimeStats& stats = inner_.lastRunStats();
        tally.batches += stats.batches;
        tally.retries += stats.outcome.totalRetries;
        std::vector<std::uint64_t>& perWorker = tally.perWorkerShots;
        perWorker.resize(
            std::max(perWorker.size(), stats.perWorkerShots.size()));
        for (std::size_t w = 0; w < stats.perWorkerShots.size(); ++w)
            perWorker[w] += stats.perWorkerShots[w];
        return counts;
    }

    unsigned numQubits() const override { return inner_.numQubits(); }

    BackendTally tally;

  private:
    ParallelBackend& inner_;
    Tracer& tracer_;
};

/** Everything the timed loop needs, built by setUp(). */
struct Sweep
{
    Machine machine;
    std::vector<NisqBenchmark> suite;
    std::unique_ptr<MachineSession> session;
    double machineBuildSeconds = 0.0;
    double suiteBuildSeconds = 0.0;
};

Sweep
setUp(std::uint64_t seed, unsigned workers)
{
    double start = now();
    Machine machine = makeMachine("ibmq_melbourne");
    const double machineSeconds = now() - start;
    start = now();
    std::vector<NisqBenchmark> suite = benchmarkSuiteQ14();
    const double suiteSeconds = now() - start;
    auto session = std::make_unique<MachineSession>(
        machine, seed,
        SessionOptions{.numThreads = workers, .batchSize = 256});
    // Warm the runtime pool, the kernels and the allocator.
    BaselinePolicy warmup;
    for (const NisqBenchmark& bench : suite)
        (void)session->runPolicy(bench.circuit, warmup, kWarmupShots);
    return Sweep{std::move(machine), std::move(suite), std::move(session),
                 machineSeconds, suiteSeconds};
}

/** One policy run: the unit request of the closed loop. Its time
 *  includes AIM's profiling and, for Baseline, the transpile of the
 *  program the three policies share. */
struct Request
{
    std::size_t bench = 0;
    unsigned policy = 0;
    double seconds = 0.0;
    /** Completion time (steady clock seconds). */
    double end = 0.0;
    bool ok = false;
    Counts counts;
    ModePlan plan;
};

struct Phase
{
    std::vector<Request> requests;
    /** Programs whose three policies all ran. */
    std::size_t programs = 0;
    std::size_t transpiles = 0;
    double startTime = 0.0;
    double wallSeconds = 0.0;
    std::uint64_t deliveredShots = 0;
    BackendTally backend;
    /** Transpiled circuit of each suite entry (for the oracle). */
    std::map<std::size_t, Circuit> circuits;
};

/**
 * The closed loop: program after program, in a seeded order, until
 * @p seconds have passed (the program in flight completes) or
 * @p max_programs have run.
 */
Phase
runPhase(Sweep& sweep, Tracer& tracer, Rng& order, double seconds,
         std::size_t max_programs)
{
    auto& parallel = dynamic_cast<ParallelBackend&>(
        sweep.session->backend());
    TimingBackend timing(parallel, tracer);
    Phase phase;
    std::vector<std::size_t> perm(sweep.suite.size());

    telemetry::SpanTracer::Scope timed = tracer.span("bench.timed");
    const double start = now();
    phase.startTime = start;
    while (phase.programs < max_programs &&
           now() - start < seconds) {
        std::iota(perm.begin(), perm.end(), 0);
        for (std::size_t i = perm.size(); i > 1; --i)
            std::swap(perm[i - 1], perm[order.index(i)]);
        for (const std::size_t b : perm) {
            if (phase.programs >= max_programs ||
                now() - start >= seconds)
                break;
            const NisqBenchmark& bench = sweep.suite[b];
            double requestStart = now();
            TranspiledProgram program;
            {
                telemetry::SpanTracer::Scope s = tracer.span("transpile");
                program = sweep.session->prepare(bench.circuit);
            }
            ++phase.transpiles;
            phase.circuits.try_emplace(b, program.circuit);

            for (unsigned p = 0; p < 3; ++p) {
                Request request;
                request.bench = b;
                request.policy = p;
                try {
                    std::unique_ptr<MitigationPolicy> policy;
                    if (p == 0) {
                        policy = std::make_unique<BaselinePolicy>();
                    } else if (p == 1) {
                        policy =
                            std::make_unique<StaticInvertAndMeasure>();
                    } else {
                        telemetry::SpanTracer::Scope s =
                            tracer.span("mitigation.rbms_profile");
                        auto rbms =
                            sweep.session->profileProgram(program);
                        policy = std::make_unique<
                            AdaptiveInvertAndMeasure>(std::move(rbms));
                    }
                    telemetry::SpanTracer::Scope s =
                        tracer.span(kPolicySpans[p]);
                    request.counts = policy->run(program.circuit, timing,
                                                 kShotsPerPolicy);
                    request.plan = policy->lastPlan();
                    request.ok =
                        request.counts.total() == kShotsPerPolicy;
                } catch (const std::exception& e) {
                    std::fprintf(stderr, "request %zu failed: %s\n",
                                 phase.requests.size(), e.what());
                }
                request.end = now();
                request.seconds = request.end - requestStart;
                requestStart = request.end;
                if (request.ok)
                    phase.deliveredShots += request.counts.total();
                phase.requests.push_back(std::move(request));
            }
            ++phase.programs;
        }
    }
    phase.wallSeconds = now() - start;
    phase.backend = std::move(timing.tally);
    return phase;
}

std::string
digestOf(const std::vector<Request>& requests, std::size_t count)
{
    CountsDigest digest;
    for (std::size_t i = 0; i < std::min(count, requests.size()); ++i)
        digest.add(requests[i].counts);
    return digest.hex();
}

Rng
orderStream(std::uint64_t seed)
{
    return Rng(seed).splitAt(0x5EEE9);
}

} // namespace

Report
runSessionSweep(const Options& options, double process_start)
{
    const unsigned workers = threadBudget(1);
    Report report;

    Sweep sweep = setUp(options.seed, workers);
    std::vector<double> setupSeconds = {now() - process_start};

    Tracer tracer;
    Rng order = orderStream(options.seed);
    // A traced run first repeats the untraced measurement for half
    // the time, so telemetry.overhead_frac compares like with like.
    Phase untraced, traced;
    const double phaseSeconds =
        options.trace ? options.seconds / 2.0 : options.seconds;
    untraced = runPhase(sweep, tracer, order, phaseSeconds, SIZE_MAX);
    const double rss = peakRssMb();
    if (options.trace) {
        tracer.setEnabled(true);
        traced = runPhase(sweep, tracer, order, phaseSeconds, SIZE_MAX);
        tracer.setEnabled(false);
    }
    const Phase& measured = options.trace ? traced : untraced;
    // More set-ups, after the timed phase so they cannot disturb it,
    // for a median that one slow moment of the host cannot move.
    for (unsigned rep = 1; rep < kSetupReps; ++rep) {
        const double start = now();
        (void)setUp(options.seed, workers);
        setupSeconds.push_back(now() - start);
    }

    // -- End-to-end metrics.
    std::vector<double> latency;
    for (const Phase* phase : {&untraced, &traced}) {
        for (const Request& r : phase->requests) {
            ++report.attempted;
            if (!r.ok)
                ++report.failed;
            else if (phase == &untraced)
                latency.push_back(r.seconds);
        }
    }
    const auto shotsPerSecond = [](const Phase& phase) {
        return static_cast<double>(phase.deliveredShots) /
               phase.wallSeconds;
    };
    // Median over time windows, so one slow stretch of the host
    // does not decide the run.
    const auto windowedShotsPerSecond = [](const Phase& phase) {
        std::vector<double> times, shots;
        for (const Request& r : phase.requests) {
            times.push_back(r.end);
            shots.push_back(r.ok ? static_cast<double>(r.counts.total())
                                 : 0.0);
        }
        const auto windows = static_cast<std::size_t>(
            std::max(1.0, phase.wallSeconds / kRateWindowSeconds));
        return windowedRate(times, shots, phase.startTime,
                            phase.startTime + phase.wallSeconds, windows);
    };
    report.endToEnd["mitigated_shots_per_s"] =
        windowedShotsPerSecond(untraced);
    report.endToEnd["peak_rss_mb"] = rss;
    report.details["workers"] = workers;
    report.details["caller_threads"] = 1u;
    report.details["shots_per_policy"] =
        static_cast<std::uint64_t>(kShotsPerPolicy);
    report.details["programs"] =
        static_cast<std::uint64_t>(untraced.programs + traced.programs);
    reportSetupAndLatency(report, setupSeconds, latency, kLatencyWindow);

    // -- Output checks (untimed). (a) Determinism: replay the first
    // programs, which always ran untraced, in a fresh session with
    // another worker count and tracing on; the digests must match.
    const std::size_t replayRequests = 3 * kReplayPrograms;
    {
        Sweep replay = setUp(options.seed, workers > 1 ? 1 : 2);
        Tracer replayTracer;
        replayTracer.setEnabled(true);
        Rng replayOrder = orderStream(options.seed);
        const Phase again = runPhase(replay, replayTracer, replayOrder,
                                     1e9, kReplayPrograms);
        const std::string first = digestOf(untraced.requests,
                                           replayRequests);
        report.details["digest"] = first;
        report.details["digest_requests"] =
            static_cast<std::uint64_t>(replayRequests);
        if (untraced.requests.size() < replayRequests)
            report.fail("determinism: fewer than " +
                        std::to_string(replayRequests) +
                        " requests ran");
        else if (digestOf(again.requests, replayRequests) != first)
            report.fail("determinism: replay digest differs");
    }
    // (b) Corrected logs against the oracle of their realized plan.
    // Every Baseline and SIM log is checked. AIM's tailored strings
    // depend on each run's canary sample and every new string costs
    // one density-matrix evolution (about 4.5 s for bv-7's nine
    // active qubits), so only the tailored strings of the first AIM
    // run of each program are evaluated, and every AIM log whose
    // modes they cover is checked; the rest are counted unchecked.
    {
        const verify::ExactOracle oracle(sweep.machine);
        OracleCheck check(16.0, 1e-6, report.attempted);
        std::map<std::size_t, bool> aimRequired;
        for (const Phase* phase : {&untraced, &traced}) {
            for (const Request& r : phase->requests) {
                const std::string& key = sweep.suite[r.bench].name;
                const Circuit& circuit = phase->circuits.at(r.bench);
                if (!oracle.supports(circuit)) {
                    report.fail("oracle: " + key + " outside supports()");
                    return report;
                }
                for (const InversionString s :
                     fourModeStrings(circuit.numClbits()))
                    check.require(key, oracle, circuit, s);
                if (r.ok && r.policy == 2 && !aimRequired[r.bench]) {
                    aimRequired[r.bench] = true;
                    for (const ModeShare& mode : r.plan)
                        check.require(key, oracle, circuit, mode.inversion);
                }
            }
        }
        check.evaluate(std::max(1u, std::thread::hardware_concurrency()));
        std::uint64_t unchecked = 0;
        for (const Phase* phase : {&untraced, &traced}) {
            for (const Request& r : phase->requests) {
                const std::string& key = sweep.suite[r.bench].name;
                if (!r.ok)
                    continue;
                if (!check.covers(key, r.plan))
                    ++unchecked;
                else if (!check.check(key, r.plan, r.counts))
                    report.fail("oracle: " + key + "/" + kPolicies[r.policy] +
                                " outside its TVD radius");
            }
        }
        report.perLayer["verify.oracle_tvd_max"] = check.maxTvd();
        report.details["oracle_checked"] =
            static_cast<std::uint64_t>(check.checked());
        report.details["oracle_unchecked_aim"] = unchecked;
        report.details["oracle_modes"] =
            static_cast<std::uint64_t>(check.modes());
        report.details["oracle_max_tvd_over_radius"] = check.maxRatio();
    }
    if (!options.trace)
        return report;

    // -- Per-layer ledger from the traced phase.
    const telemetry::SpanSnapshot spans = tracer.snapshot();
    const telemetry::SpanSnapshot* timed = spans.find("bench.timed");
    if (timed == nullptr)
        throw std::logic_error("sweep: traced phase recorded no spans");
    const auto totals = spanTotals(*timed);
    double attributed = 0.0;
    for (const auto& [name, row] : totals)
        attributed += row.selfSeconds;
    const double covered = attributed / timed->durationSeconds;
    report.details["caller_coverage"] = covered;
    if (covered < 0.95)
        report.fail("ledger: caller-thread rows cover only " +
                    std::to_string(covered) + " of the traced wall time");
    if (!telemetry::writeTrace(options.outDir + "/trace-" +
                                   options.workload + "-seed" +
                                   std::to_string(options.seed) + ".json",
                               spans))
        report.fail("trace: could not write the trace file");

    const TrajectorySimulator simulator(sweep.machine.noiseModel(),
                                        options.seed);
    std::vector<std::pair<const ShardedBackend*, Circuit>> runs;
    for (const auto& [b, circuit] : measured.circuits) {
        for (const InversionString s :
             fourModeStrings(circuit.numClbits()))
            runs.emplace_back(&simulator, applyInversion(circuit, s));
    }
    const LayerProbe probe = probeLayers(runs, options.seed);

    const auto rowSelf = [&](const char* name) {
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.selfSeconds;
    };
    auto& L = report.perLayer;
    L["kernels.suite_build_s"] = sweep.suiteBuildSeconds;
    L["machine.build_s"] = sweep.machineBuildSeconds;
    L["transpile.calls"] = static_cast<double>(measured.transpiles);
    L["transpile.busy_s"] = rowSelf("transpile");
    L["noise.compile_calls"] = static_cast<double>(probe.compileCalls);
    L["noise.compile_p50_s"] = probe.compileP50;
    L["noise.shots_per_s_1t"] = probe.shotsPerSecond1t;
    L["qsim.kernel_amps_per_s"] = probe.kernelAmpsPerSecond;
    const BackendTally& tally = measured.backend;
    L["runtime.backend_calls"] = static_cast<double>(tally.calls);
    L["runtime.backend_busy_s"] = rowSelf("runtime.backend_run");
    L["runtime.batches"] = static_cast<double>(tally.batches);
    L["runtime.retries"] = static_cast<double>(tally.retries);
    if (!tally.perWorkerShots.empty()) {
        const double total = static_cast<double>(
            std::accumulate(tally.perWorkerShots.begin(),
                            tally.perWorkerShots.end(), std::uint64_t{0}));
        const double most = static_cast<double>(*std::max_element(
            tally.perWorkerShots.begin(), tally.perWorkerShots.end()));
        L["runtime.worker_imbalance"] =
            most / (total / static_cast<double>(tally.perWorkerShots.size()));
    }
    L["runtime.parallel_efficiency"] =
        (static_cast<double>(tally.shots) / tally.busySeconds) /
        (workers * probe.shotsPerSecond1t);
    for (unsigned p = 0; p < 3; ++p)
        L[std::string("mitigation.policy_self_s.") + kPolicies[p]] =
            rowSelf(kPolicySpans[p]);
    L["mitigation.rbms_profile_s"] = rowSelf("mitigation.rbms_profile");
    L["telemetry.overhead_frac"] =
        1.0 - shotsPerSecond(traced) / shotsPerSecond(untraced);
    L["bench.unattributed_s"] = timed->durationSeconds - attributed;
    report.details["kernel_qubits"] = probe.kernelQubits;
    return report;
}

} // namespace perfbench

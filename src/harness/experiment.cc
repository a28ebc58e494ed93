#include "harness/experiment.hh"

#include <chrono>
#include <functional>
#include <stdexcept>

#include "harness/config.hh"
#include "telemetry/manifest.hh"
#include "telemetry/telemetry.hh"
#include "verify/oracle.hh"
#include "verify/statistics.hh"

namespace qem
{

namespace
{

/** Wall seconds since @p start. */
double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

MachineSession::MachineSession(Machine machine, std::uint64_t seed,
                               SessionOptions options)
    : machine_(std::move(machine)), seed_(seed),
      options_(options), backend_(machine_.noiseModel(), seed),
      transpiler_(machine_)
{
    if (options.numThreads > 0) {
        parallel_ = std::make_unique<ParallelBackend>(
            backend_, seed,
            RuntimeOptions{.numThreads = options.numThreads,
                           .batchSize = options.batchSize});
    }
}

TranspiledProgram
MachineSession::prepare(const Circuit& logical) const
{
    telemetry::SpanTracer::Scope s = telemetry::span("transpile");
    TranspiledProgram program = transpiler_.transpile(logical);
    telemetry::count("session.transpiles");
    return program;
}

void
MachineSession::recordSerialRun(std::size_t shots,
                                double wall_seconds)
{
    serialStats_.shots = shots;
    serialStats_.batches = 1;
    serialStats_.numThreads = 1; // The calling thread.
    serialStats_.wallSeconds = wall_seconds;
    serialStats_.shotsPerSecond =
        wall_seconds > 0.0
            ? static_cast<double>(shots) / wall_seconds
            : 0.0;
    serialStats_.perWorkerShots = {shots};
    serialStats_.outcome = RunOutcome{};
    serialStats_.outcome.requestedShots = shots;
    serialStats_.outcome.completedShots = shots;
    serialStats_.valid = true;
}

void
MachineSession::reportDegradedRun(const std::string& policy_name)
{
    const RuntimeStats* stats = lastRunStats();
    if (stats == nullptr || !stats->outcome.degraded())
        return;
    telemetry::count("session.degraded_runs");
    if (!stats->outcome.complete()) {
        telemetry::count("session.dropped_shots",
                         stats->outcome.requestedShots -
                             stats->outcome.completedShots);
    }
    if (telemetry::enabled()) {
        telemetry::metrics()
            .counter("session.policy." + policy_name +
                     ".degraded_runs")
            .add(1);
    }
}

Counts
MachineSession::runPolicy(const TranspiledProgram& program,
                          MitigationPolicy& policy,
                          std::size_t shots)
{
    telemetry::SpanTracer::Scope s =
        telemetry::span("policy:" + policy.name());
    // Invalidate up front: a run that throws must not leave the
    // previous run's stats on display.
    serialStats_ = RuntimeStats{};
    if (parallel_)
        parallel_->invalidateStats();
    const auto start = std::chrono::steady_clock::now();
    Counts counts = policy.run(program.circuit, backend(), shots);
    const double seconds = secondsSince(start);
    if (!parallel_)
        recordSerialRun(shots, seconds);
    reportDegradedRun(policy.name());
    if (telemetry::enabled()) {
        telemetry::MetricsRegistry& m = telemetry::metrics();
        m.counter("session.policy." + policy.name() + ".shots")
            .add(shots);
        m.counter("session.policy." + policy.name() + ".runs")
            .add(1);
        m.histogram("session.policy_run_seconds")
            .record(seconds);
    }
    return counts;
}

Counts
MachineSession::runPolicy(const Circuit& logical,
                          MitigationPolicy& policy,
                          std::size_t shots)
{
    return runPolicy(prepare(logical), policy, shots);
}

std::vector<Qubit>
measuredPhysicalQubits(const TranspiledProgram& program)
{
    return program.circuit.measuredQubits();
}

std::vector<double>
symmetrizedReadoutRates(const Machine& machine,
                        const TranspiledProgram& program)
{
    std::vector<double> rates(program.circuit.numClbits(), 0.0);
    for (const Operation& op : program.circuit.ops()) {
        if (op.kind != GateKind::MEASURE)
            continue;
        rates[op.cbit] =
            machine.calibration().readoutAssignmentError(
                op.qubits[0]);
    }
    return rates;
}

std::shared_ptr<const RbmsEstimate>
MachineSession::profileProgram(const TranspiledProgram& program,
                               const RbmsOptions& options)
{
    telemetry::SpanTracer::Scope s =
        telemetry::span("profile_rbms");
    return characterizeAuto(backend(),
                            measuredPhysicalQubits(program),
                            options);
}

std::shared_ptr<const RbmsEstimate>
MachineSession::profileProgram(svc::ArtifactCache& cache,
                               const TranspiledProgram& program,
                               const RbmsOptions& options)
{
    telemetry::SpanTracer::Scope s =
        telemetry::span("profile_rbms");
    return svc::cachedRbmsProfile(cache, backend(),
                                  machine_.name(),
                                  measuredPhysicalQubits(program),
                                  options);
}

svc::JobHandle
MachineSession::submitAsync(svc::JobService& service,
                            const Circuit& logical,
                            std::size_t shots,
                            svc::JobOptions options)
{
    if (!service.hasMachine(machine_.name()))
        service.registerMachine(machine_.name(), backend_);
    const TranspiledProgram program = prepare(logical);
    return service.submit(machine_.name(), program.circuit, shots,
                          std::move(options));
}

Counts
MachineSession::runEnsemble(const Circuit& logical,
                            MitigationPolicy& inner,
                            std::size_t shots, unsigned ensembles,
                            double diversity_sigma)
{
    // Each mapping takes an evenPlan share of the budget (which
    // refuses zero ensembles or fewer shots than ensembles); the
    // inversion strings are unused, the inner policy picks its own.
    const ModePlan shares =
        evenPlan(std::vector<InversionString>(ensembles), shots);
    telemetry::SpanTracer::Scope ensembleSpan =
        telemetry::span("ensemble:" + inner.name());
    telemetry::count("session.ensemble.mappings", ensembles);
    telemetry::count("session.ensemble.shots", shots);
    serialStats_ = RuntimeStats{};
    if (parallel_)
        parallel_->invalidateStats();
    const auto start = std::chrono::steady_clock::now();

    Counts merged(logical.numClbits());
    for (unsigned e = 0; e < ensembles; ++e) {
        TranspiledProgram program;
        {
            telemetry::SpanTracer::Scope s =
                telemetry::span("transpile");
            Transpiler diverse(
                machine_,
                std::make_shared<JitteredAllocator>(
                    e + 1, diversity_sigma));
            program = diverse.transpile(logical);
        }
        telemetry::SpanTracer::Scope s =
            telemetry::span("policy:" + inner.name());
        merged.merge(
            inner.run(program.circuit, backend(), shares[e].shots));
    }

    if (!parallel_)
        recordSerialRun(shots, secondsSince(start));
    reportDegradedRun("ensemble:" + inner.name());
    return merged;
}

std::vector<PolicyResult>
MachineSession::comparePolicies(const NisqBenchmark& benchmark,
                                std::size_t shots,
                                const CompareOptions& options)
{
    const bool with_oracle =
        options.withOracle || configuredOracle();
    std::vector<PolicyResult> results;
    {
        telemetry::SpanTracer::Scope compareSpan =
            telemetry::span("compare_policies:" + benchmark.name);

        const TranspiledProgram program =
            prepare(benchmark.circuit);

        const verify::ExactOracle oracle(machine_);
        const bool oracle_ok =
            with_oracle && oracle.supports(program.circuit);

        // When non-null, the policy's analytic prediction is not
        // plan-shaped (BFA's rate unfolding): the provider supplies
        // the oracle distribution directly.
        using AnalyticProvider =
            std::function<std::vector<double>()>;
        auto record = [&](MitigationPolicy& policy,
                          const AnalyticProvider& analytic = {}) {
            Counts counts = runPolicy(program, policy, shots);
            const ReliabilityReport report =
                reliability(counts, benchmark.acceptedOutputs);
            PolicyResult result;
            result.policy = policy.name();
            result.counts = std::move(counts);
            result.report = report;
            if (const RuntimeStats* stats = lastRunStats()) {
                result.outcome = stats->outcome;
                result.degraded = stats->outcome.degraded();
            }
            result.zExpectations =
                singleQubitZWithErrors(result.counts);
            result.observableValues.reserve(
                options.observables.size());
            for (const DiagonalObservable& obs :
                 options.observables) {
                result.observableValues.push_back(
                    expectation(obs, result.counts));
            }
            // Conditional on the realized plan, the merged log is a
            // sample from the oracle's mixture, so this TVD should
            // shrink like O(1/sqrt(shots)) for a correct policy.
            if (oracle_ok) {
                const ModePlan& plan = policy.lastPlan();
                std::vector<double> dist;
                telemetry::SpanTracer::Scope s =
                    telemetry::span("oracle:" + policy.name());
                if (analytic)
                    dist = analytic();
                else if (!plan.empty())
                    dist = oracle.planDistribution(program.circuit,
                                                   plan);
                if (!dist.empty()) {
                    result.oracleTvd = verify::totalVariation(
                        result.counts, dist);
                    result.oracleZ = zExpectationsFromDistribution(
                        dist, result.counts.numBits());
                    telemetry::gaugeSet("session.policy." +
                                            policy.name() +
                                            ".oracle_tvd",
                                        result.oracleTvd);
                }
            }
            results.push_back(std::move(result));
        };

        BaselinePolicy baseline;
        record(baseline);

        StaticInvertAndMeasure sim;
        record(sim);

        // AIM and Rebalance share one RBMS characterization of the
        // program's physical output register.
        const std::shared_ptr<const RbmsEstimate> rbms =
            profileProgram(program);
        AdaptiveInvertAndMeasure aim(rbms);
        record(aim);

        if (options.includeFamily) {
            RebalancePolicy rebalance(rbms);
            record(rebalance);

            BfaOptions bfa_options;
            bfa_options.numGroups = options.bfaGroups;
            bfa_options.twirlSeed = options.bfaTwirlSeed;
            bfa_options.symmetrizedRates =
                symmetrizedReadoutRates(machine_, program);
            BitFlipAveragePolicy bfa(bfa_options);
            record(bfa, [&] {
                return oracle.bfaCorrectedDistribution(
                    program.circuit, bfa.lastTwirlPlan(),
                    bfa.symmetrizedRates());
            });
        }
    }

    // The per-run manifest: written once the compare span has
    // closed, so its timings are final.
    if (telemetry::enabled()) {
        const std::string path = telemetry::manifestPath();
        if (!path.empty()) {
            writeManifest(path,
                          "comparePolicies:" + benchmark.name,
                          shots);
        }
    }
    return results;
}

bool
MachineSession::writeManifest(const std::string& path,
                              const std::string& label,
                              std::size_t shots_requested) const
{
    telemetry::RunInfo run;
    run.label = label;
    run.machine = machine_.name();
    run.seed = seed_;
    run.numThreads = options_.numThreads;
    run.batchSize = options_.batchSize;
    run.shotsRequested = shots_requested;
    return telemetry::writeManifest(
        path,
        telemetry::buildManifest(run,
                                 telemetry::metrics().snapshot(),
                                 telemetry::tracer().snapshot()));
}

} // namespace qem

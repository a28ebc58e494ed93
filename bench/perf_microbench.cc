/**
 * @file
 * google-benchmark microbenchmarks of the substrate: gate
 * application, trajectory execution, sampling, readout confusion,
 * transpilation, and the mitigation policies' overhead.
 *
 * Besides the usual console table, the custom main() at the bottom
 * captures every run and writes `BENCH_perf_microbench.json` (see
 * harness/bench_io.hh) so the perf trajectory is machine-readable
 * across PRs.
 */

#include <benchmark/benchmark.h>

#include <cstdio>

#include "harness/bench_io.hh"
#include "harness/experiment.hh"
#include "kernels/basis.hh"
#include "kernels/bv.hh"
#include "mitigation/rbms.hh"
#include "qsim/bitstring.hh"
#include "qsim/gate.hh"
#include "qsim/kernels/kernels.hh"
#include "runtime/parallel_backend.hh"

namespace
{

using namespace qem;

void
BM_ApplyHadamard(benchmark::State& state)
{
    const unsigned n = static_cast<unsigned>(state.range(0));
    StateVector sv(n);
    for (auto _ : state) {
        sv.applyH(0);
        benchmark::DoNotOptimize(sv.amplitude(0));
    }
    state.SetItemsProcessed(state.iterations() *
                            (std::int64_t{1} << n));
    state.counters["amps_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(std::int64_t{1} << n),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ApplyHadamard)->Arg(5)->Arg(10)->Arg(14)->Arg(20);

void
BM_ApplyCx(benchmark::State& state)
{
    const unsigned n = static_cast<unsigned>(state.range(0));
    StateVector sv(n);
    sv.applyH(0);
    for (auto _ : state) {
        sv.applyCX(0, n - 1);
        benchmark::DoNotOptimize(sv.amplitude(0));
    }
    state.SetItemsProcessed(state.iterations() *
                            (std::int64_t{1} << n));
    state.counters["amps_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(std::int64_t{1} << n),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ApplyCx)->Arg(5)->Arg(10)->Arg(14)->Arg(20);

/**
 * Per-kernel dense-matrix apply throughput. One benchmark instance
 * per compiled implementation (scalar always; avx2 when QEM_SIMD
 * found -mavx2), pinned through kernels::setActive so the baselines
 * track the portable reference and the SIMD path separately. The
 * amps_per_sec counter — amplitudes touched per wall-clock second —
 * is the comparison axis check_bench_regression.py watches. An
 * instance whose implementation is not compiled in (e.g. the avx2
 * row on the -DQEM_SIMD=OFF CI leg) skips with an error and is
 * dropped from the JSON export rather than reporting a bogus zero.
 */
void
BM_KernelApply1q(benchmark::State& state, kernels::Impl impl)
{
    const kernels::Impl saved = kernels::active();
    if (!kernels::setActive(impl)) {
        state.SkipWithError("kernel impl not compiled in");
        return;
    }
    const unsigned n = static_cast<unsigned>(state.range(0));
    const Matrix2 u = gateMatrix1q(GateKind::U3, {0.3, 0.2, 0.1});
    StateVector sv(n);
    for (auto _ : state) {
        sv.applyMatrix1q(u, 0);
        benchmark::DoNotOptimize(sv.amplitude(0));
    }
    state.SetItemsProcessed(state.iterations() *
                            (std::int64_t{1} << n));
    state.counters["amps_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(std::int64_t{1} << n),
        benchmark::Counter::kIsRate);
    kernels::setActive(saved);
}
BENCHMARK_CAPTURE(BM_KernelApply1q, scalar, kernels::Impl::Scalar)
    ->Arg(14)
    ->Arg(20);
BENCHMARK_CAPTURE(BM_KernelApply1q, avx2, kernels::Impl::Avx2)
    ->Arg(14)
    ->Arg(20);

/**
 * Dense 4x4 apply on qubits (2, 5): lo = 4 exercises the
 * cache-blocked vectorized cell traversal, not the lo == 1 scalar
 * fallback. This is the kernel MATRIX_2Q steps (coherent ZZ
 * crosstalk) run on.
 */
void
BM_KernelApply2q(benchmark::State& state, kernels::Impl impl)
{
    const kernels::Impl saved = kernels::active();
    if (!kernels::setActive(impl)) {
        state.SkipWithError("kernel impl not compiled in");
        return;
    }
    const unsigned n = static_cast<unsigned>(state.range(0));
    const Matrix4 u = gateMatrix2q(GateKind::CX);
    StateVector sv(n);
    sv.applyH(2);
    for (auto _ : state) {
        sv.applyMatrix2q(u, 2, 5);
        benchmark::DoNotOptimize(sv.amplitude(0));
    }
    state.SetItemsProcessed(state.iterations() *
                            (std::int64_t{1} << n));
    state.counters["amps_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(std::int64_t{1} << n),
        benchmark::Counter::kIsRate);
    kernels::setActive(saved);
}
BENCHMARK_CAPTURE(BM_KernelApply2q, scalar, kernels::Impl::Scalar)
    ->Arg(14)
    ->Arg(20);
BENCHMARK_CAPTURE(BM_KernelApply2q, avx2, kernels::Impl::Avx2)
    ->Arg(14)
    ->Arg(20);

void
BM_AmplitudeDampingChannel(benchmark::State& state)
{
    const unsigned n = static_cast<unsigned>(state.range(0));
    Rng rng(7);
    StateVector sv(n);
    for (Qubit q = 0; q < n; ++q)
        sv.applyH(q);
    for (auto _ : state) {
        sv.applyAmplitudeDamping(0, 0.001, rng);
        benchmark::DoNotOptimize(sv.amplitude(0));
    }
}
BENCHMARK(BM_AmplitudeDampingChannel)->Arg(5)->Arg(10)->Arg(14);

/**
 * One idle-decay step (amplitude then phase damping, the lowered
 * program's DECAY) on the register sizes the Q14 suite compacts to,
 * cycling the target qubit. Rates are ibmq_melbourne-like; the
 * state is re-seeded every 4096 steps so it never settles in |0>.
 */
void
BM_DecayStep(benchmark::State& state)
{
    const unsigned n = static_cast<unsigned>(state.range(0));
    Rng rng(7);
    StateVector sv(n);
    const auto reseed = [&] {
        sv.resetTo(0);
        for (Qubit q = 0; q < n; ++q)
            sv.applyMatrix1q(gateMatrix1q(GateKind::RY, {0.4 + 0.3 * q}),
                             q);
    };
    reseed();
    std::uint64_t steps = 0;
    for (auto _ : state) {
        if ((steps & 4095) == 4095)
            reseed();
        sv.applyDecay(static_cast<Qubit>(steps % n), 0.004, 0.006, rng);
        ++steps;
        benchmark::DoNotOptimize(sv.amplitude(0));
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["amps_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(sv.dim()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DecayStep)->Arg(6)->Arg(7)->Arg(8)->Arg(9);

void
BM_SampleShots(benchmark::State& state)
{
    StateVector sv(static_cast<unsigned>(state.range(0)));
    for (Qubit q = 0; q < sv.numQubits(); ++q)
        sv.applyH(q);
    Rng rng(9);
    for (auto _ : state) {
        auto samples = sv.sample(rng, 1024);
        benchmark::DoNotOptimize(samples.data());
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SampleShots)->Arg(5)->Arg(10)->Arg(14);

/**
 * 100k shots of a uniform 14-qubit register through
 * IdealSimulator::run(): nearly every shot is a distinct outcome,
 * so this row prices building the log from per-shot outcomes.
 */
void
BM_IdealSampleQ14(benchmark::State& state)
{
    constexpr std::size_t kShots = 100000;
    Circuit circuit(14);
    for (Qubit q = 0; q < 14; ++q)
        circuit.h(q);
    circuit.measureAll();
    const IdealSimulator sim(14, 3);
    Rng rng(9);
    for (auto _ : state) {
        const Counts counts = sim.run(circuit, kShots, rng);
        benchmark::DoNotOptimize(counts.total());
    }
    state.SetItemsProcessed(state.iterations() * kShots);
    state.counters["shots_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations() * kShots),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_IdealSampleQ14)->Unit(benchmark::kMillisecond);

void
BM_TrajectoryBv(benchmark::State& state)
{
    const Machine machine = makeIbmqx4();
    TrajectorySimulator backend(machine.noiseModel(), 11);
    Transpiler transpiler(machine);
    const TranspiledProgram program =
        transpiler.transpile(bernsteinVazirani(4, 0b0111));
    for (auto _ : state) {
        Counts counts = backend.run(program.circuit, 1024);
        benchmark::DoNotOptimize(counts.total());
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_TrajectoryBv);

/**
 * Full-noise trajectories over a CCX ladder: each CCX decomposes to
 * 15 unitary steps, each chased by its own stochastic steps.
 */
void
BM_TrajectoryCcx5(benchmark::State& state)
{
    const Machine machine = makeIbmqx4();
    TrajectorySimulator backend(machine.noiseModel(), 18);
    Circuit c(5);
    c.h(0).cx(0, 1).ccx(0, 1, 2).cx(2, 3).ccx(2, 3, 4).measureAll();
    constexpr std::size_t kShots = 1024;
    for (auto _ : state) {
        Counts counts = backend.run(c, kShots);
        benchmark::DoNotOptimize(counts.total());
    }
    state.SetItemsProcessed(state.iterations() * kShots);
    state.counters["shots_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations() * kShots),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TrajectoryCcx5);

/**
 * The readout-only configuration the mitigation policies run in
 * (decay and gate errors disabled): the lowered program has no
 * stochastic step, so the simulator takes the single-trajectory
 * fast path and per-shot cost collapses to one uniform draw plus a
 * CDF lookup. shots_per_sec here is the headline number for the
 * precompiled hot loop (see EXPERIMENTS.md).
 */
void
BM_TrajectoryReadoutOnlyBv(benchmark::State& state)
{
    const Machine machine = makeIbmqx2();
    TrajectoryOptions readoutOnly;
    readoutOnly.enableDecay = false;
    readoutOnly.enableGateErrors = false;
    TrajectorySimulator backend(machine.noiseModel(), 11,
                                readoutOnly);
    Transpiler transpiler(machine);
    const TranspiledProgram program =
        transpiler.transpile(bernsteinVazirani(4, 0b0111));
    constexpr std::size_t kShots = 8192;
    for (auto _ : state) {
        Counts counts = backend.run(program.circuit, kShots);
        benchmark::DoNotOptimize(counts.total());
    }
    state.SetItemsProcessed(state.iterations() * kShots);
    state.counters["shots_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations() * kShots),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TrajectoryReadoutOnlyBv);

void
BM_TrajectoryQaoa7Melbourne(benchmark::State& state)
{
    const Machine machine = makeIbmqMelbourne();
    TrajectorySimulator backend(machine.noiseModel(), 12);
    Transpiler transpiler(machine);
    const NisqBenchmark bench = benchmarkSuiteQ14()[3]; // qaoa-7.
    const TranspiledProgram program =
        transpiler.transpile(bench.circuit);
    for (auto _ : state) {
        Counts counts = backend.run(program.circuit, 1024);
        benchmark::DoNotOptimize(counts.total());
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_TrajectoryQaoa7Melbourne);

/**
 * The parallel runtime on the 5-qubit BV trajectory workload,
 * swept over worker counts. The shots_per_sec counter is the
 * runtime's headline throughput metric (see EXPERIMENTS.md); the
 * ratio of the Arg(8) row to the Arg(1) row is the speedup.
 */
void
BM_ParallelShotsBv5(benchmark::State& state)
{
    const unsigned threads = static_cast<unsigned>(state.range(0));
    const Machine machine = makeIbmqx4();
    const TrajectorySimulator proto(machine.noiseModel(), 11);
    Transpiler transpiler(machine);
    const TranspiledProgram program =
        transpiler.transpile(bernsteinVazirani(4, 0b0111));
    ParallelBackend backend(proto, 21,
                            RuntimeOptions{.numThreads = threads,
                                           .batchSize = 128});
    constexpr std::size_t kShots = 8192;
    for (auto _ : state) {
        Counts counts = backend.run(program.circuit, kShots);
        benchmark::DoNotOptimize(counts.total());
    }
    state.SetItemsProcessed(state.iterations() * kShots);
    state.counters["shots_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations() * kShots),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ParallelShotsBv5)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/** The parallel runtime on the melbourne QAOA-7 workload. */
void
BM_ParallelShotsQaoa7(benchmark::State& state)
{
    const unsigned threads = static_cast<unsigned>(state.range(0));
    const Machine machine = makeIbmqMelbourne();
    const TrajectorySimulator proto(machine.noiseModel(), 12);
    Transpiler transpiler(machine);
    const NisqBenchmark bench = benchmarkSuiteQ14()[3]; // qaoa-7.
    const TranspiledProgram program =
        transpiler.transpile(bench.circuit);
    ParallelBackend backend(proto, 22,
                            RuntimeOptions{.numThreads = threads,
                                           .batchSize = 128});
    constexpr std::size_t kShots = 4096;
    for (auto _ : state) {
        Counts counts = backend.run(program.circuit, kShots);
        benchmark::DoNotOptimize(counts.total());
    }
    state.SetItemsProcessed(state.iterations() * kShots);
    state.counters["shots_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations() * kShots),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ParallelShotsQaoa7)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_Transpile(benchmark::State& state)
{
    const Machine machine = makeIbmqMelbourne();
    Transpiler transpiler(machine);
    const Circuit logical = bernsteinVazirani(7, 0b1010101);
    for (auto _ : state) {
        TranspiledProgram program = transpiler.transpile(logical);
        benchmark::DoNotOptimize(program.swapCount);
    }
}
BENCHMARK(BM_Transpile);

void
BM_RbmsDirectQ5(benchmark::State& state)
{
    const Machine machine = makeIbmqx4();
    TrajectorySimulator backend(machine.noiseModel(), 13);
    for (auto _ : state) {
        ExhaustiveRbms rbms = characterizeDirect(
            backend, {0, 1, 2, 3, 4}, 256);
        benchmark::DoNotOptimize(rbms.strongestState());
    }
}
BENCHMARK(BM_RbmsDirectQ5);

void
BM_RbmsAwctQ14(benchmark::State& state)
{
    const Machine machine = makeIbmqMelbourne();
    TrajectorySimulator backend(machine.noiseModel(), 14);
    std::vector<Qubit> all(14);
    for (unsigned i = 0; i < 14; ++i)
        all[i] = i;
    for (auto _ : state) {
        WindowedRbms rbms =
            characterizeWindowed(backend, all, 4, 1024);
        benchmark::DoNotOptimize(rbms.strongestState());
    }
}
BENCHMARK(BM_RbmsAwctQ14);

void
BM_PolicySim(benchmark::State& state)
{
    const Machine machine = makeIbmqx4();
    MachineSession session(machine, 15);
    const TranspiledProgram program =
        session.prepare(basisStatePrep(5, allOnes(5)));
    StaticInvertAndMeasure sim;
    for (auto _ : state) {
        Counts counts = session.runPolicy(program, sim, 4096);
        benchmark::DoNotOptimize(counts.total());
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_PolicySim);

void
BM_PolicyAim(benchmark::State& state)
{
    const Machine machine = makeIbmqx4();
    MachineSession session(machine, 16);
    const TranspiledProgram program =
        session.prepare(basisStatePrep(5, allOnes(5)));
    const auto rbms = session.profileProgram(program);
    AdaptiveInvertAndMeasure aim(rbms);
    for (auto _ : state) {
        Counts counts = session.runPolicy(program, aim, 4096);
        benchmark::DoNotOptimize(counts.total());
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_PolicyAim);

void
BM_ReadoutConfusion(benchmark::State& state)
{
    AsymmetricReadout model(std::vector<double>(14, 0.02),
                            std::vector<double>(14, 0.1));
    std::vector<Qubit> measured(14);
    for (unsigned i = 0; i < 14; ++i)
        measured[i] = i;
    Rng rng(17);
    BasisState s = 0x2ABC;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            model.sampleReadout(s, measured, rng));
    }
}
BENCHMARK(BM_ReadoutConfusion);

/**
 * Console reporter that additionally captures every finished run
 * so main() can export them through the telemetry JSON writer.
 */
class CapturingReporter : public benchmark::ConsoleReporter
{
  public:
    void ReportRuns(const std::vector<Run>& report) override
    {
        for (const Run& run : report)
            captured_.push_back(run);
        ConsoleReporter::ReportRuns(report);
    }

    const std::vector<Run>& captured() const { return captured_; }

  private:
    std::vector<Run> captured_;
};

telemetry::JsonValue
runsToJson(const std::vector<benchmark::BenchmarkReporter::Run>&
               runs)
{
    telemetry::JsonValue results = telemetry::JsonValue::array();
    for (const auto& run : runs) {
        if (run.error_occurred)
            continue;
        telemetry::JsonValue row = telemetry::JsonValue::object();
        row["name"] = telemetry::JsonValue(run.benchmark_name());
        row["iterations"] = telemetry::JsonValue(
            static_cast<std::uint64_t>(run.iterations));
        // Per-iteration times in seconds regardless of the
        // benchmark's display unit.
        const double iters =
            run.iterations > 0
                ? static_cast<double>(run.iterations)
                : 1.0;
        row["real_time_seconds"] = telemetry::JsonValue(
            run.real_accumulated_time / iters);
        row["cpu_time_seconds"] = telemetry::JsonValue(
            run.cpu_accumulated_time / iters);
        telemetry::JsonValue counters =
            telemetry::JsonValue::object();
        for (const auto& [name, counter] : run.counters)
            counters[name] = telemetry::JsonValue(
                static_cast<double>(counter));
        row["counters"] = std::move(counters);
        results.push(std::move(row));
    }
    return results;
}

} // namespace

int
main(int argc, char** argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    CapturingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    const std::string path = qem::writeBenchJson(
        "perf_microbench", runsToJson(reporter.captured()));
    if (!path.empty())
        std::printf("wrote %s (%zu results)\n", path.c_str(),
                    reporter.captured().size());
    return 0;
}

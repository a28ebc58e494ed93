/**
 * @file
 * Failure-injection tests: a backend that fails mid-experiment must
 * not corrupt policy state, and partial results must never be
 * returned as if complete. Exercises the promoted fault injector
 * (src/runtime/fault_injection.hh) against the policies, the
 * parallel runtime's per-batch retry path, the salvage/refusal
 * semantics, and the AIM canary-clamp regression.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/table.hh"
#include "kernels/basis.hh"
#include "kernels/bv.hh"
#include "machine/machines.hh"
#include "mitigation/aim_policy.hh"
#include "mitigation/bfa_policy.hh"
#include "mitigation/matrix_correction.hh"
#include "mitigation/rebalance_policy.hh"
#include "mitigation/sim_policy.hh"
#include "noise/trajectory.hh"
#include "qsim/bitstring.hh"
#include "runtime/fault_injection.hh"
#include "runtime/parallel_backend.hh"
#include "telemetry/telemetry.hh"

namespace qem
{
namespace
{

/**
 * Hermetic fixture: CI's fault-injection smoke re-runs this suite
 * with INVERTQ_FAULTS exported, which would stack a second injector
 * inside every ParallelBackend and break the exact retry/drop-count
 * expectations below. Each test clears the ambient spec and
 * restores it on teardown; tests that exercise the env path set it
 * explicitly themselves.
 */
class FaultInjection : public ::testing::Test
{
  protected:
    FaultInjection()
    {
        if (const char* ambient = std::getenv("INVERTQ_FAULTS")) {
            saved_ = ambient;
            unsetenv("INVERTQ_FAULTS");
        }
    }

    ~FaultInjection() override
    {
        if (saved_)
            setenv("INVERTQ_FAULTS", saved_->c_str(), 1);
        else
            unsetenv("INVERTQ_FAULTS");
    }

  private:
    std::optional<std::string> saved_;
};

/** Injector over an ideal 3-qubit simulator (outcome always 0). */
FaultInjectingBackend
flakyIdeal(FaultOptions options)
{
    return FaultInjectingBackend(
        std::make_unique<IdealSimulator>(3, 42), options);
}

/** Backend that throws on calls [fail_after, ...). */
FaultInjectingBackend
failingFrom(std::int64_t fail_after)
{
    FaultOptions options;
    options.failAfter = fail_after;
    return flakyIdeal(options);
}

/** Runtime options with retries on and near-zero backoff sleeps. */
RuntimeOptions
fastRuntime(unsigned threads, std::size_t batch_size,
            unsigned max_retries,
            SalvageMode salvage = SalvageMode::FailFast)
{
    RuntimeOptions options;
    options.numThreads = threads;
    options.batchSize = batch_size;
    options.maxRetries = max_retries;
    options.backoff.baseSeconds = 1e-5;
    options.backoff.maxSeconds = 1e-4;
    options.salvage = salvage;
    return options;
}

TEST_F(FaultInjection, SimPropagatesBackendFailure)
{
    FaultInjectingBackend backend =
        failingFrom(2); // Fails on the third mode.
    StaticInvertAndMeasure sim;
    Circuit c(3);
    c.measureAll();
    EXPECT_THROW(sim.run(c, backend, 1000), std::runtime_error);
    // The policy is still usable against a healthy backend.
    FaultInjectingBackend healthy = failingFrom(100);
    EXPECT_EQ(sim.run(c, healthy, 1000).total(), 1000u);
}

TEST_F(FaultInjection, AimPropagatesCanaryFailure)
{
    FaultInjectingBackend backend =
        failingFrom(0); // Fails immediately (canaries).
    auto rbms = std::make_shared<ExhaustiveRbms>(
        std::vector<double>(8, 1.0));
    AdaptiveInvertAndMeasure aim(rbms);
    Circuit c(3);
    c.measureAll();
    EXPECT_THROW(aim.run(c, backend, 1000), std::runtime_error);
}

TEST_F(FaultInjection, AimPropagatesTailoredPhaseFailure)
{
    FaultInjectingBackend backend =
        failingFrom(4); // Canaries pass, tailored fails.
    auto rbms = std::make_shared<ExhaustiveRbms>(
        std::vector<double>(8, 1.0));
    AdaptiveInvertAndMeasure aim(rbms);
    Circuit c(3);
    c.measureAll();
    EXPECT_THROW(aim.run(c, backend, 1000), std::runtime_error);
    EXPECT_GE(backend.calls(), 4u);
}

TEST_F(FaultInjection, MatrixCorrectionPropagatesCalibrationFailure)
{
    FaultInjectingBackend backend =
        failingFrom(1); // First calibration circuit only.
    MatrixInversionCorrection minv(512);
    const Circuit c = basisStatePrep(3, 0b101);
    EXPECT_THROW(minv.run(c, backend, 1000), std::runtime_error);
}

// --- AIM canary clamp regression (formerly UB for shots <= 4) ---

TEST_F(FaultInjection, AimRejectsBudgetsTooSmallToSplit)
{
    // std::clamp(x, 4, shots - 1) had lo > hi for shots <= 4 —
    // undefined behavior caught by UBSan. Tiny budgets must be
    // rejected with a clear error instead.
    FaultInjectingBackend backend = failingFrom(1000); // Healthy.
    auto rbms = std::make_shared<ExhaustiveRbms>(
        std::vector<double>(8, 1.0));
    AdaptiveInvertAndMeasure aim(rbms);
    Circuit c(3);
    c.measureAll();
    for (std::size_t shots = 1; shots <= 4; ++shots) {
        EXPECT_THROW(aim.run(c, backend, shots),
                     std::invalid_argument)
            << "shots = " << shots;
    }
    // Exactly 5 shots is the smallest valid split: 4 canaries + 1
    // tailored trial.
    EXPECT_EQ(aim.run(c, backend, 5).total(), 5u);
    EXPECT_EQ(aim.run(c, backend, 6).total(), 6u);
}

// --- Per-batch retry through the parallel runtime ---

TEST_F(FaultInjection, RetriedBatchReplaysIdenticalCounts)
{
    // A transient one-shot failure is retried; the retried batch
    // re-derives its index-keyed substream, so the merged log is
    // bit-identical to the fault-free run under the same seed.
    const TrajectorySimulator proto(makeIbmqx4().noiseModel(), 7);
    const Circuit circuit =
        bernsteinVazirani(4, fromBitString("1011"));

    ParallelBackend clean(proto, 2019, fastRuntime(1, 64, 2));
    const Counts expected = clean.run(circuit, 1024);

    FaultOptions faults;
    faults.failAfter = 3; // Fourth batch fails once...
    faults.failCount = 1; // ...then the backend heals.
    const FaultInjectingBackend flaky(proto.clone(), faults);
    ParallelBackend retried(flaky, 2019, fastRuntime(1, 64, 2));
    const Counts actual = retried.run(circuit, 1024);

    EXPECT_EQ(actual.raw(), expected.raw());
    EXPECT_EQ(actual.total(), 1024u);
    const RunOutcome& outcome = retried.lastOutcome();
    EXPECT_EQ(outcome.retriedBatches, 1u);
    EXPECT_EQ(outcome.totalRetries, 1u);
    EXPECT_EQ(outcome.droppedBatches, 0u);
    EXPECT_TRUE(outcome.complete());
    EXPECT_TRUE(outcome.degraded());
    EXPECT_TRUE(retried.lastRunStats().valid);
}

TEST_F(FaultInjection, MultiThreadedTransientFaultsStillConverge)
{
    // Rate faults on 4 workers: which batches fail depends on
    // scheduling, but every retried batch replays its substream,
    // so the merged histogram matches the clean run regardless.
    const TrajectorySimulator proto(makeIbmqx4().noiseModel(), 7);
    const Circuit circuit =
        bernsteinVazirani(4, fromBitString("1011"));

    ParallelBackend clean(proto, 5, fastRuntime(4, 32, 0));
    const Counts expected = clean.run(circuit, 2048);

    FaultOptions faults;
    faults.failureRate = 0.2;
    faults.seed = 13;
    const FaultInjectingBackend flaky(proto.clone(), faults);
    ParallelBackend retried(flaky, 5, fastRuntime(4, 32, 10));
    const Counts actual = retried.run(circuit, 2048);

    EXPECT_EQ(actual.raw(), expected.raw());
    EXPECT_TRUE(retried.lastOutcome().complete());
}

TEST_F(FaultInjection, InlineRetriesOnPoolWorkersMergeExactly)
{
    // Each worker clone's injector fails its own first call once,
    // so every worker that runs a batch retries it inline on the
    // pool thread. The merge still matches the clean run, and the
    // outcome counts one retried batch (and one retry) per busy
    // worker, whichever batches those turned out to be.
    const TrajectorySimulator proto(makeIbmqx4().noiseModel(), 7);
    const Circuit circuit =
        bernsteinVazirani(4, fromBitString("1011"));
    ParallelBackend clean(proto, 2019, fastRuntime(4, 32, 0));
    const Counts expected = clean.run(circuit, 2048);

    FaultOptions faults;
    faults.failAfter = 0;
    faults.failCount = 1;
    const FaultInjectingBackend flaky(proto.clone(), faults);
    ParallelBackend retried(flaky, 2019, fastRuntime(4, 32, 1));
    ASSERT_EQ(retried.numThreads(), 4u);
    const Counts actual = retried.run(circuit, 2048);

    EXPECT_EQ(actual.raw(), expected.raw());
    const RuntimeStats& stats = retried.lastRunStats();
    std::size_t busyWorkers = 0;
    std::uint64_t workerShots = 0;
    for (const std::uint64_t shots : stats.perWorkerShots) {
        busyWorkers += shots > 0 ? 1 : 0;
        workerShots += shots;
    }
    EXPECT_GE(busyWorkers, 1u);
    EXPECT_EQ(workerShots, 2048u);
    EXPECT_EQ(stats.outcome.retriedBatches, busyWorkers);
    EXPECT_EQ(stats.outcome.totalRetries, busyWorkers);
    EXPECT_TRUE(stats.outcome.complete());
}

TEST_F(FaultInjection, ExhaustedRetriesThrowTaxonomyType)
{
    // Every call on every worker fails: retries run out and the
    // run aborts with BudgetExhausted (a BackendError).
    const FaultInjectingBackend flaky(
        std::make_unique<IdealSimulator>(3, 42), [] {
            FaultOptions o;
            o.failAfter = 0;
            return o;
        }());
    Circuit c(3);
    c.measureAll();
    ParallelBackend backend(flaky, 11, fastRuntime(2, 32, 2));
    EXPECT_THROW(backend.run(c, 256), BudgetExhausted);
    // The failed run must not report stale throughput.
    EXPECT_FALSE(backend.lastRunStats().valid);
}

TEST_F(FaultInjection, FatalFaultsAreNeverRetried)
{
    FaultOptions faults;
    faults.failAfter = 0;
    faults.kind = FaultKind::Fatal;
    const FaultInjectingBackend flaky(
        std::make_unique<IdealSimulator>(3, 42), faults);
    Circuit c(3);
    c.measureAll();
    ParallelBackend backend(flaky, 11, fastRuntime(2, 32, 5));
    EXPECT_THROW(backend.run(c, 256), FatalError);
    EXPECT_FALSE(backend.lastRunStats().valid);
}

TEST_F(FaultInjection, SalvageModeDropsBatchesAndReportsTheLoss)
{
    // A permanently-failing worker pair under DropBatches: the run
    // completes, reports zero completed shots, and the histogram is
    // empty rather than partial garbage.
    const FaultInjectingBackend flaky(
        std::make_unique<IdealSimulator>(3, 42), [] {
            FaultOptions o;
            o.failAfter = 0;
            return o;
        }());
    Circuit c(3);
    c.measureAll();
    ParallelBackend backend(
        flaky, 11,
        fastRuntime(2, 32, 1, SalvageMode::DropBatches));
    const Counts counts = backend.run(c, 128);
    EXPECT_EQ(counts.total(), 0u);
    const RunOutcome& outcome = backend.lastOutcome();
    EXPECT_EQ(outcome.droppedBatches, 4u);
    EXPECT_EQ(outcome.completedShots, 0u);
    EXPECT_EQ(outcome.requestedShots, 128u);
    EXPECT_FALSE(outcome.complete());
    EXPECT_TRUE(backend.lastRunStats().valid);
    EXPECT_NE(backend.lastRunStats().toString().find("degraded"),
              std::string::npos);
}

TEST_F(FaultInjection, PoliciesRefuseToMergeSalvagedPartialModes)
{
    // Under-budget modes must never be folded into a merged policy
    // histogram as if complete (mitigation-aware failure handling),
    // and the refused run must not leave the previous run's plan on
    // display.
    FaultOptions faults;
    faults.failureRate = 0.7;
    faults.seed = 3;
    const FaultInjectingBackend flaky(
        std::make_unique<IdealSimulator>(3, 42), faults);
    ParallelBackend salvaging(
        flaky, 11,
        fastRuntime(2, 16, 0, SalvageMode::DropBatches));
    IdealSimulator clean(3, 42);
    Circuit c(3);
    c.measureAll();

    auto rbms = std::make_shared<ExhaustiveRbms>(
        std::vector<double>(8, 1.0));
    StaticInvertAndMeasure sim;
    AdaptiveInvertAndMeasure aim(rbms);
    BitFlipAveragePolicy bfa;
    RebalancePolicy rebalance(rbms);
    for (MitigationPolicy* policy :
         std::vector<MitigationPolicy*>{&sim, &aim, &bfa,
                                        &rebalance}) {
        SCOPED_TRACE(policy->name());
        EXPECT_EQ(policy->run(c, clean, 512).total(), 512u);
        EXPECT_FALSE(policy->lastPlan().empty());
        EXPECT_THROW(policy->run(c, salvaging, 512),
                     BudgetExhausted);
        EXPECT_TRUE(policy->lastPlan().empty());
    }
}

TEST_F(FaultInjection, EnvSelectedFaultsExerciseTheRetryPath)
{
    // INVERTQ_FAULTS wraps every worker clone inside the runtime;
    // with transient faults and retries the run still converges to
    // the fault-free histogram.
    const TrajectorySimulator proto(makeIbmqx4().noiseModel(), 7);
    const Circuit circuit =
        bernsteinVazirani(4, fromBitString("1011"));
    ParallelBackend clean(proto, 5, fastRuntime(2, 64, 0));
    const Counts expected = clean.run(circuit, 1024);

    ASSERT_EQ(setenv("INVERTQ_FAULTS", "rate=0.25,seed=21", 1), 0);
    ParallelBackend faulty(proto, 5, fastRuntime(2, 64, 10));
    ASSERT_EQ(unsetenv("INVERTQ_FAULTS"), 0);
    EXPECT_EQ(faulty.run(circuit, 1024).raw(), expected.raw());
}

TEST_F(FaultInjection, ClonedWorkersFailOnDifferentCallIndices)
{
    // cloneWorkers offsets each injector's seed by the worker's
    // position: under one rate spec the workers must not fail in
    // lockstep on the same call indices.
    ASSERT_EQ(setenv("INVERTQ_FAULTS", "rate=0.5,seed=77", 1), 0);
    const IdealSimulator proto(3, 42);
    const std::vector<std::unique_ptr<ShardedBackend>> workers =
        cloneWorkers(proto, 2);
    ASSERT_EQ(unsetenv("INVERTQ_FAULTS"), 0);
    ASSERT_EQ(workers.size(), 2u);

    Circuit c(3);
    c.measureAll();
    std::vector<std::vector<bool>> failed(2);
    for (std::size_t w = 0; w < 2; ++w) {
        for (int call = 0; call < 64; ++call) {
            Rng rng(1);
            try {
                (void)workers[w]->run(c, 1, rng);
                failed[w].push_back(false);
            } catch (const TransientError&) {
                failed[w].push_back(true);
            }
        }
    }
    EXPECT_NE(failed[0], failed[1]);
}

TEST_F(FaultInjection, MalformedEnvSpecFailsLoudly)
{
    ASSERT_EQ(setenv("INVERTQ_FAULTS", "rate=lots", 1), 0);
    const IdealSimulator proto(3, 42);
    EXPECT_THROW(ParallelBackend(proto, 1, fastRuntime(1, 32, 0)),
                 std::invalid_argument);
    ASSERT_EQ(unsetenv("INVERTQ_FAULTS"), 0);
}

// --- Failure telemetry semantics ---

TEST_F(FaultInjection, FailedPolicyRunsDoNotCountShots)
{
    // Shot counters tick on completion: a run that aborts must not
    // inflate policy.sim.shots / policy.aim.* in manifests.
    telemetry::resetAll();
    telemetry::setEnabled(true);
    Circuit c(3);
    c.measureAll();

    FaultInjectingBackend failing = failingFrom(2);
    StaticInvertAndMeasure sim;
    EXPECT_THROW(sim.run(c, failing, 1000), std::runtime_error);
    EXPECT_EQ(
        telemetry::metrics().counter("policy.sim.shots").value(),
        0u);
    EXPECT_EQ(
        telemetry::metrics().counter("policy.sim.runs").value(),
        0u);

    auto rbms = std::make_shared<ExhaustiveRbms>(
        std::vector<double>(8, 1.0));
    AdaptiveInvertAndMeasure aim(rbms);
    FaultInjectingBackend canaryFail = failingFrom(0);
    EXPECT_THROW(aim.run(c, canaryFail, 1000), std::runtime_error);
    EXPECT_EQ(telemetry::metrics()
                  .counter("policy.aim.canary_shots")
                  .value(),
              0u);
    EXPECT_EQ(telemetry::metrics()
                  .counter("policy.aim.bulk_shots")
                  .value(),
              0u);

    // A healthy run counts exactly the merged totals.
    FaultInjectingBackend healthy = failingFrom(1000);
    EXPECT_EQ(sim.run(c, healthy, 1000).total(), 1000u);
    EXPECT_EQ(
        telemetry::metrics().counter("policy.sim.shots").value(),
        1000u);
    EXPECT_EQ(aim.run(c, healthy, 1000).total(), 1000u);
    const std::uint64_t canary = telemetry::metrics()
                                     .counter(
                                         "policy.aim.canary_shots")
                                     .value();
    const std::uint64_t bulk =
        telemetry::metrics().counter("policy.aim.bulk_shots").value();
    EXPECT_EQ(canary + bulk, 1000u);
    telemetry::setEnabled(false);
    telemetry::resetAll();
}

TEST_F(FaultInjection, RetryTelemetryCountersAccumulate)
{
    telemetry::resetAll();
    telemetry::setEnabled(true);
    const FaultInjectingBackend flaky(
        std::make_unique<IdealSimulator>(3, 42), [] {
            FaultOptions o;
            o.failAfter = 0;
            return o;
        }());
    Circuit c(3);
    c.measureAll();
    ParallelBackend backend(
        flaky, 11,
        fastRuntime(2, 32, 1, SalvageMode::DropBatches));
    (void)backend.run(c, 64);
    EXPECT_EQ(
        telemetry::metrics().counter("runtime.retries").value(),
        2u); // 2 batches x 1 retry each.
    EXPECT_EQ(telemetry::metrics()
                  .counter("runtime.dropped_batches")
                  .value(),
              2u);
    EXPECT_EQ(telemetry::metrics()
                  .histogram("runtime.backoff_seconds")
                  .count(),
              2u);
    telemetry::setEnabled(false);
    telemetry::resetAll();
}

// --- Stale-stats regression (MachineSession::lastRunStats) ---

TEST_F(FaultInjection, FailedSessionRunInvalidatesStats)
{
    MachineSession session(makeIbmqx4(), 7); // Serial path.
    BaselinePolicy baseline;
    Circuit circuit(3);
    circuit.measureAll();
    (void)session.runPolicy(circuit, baseline, 512);
    ASSERT_NE(session.lastRunStats(), nullptr);
    EXPECT_EQ(session.lastRunStats()->shots, 512u);

    // AIM rejects the budget before any shot executes; the session
    // must not keep showing the previous run's throughput.
    auto rbms = std::make_shared<ExhaustiveRbms>(
        std::vector<double>(8, 1.0));
    AdaptiveInvertAndMeasure aim(rbms);
    EXPECT_THROW(session.runPolicy(circuit, aim, 3),
                 std::invalid_argument);
    EXPECT_EQ(session.lastRunStats(), nullptr);
}

TEST_F(FaultInjection, CsvHelpersSurviveAdversarialCells)
{
    AsciiTable table({"name", "value"});
    table.addRow({"with,comma", "with\"quote"});
    table.addRow({"with\nnewline", "plain"});
    const std::string csv = table.toCsv();
    EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
    EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);

    Counts counts(2);
    counts.add(0b01, 3);
    counts.add(0b10, 1);
    const std::string dump = countsToCsv(counts);
    EXPECT_NE(dump.find("outcome,count,probability"),
              std::string::npos);
    EXPECT_NE(dump.find("10,3,0.75"), std::string::npos);
}

} // namespace
} // namespace qem

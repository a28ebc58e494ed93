/**
 * @file
 * Unit tests for the resilience layer: the error taxonomy, the
 * deterministic backoff schedule and its validation, the shared
 * batch-attempt loop, and the configurable fault injector it is
 * exercised with.
 */

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "qsim/simulator.hh"
#include "runtime/batch_attempt.hh"
#include "runtime/fault_injection.hh"
#include "runtime/parallel_backend.hh"
#include "service/job_service.hh"

namespace qem
{
namespace
{

/** Injector over an ideal 3-qubit simulator (outcome always 0). */
FaultInjectingBackend
flaky(FaultOptions options)
{
    return FaultInjectingBackend(
        std::make_unique<IdealSimulator>(3, 42), options);
}

/** Measured 3-qubit circuit with no gates. */
Circuit
measuredCircuit()
{
    Circuit c(3);
    c.measureAll();
    return c;
}

/** Fast backoff so retry tests don't sleep noticeably. */
BackoffPolicy
fastBackoff()
{
    BackoffPolicy backoff;
    backoff.baseSeconds = 1e-5;
    backoff.maxSeconds = 1e-4;
    return backoff;
}

/** One 100-shot batch at index 3 of the job stream @p job. */
BatchResult
attempt(const ShardedBackend& worker, const Rng& job,
        unsigned max_retries,
        SalvageMode salvage = SalvageMode::FailFast,
        const RetryObserver& on_retry = {})
{
    return attemptBatch(nullptr, worker, measuredCircuit(), job,
                        ShotBatch{3, 300, 100}, max_retries,
                        fastBackoff(), salvage, on_retry);
}

TEST(ErrorTaxonomy, TypesNestUnderBackendError)
{
    // Policies written against std::runtime_error keep working.
    EXPECT_THROW(throw TransientError("t"), BackendError);
    EXPECT_THROW(throw FatalError("f"), BackendError);
    EXPECT_THROW(throw BudgetExhausted("b"), BackendError);
    EXPECT_THROW(throw TransientError("t"), std::runtime_error);

    const TransientError transient("t");
    const FatalError fatal("f");
    EXPECT_TRUE(isTransient(transient));
    EXPECT_FALSE(isTransient(fatal));
    EXPECT_FALSE(isTransient(std::runtime_error("r")));
}

TEST(BackoffPolicy, DelaysAreDeterministicInTheSeed)
{
    const BackoffPolicy policy{0.01, 1.0, 0.5};
    Rng a(7), b(7);
    for (unsigned attempt = 0; attempt < 8; ++attempt) {
        EXPECT_DOUBLE_EQ(policy.delaySeconds(attempt, a),
                         policy.delaySeconds(attempt, b));
    }
}

TEST(BackoffPolicy, GrowsExponentiallyAndCaps)
{
    const BackoffPolicy policy{0.01, 0.05, 0.0}; // No jitter.
    Rng rng(1);
    EXPECT_DOUBLE_EQ(policy.delaySeconds(0, rng), 0.01);
    EXPECT_DOUBLE_EQ(policy.delaySeconds(1, rng), 0.02);
    EXPECT_DOUBLE_EQ(policy.delaySeconds(2, rng), 0.04);
    EXPECT_DOUBLE_EQ(policy.delaySeconds(3, rng), 0.05); // Capped.
    EXPECT_DOUBLE_EQ(policy.delaySeconds(63, rng), 0.05);
}

TEST(BackoffPolicy, JitterStaysWithinBounds)
{
    const BackoffPolicy policy{0.01, 1.0, 0.5};
    Rng rng(3);
    for (int i = 0; i < 64; ++i) {
        const double d = policy.delaySeconds(0, rng);
        EXPECT_GE(d, 0.005);
        EXPECT_LT(d, 0.015);
    }
}

TEST(BackoffPolicy, ConstructorsRejectInvalidPolicies)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<BackoffPolicy> bad = {
        {-0.001, 1.0, 0.5}, {nan, 1.0, 0.5}, {inf, 1.0, 0.5},
        {0.005, -1.0, 0.5}, {0.005, nan, 0.5}, {0.005, inf, 0.5},
        {0.005, 1.0, -0.1}, {0.005, 1.0, 1.0}, {0.005, 1.0, 1.5},
        {0.005, 1.0, nan},  {0.005, 1.0, inf},
    };
    const IdealSimulator proto(3, 42);
    for (const BackoffPolicy& policy : bad) {
        EXPECT_THROW(policy.validate(), std::invalid_argument);
        RuntimeOptions runtime;
        runtime.numThreads = 1;
        runtime.backoff = policy;
        EXPECT_THROW(ParallelBackend(proto, 1, runtime),
                     std::invalid_argument)
            << policy.baseSeconds << " " << policy.maxSeconds << " "
            << policy.jitter;
        svc::ServiceOptions service;
        service.numThreads = 1;
        service.backoff = policy;
        EXPECT_THROW(svc::JobService(service, 1),
                     std::invalid_argument)
            << policy.baseSeconds << " " << policy.maxSeconds << " "
            << policy.jitter;
    }
    // The boundaries themselves are valid.
    EXPECT_NO_THROW((BackoffPolicy{0.0, 0.0, 0.0}.validate()));
    EXPECT_NO_THROW((BackoffPolicy{}.validate()));
}

TEST(BatchAttempt, CleanRunsPassThroughUntouched)
{
    // A clean batch samples exactly its index-keyed substream.
    const IdealSimulator worker(3, 42);
    Circuit c(3);
    c.h(0).h(1).h(2).measureAll();
    const Rng job(17);
    const BatchResult result =
        attemptBatch(nullptr, worker, c, job, ShotBatch{3, 300, 100},
                     2, fastBackoff(), SalvageMode::FailFast);
    ASSERT_TRUE(result.ok());
    Rng rng = ShotPlan::substream(job, 3);
    EXPECT_EQ(result.counts.raw(), worker.run(c, 100, rng).raw());
    EXPECT_EQ(result.retries, 0u);
    EXPECT_EQ(result.backoffSeconds, 0.0);
    EXPECT_FALSE(result.dropped);
}

TEST(BatchAttempt, RetriesTransientFailuresToSuccess)
{
    // Calls 0 and 1 fail, call 2 succeeds; each retry is reported
    // with the delay drawn from the batch's own backoff stream.
    FaultOptions faults;
    faults.failAfter = 0;
    faults.failCount = 2;
    const FaultInjectingBackend worker = flaky(faults);
    const Rng job(17);
    std::vector<unsigned> retries;
    std::vector<double> delays;
    const BatchResult result = attempt(
        worker, job, 3, SalvageMode::FailFast,
        [&](unsigned retry, double delay, const TransientError&) {
            retries.push_back(retry);
            delays.push_back(delay);
        });

    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.counts.total(), 100u);
    EXPECT_EQ(result.counts.get(0), 100u);
    EXPECT_EQ(worker.calls(), 3u);
    EXPECT_EQ(result.retries, 2u);
    EXPECT_EQ(retries, (std::vector<unsigned>{1, 2}));
    Rng backoffRng =
        job.splitAt(std::numeric_limits<std::uint64_t>::max() - 3);
    ASSERT_EQ(delays.size(), 2u);
    EXPECT_EQ(delays[0], fastBackoff().delaySeconds(0, backoffRng));
    EXPECT_EQ(delays[1], fastBackoff().delaySeconds(1, backoffRng));
    EXPECT_DOUBLE_EQ(result.backoffSeconds, delays[0] + delays[1]);
}

TEST(BatchAttempt, ExhaustedRetriesFailOrDropPerSalvageMode)
{
    FaultOptions faults;
    faults.failAfter = 0; // Never heals.
    const FaultInjectingBackend failFast = flaky(faults);
    const BatchResult lost = attempt(failFast, Rng(17), 2);
    EXPECT_EQ(failFast.calls(), 3u); // 1 attempt + 2 retries.
    EXPECT_FALSE(lost.ok());
    EXPECT_FALSE(lost.dropped);
    EXPECT_EQ(lost.retries, 2u);
    EXPECT_THROW(std::rethrow_exception(lost.error), BudgetExhausted);

    const FaultInjectingBackend salvaged = flaky(faults);
    const BatchResult dropped =
        attempt(salvaged, Rng(17), 2, SalvageMode::DropBatches);
    EXPECT_EQ(salvaged.calls(), 3u);
    EXPECT_TRUE(dropped.dropped);
    EXPECT_EQ(dropped.retries, 2u);
    EXPECT_THROW(std::rethrow_exception(dropped.error),
                 TransientError);
}

TEST(BatchAttempt, FatalErrorsAreNeverRetried)
{
    FaultOptions faults;
    faults.failAfter = 0;
    faults.kind = FaultKind::Fatal;
    const FaultInjectingBackend worker = flaky(faults);
    const BatchResult result =
        attempt(worker, Rng(17), 5, SalvageMode::DropBatches);
    EXPECT_EQ(worker.calls(), 1u);
    EXPECT_FALSE(result.dropped);
    EXPECT_EQ(result.retries, 0u);
    EXPECT_THROW(std::rethrow_exception(result.error), FatalError);
}

TEST(FaultInjector, RateFaultsAreDeterministicPerCallIndex)
{
    FaultOptions faults;
    faults.failureRate = 0.5;
    faults.seed = 9;
    FaultInjectingBackend a = flaky(faults);
    FaultInjectingBackend b = flaky(faults);
    const Circuit c = measuredCircuit();
    // The same call sequence produces the same fault pattern.
    for (int i = 0; i < 32; ++i) {
        bool aThrew = false, bThrew = false;
        try {
            (void)a.run(c, 4);
        } catch (const TransientError&) {
            aThrew = true;
        }
        try {
            (void)b.run(c, 4);
        } catch (const TransientError&) {
            bThrew = true;
        }
        EXPECT_EQ(aThrew, bThrew) << "call " << i;
    }
    EXPECT_GT(a.failures(), 0u);
    EXPECT_LT(a.failures(), 32u);
    EXPECT_EQ(a.failures(), b.failures());
}

TEST(FaultInjector, RateFaultsDoNotPerturbTheShotStream)
{
    // An injector that never fires must replay the inner backend's
    // stream draw for draw: fault decisions are hash-keyed, not
    // drawn from the caller's Rng.
    FaultOptions faults;
    faults.failureRate = 0.0;
    FaultInjectingBackend wrapped = flaky(faults);
    IdealSimulator plain(3, 42);
    const Circuit c = measuredCircuit();
    Rng a(5), b(5);
    EXPECT_EQ(wrapped.run(c, 500, a).raw(),
              plain.run(c, 500, b).raw());
}

TEST(FaultInjector, ScheduleWindowHealsAfterCount)
{
    FaultOptions faults;
    faults.failAfter = 2;
    faults.failCount = 3;
    FaultInjectingBackend backend = flaky(faults);
    const Circuit c = measuredCircuit();
    for (int call = 0; call < 8; ++call) {
        const bool shouldFail = call >= 2 && call < 5;
        if (shouldFail)
            EXPECT_THROW((void)backend.run(c, 1), TransientError);
        else
            EXPECT_EQ(backend.run(c, 1).total(), 1u);
    }
    EXPECT_EQ(backend.failures(), 3u);
}

TEST(FaultInjector, CloneResetsCallCounters)
{
    FaultOptions faults;
    faults.failAfter = 0;
    faults.failCount = 1;
    FaultInjectingBackend backend = flaky(faults);
    const Circuit c = measuredCircuit();
    EXPECT_THROW((void)backend.run(c, 1), TransientError);
    EXPECT_EQ(backend.run(c, 1).total(), 1u);
    // The clone replays the schedule from call 0.
    std::unique_ptr<ShardedBackend> fresh = backend.clone();
    Rng rng(1);
    EXPECT_THROW((void)fresh->run(c, 1, rng), TransientError);
}

TEST(FaultInjector, ParsesFullSpec)
{
    const FaultOptions options = FaultOptions::parse(
        "rate=0.25,kind=fatal,after=3,count=2,seed=99");
    EXPECT_DOUBLE_EQ(options.failureRate, 0.25);
    EXPECT_EQ(options.kind, FaultKind::Fatal);
    EXPECT_EQ(options.failAfter, 3);
    EXPECT_EQ(options.failCount, 2u);
    EXPECT_EQ(options.seed, 99u);
}

TEST(FaultInjector, ParseDefaultsAndErrors)
{
    const FaultOptions rate = FaultOptions::parse("rate=0.1");
    EXPECT_DOUBLE_EQ(rate.failureRate, 0.1);
    EXPECT_EQ(rate.kind, FaultKind::Transient);
    EXPECT_EQ(rate.failAfter, -1);

    EXPECT_THROW(FaultOptions::parse("rate"),
                 std::invalid_argument);
    EXPECT_THROW(FaultOptions::parse("rate=2.0"),
                 std::invalid_argument);
    EXPECT_THROW(FaultOptions::parse("kind=sometimes"),
                 std::invalid_argument);
    EXPECT_THROW(FaultOptions::parse("bogus=1"),
                 std::invalid_argument);
    EXPECT_THROW(FaultOptions::parse("after=3x"),
                 std::invalid_argument);
}

} // namespace
} // namespace qem

/**
 * @file
 * Tests of the background recalibration scheduler: empirical
 * bootstrap through the job service, the quiet null on a stable
 * machine, trip → re-profile → atomic generation swap on a drifted
 * one, pinned-generation semantics for in-flight holders, the
 * recalibration_lag health probe, manifest/flight observability,
 * and a concurrency soak (RecalSoak, in the TSan CI leg).
 *
 * Statistical conventions follow docs/verification.md: the probe's
 * two sides are seeded, so "quiet on the same backend" is a true
 * null at the configured alpha and "trips after a day-7 sigma-0.5
 * drift" is a reproducible rejection. Closeness of the refreshed
 * model to the live machine is asserted relationally (closer to
 * the drifted calibration than to the stale one) rather than with
 * a hard-coded tolerance.
 */

#include <atomic>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "machine/drift.hh"
#include "machine/machines.hh"
#include "noise/trajectory.hh"
#include "runtime/batch_attempt.hh"
#include "service/job_service.hh"
#include "service/recalibration.hh"
#include "telemetry/flight_recorder.hh"
#include "telemetry/health.hh"
#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"
#include "verify/statistics.hh"

namespace qem
{
namespace
{

using svc::JobService;
using svc::RecalibrationScheduler;
using svc::RecalOptions;
using svc::ServiceOptions;
using telemetry::FlightEvent;
using telemetry::FlightEventKind;
using telemetry::HealthStatus;

/** Shields every test from ambient INVERTQ_FAULTS and leaves
 *  global telemetry pristine. */
class RecalibrationTest : public ::testing::Test
{
  protected:
    RecalibrationTest()
    {
        if (const char* ambient = std::getenv("INVERTQ_FAULTS")) {
            saved_ = ambient;
            unsetenv("INVERTQ_FAULTS");
        }
        telemetry::resetAll();
    }

    ~RecalibrationTest() override
    {
        telemetry::setEnabled(false);
        telemetry::resetAll();
        if (saved_)
            setenv("INVERTQ_FAULTS", saved_->c_str(), 1);
        else
            unsetenv("INVERTQ_FAULTS");
    }

  private:
    std::optional<std::string> saved_;
};

std::vector<Qubit>
watchedQubits()
{
    return {0, 1, 2};
}

ServiceOptions
serviceOptions(unsigned threads)
{
    ServiceOptions options;
    options.numThreads = threads;
    return options;
}

/** Probe 8192 shots/state; profile 16384 so the published rows
 *  are estimated tighter than the probe can distinguish. */
RecalOptions
recalOptions()
{
    RecalOptions options;
    options.staleness.shotsPerState = 8192;
    options.profileShotsPerState = 16384;
    return options;
}

/** TVD between row @p truth of two confusion models. */
double
rowTvd(const svc::ConfusionCdf& a, const svc::ConfusionCdf& b,
       BasisState truth)
{
    const std::size_t dim = std::size_t{1} << a.numBits();
    std::vector<double> pa(dim), pb(dim);
    for (BasisState o = 0; o < dim; ++o) {
        pa[o] = a.probability(truth, o);
        pb[o] = b.probability(truth, o);
    }
    return verify::totalVariation(pa, pb);
}

std::size_t
countEvents(const std::vector<FlightEvent>& events,
            FlightEventKind kind)
{
    std::size_t n = 0;
    for (const FlightEvent& e : events) {
        if (e.kind == kind)
            ++n;
    }
    return n;
}

TEST_F(RecalibrationTest, BootstrapIsQuietOnAStableMachine)
{
    const Machine machine = makeMachine("ibmqx4");
    JobService service(serviceOptions(2), 99);
    service.registerMachine(
        "ibmqx4", TrajectorySimulator(machine.noiseModel(), 7));

    RecalibrationScheduler scheduler(service, recalOptions());
    scheduler.watchMachine("ibmqx4", machine.numQubits(),
                           watchedQubits());

    EXPECT_EQ(scheduler.generation("ibmqx4"), 0u);
    auto profile = scheduler.currentProfile("ibmqx4");
    auto confusion = scheduler.currentConfusion("ibmqx4");
    ASSERT_NE(profile, nullptr);
    ASSERT_NE(confusion, nullptr);
    EXPECT_EQ(profile->numBits(), 3u);
    EXPECT_EQ(confusion->numBits(), 3u);
    // The empirical profile is a real survival-probability table:
    // the strongest state's diagonal dominates its own row.
    const BasisState strongest = profile->strongestState();
    EXPECT_GT(confusion->probability(strongest, strongest), 0.5);

    // Cached and live samples come from the same backend through
    // the same prep circuits, so the probe is a true null here —
    // gate noise alone must never trip it.
    EXPECT_EQ(scheduler.checkNow(), 0u);
    EXPECT_EQ(scheduler.trips(), 0u);
    EXPECT_EQ(scheduler.refreshes(), 0u);
    EXPECT_EQ(scheduler.generation("ibmqx4"), 0u);

    // Bad registrations are rejected up front.
    EXPECT_THROW(scheduler.watchMachine("ibmqx4",
                                        machine.numQubits(),
                                        watchedQubits()),
                 std::invalid_argument);
    EXPECT_THROW(scheduler.watchMachine("nope", 5, {0}),
                 std::invalid_argument);
    EXPECT_THROW(
        scheduler.watchMachine("ibmqx4", machine.numQubits(), {}),
        std::invalid_argument);
    EXPECT_THROW(scheduler.generation("unwatched"),
                 std::invalid_argument);
}

TEST_F(RecalibrationTest, TripRefreshesAndSwapsAtomically)
{
    const Machine machine = makeMachine("ibmqx4");
    const DriftSchedule schedule(machine, 0.5);
    JobService service(serviceOptions(2), 99);
    service.registerMachine(
        "ibmqx4", TrajectorySimulator(machine.noiseModel(), 7));

    RecalibrationScheduler scheduler(service, recalOptions());
    scheduler.watchMachine("ibmqx4", machine.numQubits(),
                           watchedQubits());
    auto stale = scheduler.currentConfusion("ibmqx4");
    auto staleProfile = scheduler.currentProfile("ibmqx4");

    // Overnight, the machine drifts by recalibration-scale
    // factors; the service operator swaps in the day-7 hardware.
    const Machine drifted = schedule.at(7);
    ASSERT_TRUE(service.replaceMachine(
        "ibmqx4", TrajectorySimulator(drifted.noiseModel(), 7)));

    EXPECT_EQ(scheduler.checkNow(), 1u);
    EXPECT_EQ(scheduler.trips(), 1u);
    EXPECT_EQ(scheduler.refreshes(), 1u);
    EXPECT_EQ(scheduler.errors(), 0u);
    EXPECT_EQ(scheduler.generation("ibmqx4"), 1u);

    // Exactly one trip and one swap event, in that order.
    const auto events = scheduler.flightEvents();
    EXPECT_EQ(countEvents(events, FlightEventKind::RecalTrip),
              1u);
    EXPECT_EQ(countEvents(events, FlightEventKind::RecalSwap),
              1u);

    // Pinned-generation contract: the pre-swap holders still work
    // and are distinct objects from the fresh generation.
    auto refreshed = scheduler.currentConfusion("ibmqx4");
    ASSERT_NE(refreshed, nullptr);
    EXPECT_NE(refreshed.get(), stale.get());
    EXPECT_NE(scheduler.currentProfile("ibmqx4").get(),
              staleProfile.get());
    EXPECT_GT(stale->probability(0, 0), 0.0); // Still usable.

    // The refreshed rows describe the drifted machine: on every
    // probed-direction row they sit closer to the day-7 analytic
    // confusion than to the day-0 one the stale model measured.
    const svc::ConfusionCdf day0(machine.calibration(),
                                 watchedQubits());
    const svc::ConfusionCdf day7(drifted.calibration(),
                                 watchedQubits());
    const BasisState ones = 0b111;
    EXPECT_LT(rowTvd(*refreshed, day7, 0),
              rowTvd(*refreshed, day0, 0));
    EXPECT_LT(rowTvd(*refreshed, day7, ones),
              rowTvd(*refreshed, day0, ones));
    // And absolutely close on the gate-free all-zeros row: within
    // the oracle TVD radius for the profiling shot budget plus a
    // small slack for measurement-op noise in the prep circuit.
    const double radius =
        verify::tvdBound(8, recalOptions().profileShotsPerState,
                         1e-6);
    EXPECT_LT(rowTvd(*refreshed, day7, 0), radius + 0.01);

    // The new generation is consistent with the new machine: the
    // next pass is quiet again.
    EXPECT_EQ(scheduler.checkNow(), 0u);
    EXPECT_EQ(scheduler.trips(), 1u);
    EXPECT_EQ(scheduler.generation("ibmqx4"), 1u);
}

TEST_F(RecalibrationTest, ManifestCountersAndLagProbe)
{
    telemetry::setEnabled(true);
    const Machine machine = makeMachine("ibmqx4");
    JobService service(serviceOptions(2), 99);
    service.registerMachine(
        "ibmqx4", TrajectorySimulator(machine.noiseModel(), 7));

    RecalibrationScheduler scheduler(service, recalOptions());
    scheduler.watchMachine("ibmqx4", machine.numQubits(),
                           watchedQubits());

    auto lag = scheduler.lagProbe();
    EXPECT_EQ(lag->name(), "recalibration_lag");
    EXPECT_EQ(lag->check().status, HealthStatus::Healthy);

    const DriftSchedule schedule(machine, 0.5);
    ASSERT_TRUE(service.replaceMachine(
        "ibmqx4",
        TrajectorySimulator(schedule.at(7).noiseModel(), 7)));
    ASSERT_EQ(scheduler.checkNow(), 1u);

    // Counters and the swap-generation gauge.
    const auto snapshot = telemetry::metrics().snapshot();
    EXPECT_EQ(snapshot.counters.at("service.recal.trips"), 1u);
    EXPECT_EQ(snapshot.counters.at("service.recal.refreshes"),
              1u);
    EXPECT_EQ(snapshot.gauges.at("service.recal.swap_generation"),
              1.0);

    // The trip was answered: lag is clear again.
    EXPECT_EQ(lag->check().status, HealthStatus::Healthy);
    EXPECT_EQ(lag->check().value, 0.0);

    // The service manifest carries the scheduler's section with a
    // monotone swap_generation.
    const telemetry::JsonValue doc = service.summaryJson();
    const telemetry::JsonValue* recal =
        doc.find("recalibration");
    ASSERT_NE(recal, nullptr);
    EXPECT_EQ(recal->find("trips")->asUint(), 1u);
    EXPECT_EQ(recal->find("refreshes")->asUint(), 1u);
    const telemetry::JsonValue* machines =
        recal->find("machines");
    ASSERT_NE(machines, nullptr);
    ASSERT_EQ(machines->size(), 1u);
    const telemetry::JsonValue& entry = machines->items()[0];
    EXPECT_EQ(entry.find("machine")->asString(), "ibmqx4");
    EXPECT_EQ(entry.find("swap_generation")->asUint(), 1u);
    EXPECT_EQ(entry.find("trips")->asUint(), 1u);
    EXPECT_EQ(entry.find("refreshes")->asUint(), 1u);
    const telemetry::JsonValue* flight = recal->find("flight");
    ASSERT_NE(flight, nullptr);
    EXPECT_GE(flight->size(), 2u); // recal_trip + recal_swap.

    // One flight event of each kind per refresh — the acceptance
    // invariant the status page relies on.
    std::size_t trips = 0, swaps = 0;
    for (const telemetry::JsonValue& event : flight->items()) {
        const telemetry::JsonValue* kind = event.find("event");
        if (kind == nullptr)
            continue;
        if (kind->asString() == "recal_trip")
            ++trips;
        if (kind->asString() == "recal_swap")
            ++swaps;
    }
    EXPECT_EQ(trips, 1u);
    EXPECT_EQ(swaps, 1u);
}

/**
 * A backend that delegates to a real simulator for a limited
 * number of run() calls, then fails fatally — the deterministic
 * way to let the staleness probe succeed (and trip) but make the
 * subsequent re-profiling sweep fail. Clones share the budget.
 */
class FailAfterBackend : public ShardedBackend
{
  public:
    FailAfterBackend(std::shared_ptr<const ShardedBackend> inner,
                     std::shared_ptr<std::atomic<long>> budget)
        : inner_(std::move(inner)), budget_(std::move(budget))
    {
    }

    Counts run(const Circuit& circuit, std::size_t shots) override
    {
        Rng rng(0);
        return run(circuit, shots, rng);
    }

    Counts run(const Circuit& circuit, std::size_t shots,
               Rng& rng) const override
    {
        if (budget_->fetch_sub(1) <= 0)
            throw FatalError("backend taken offline");
        return inner_->run(circuit, shots, rng);
    }

    unsigned numQubits() const override
    {
        return inner_->numQubits();
    }

    std::unique_ptr<ShardedBackend> clone() const override
    {
        return std::make_unique<FailAfterBackend>(inner_,
                                                  budget_);
    }

  private:
    std::shared_ptr<const ShardedBackend> inner_;
    std::shared_ptr<std::atomic<long>> budget_;
};

TEST_F(RecalibrationTest, FailedRefreshLeavesLagThenRecovers)
{
    const Machine machine = makeMachine("ibmqx4");
    const DriftSchedule schedule(machine, 0.5);
    const Machine drifted = schedule.at(7);
    JobService service(serviceOptions(2), 99);
    service.registerMachine(
        "ibmqx4", TrajectorySimulator(machine.noiseModel(), 7));

    RecalibrationScheduler scheduler(service, recalOptions());
    scheduler.watchMachine("ibmqx4", machine.numQubits(),
                           watchedQubits());
    auto lag = scheduler.lagProbe();

    // Swap in drifted hardware whose run budget covers the probe's
    // holdout jobs (2 states x 8192 shots / 256-shot batches = 64
    // runs) but dies during the 8-state re-profiling sweep.
    auto inner = std::make_shared<const TrajectorySimulator>(
        drifted.noiseModel(), 7);
    auto budget = std::make_shared<std::atomic<long>>(80);
    ASSERT_TRUE(service.replaceMachine(
        "ibmqx4", FailAfterBackend(inner, budget)));

    // Probe trips, re-profiling fails: the trip stays outstanding.
    EXPECT_EQ(scheduler.checkNow(), 0u);
    EXPECT_EQ(scheduler.trips(), 1u);
    EXPECT_EQ(scheduler.refreshes(), 0u);
    EXPECT_GE(scheduler.errors(), 1u);
    EXPECT_EQ(scheduler.generation("ibmqx4"), 0u);
    EXPECT_EQ(lag->check().status, HealthStatus::Degraded);
    EXPECT_EQ(lag->check().value, 1.0);

    // The machine comes back healthy; the next pass trips again
    // and this time the refresh lands, clearing the lag.
    ASSERT_TRUE(service.replaceMachine(
        "ibmqx4", TrajectorySimulator(drifted.noiseModel(), 7)));
    EXPECT_EQ(scheduler.checkNow(), 1u);
    EXPECT_EQ(scheduler.trips(), 2u);
    EXPECT_EQ(scheduler.refreshes(), 1u);
    EXPECT_EQ(scheduler.generation("ibmqx4"), 1u);
    EXPECT_EQ(lag->check().status, HealthStatus::Healthy);
}

// ---------------------------------------------------------------
// RecalSoak: tenant traffic racing machine swaps and recal passes
// (runs under TSan in CI next to the other service soaks).
// ---------------------------------------------------------------

TEST(RecalSoak, ConcurrentSubmitSwapAndCheck)
{
    if (std::getenv("INVERTQ_FAULTS"))
        GTEST_SKIP() << "soak asserts exact totals; fault "
                        "injection changes them";
    const Machine machine = makeMachine("ibmqx4");
    const DriftSchedule schedule(machine, 0.5);
    JobService service(ServiceOptions{}, 99);
    service.registerMachine(
        "ibmqx4", TrajectorySimulator(machine.noiseModel(), 7));

    // Small budgets: the soak exercises interleavings, not power.
    RecalOptions options;
    options.staleness.shotsPerState = 1024;
    options.profileShotsPerState = 2048;
    RecalibrationScheduler scheduler(service, options);
    scheduler.watchMachine("ibmqx4", machine.numQubits(),
                           watchedQubits());

    Circuit circuit(machine.numQubits(), 3);
    circuit.x(0);
    circuit.x(2);
    for (Clbit c = 0; c < 3; ++c)
        circuit.measure(static_cast<Qubit>(c), c);

    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> completedShots{0};

    std::vector<std::thread> tenants;
    for (int t = 0; t < 3; ++t) {
        tenants.emplace_back([&, t] {
            const std::string tenant =
                "tenant" + std::to_string(t);
            for (std::uint64_t i = 0; !done.load() && i < 64;
                 ++i) {
                svc::JobOptions jo;
                jo.tenant = tenant;
                jo.jobKey = i;
                try {
                    completedShots +=
                        service
                            .submit("ibmqx4", circuit, 128, jo)
                            .get()
                            .total();
                } catch (const BudgetExhausted&) {
                    // Admission control under churn is fine.
                }
            }
        });
    }
    std::thread checker([&] {
        for (int i = 0; i < 3; ++i)
            (void)scheduler.checkNow();
    });
    std::thread swapper([&] {
        for (std::uint64_t day = 1; day <= 3; ++day) {
            EXPECT_TRUE(service.replaceMachine(
                "ibmqx4",
                TrajectorySimulator(
                    schedule.at(day).noiseModel(), 7)));
            (void)service.summaryJson();
        }
    });

    checker.join();
    swapper.join();
    done.store(true);
    for (auto& t : tenants)
        t.join();
    service.drain();

    // Invariants, not exact trip counts: every completed tenant
    // job kept its full shot total, the generation chain is
    // consistent, and the manifest renders mid-churn state.
    EXPECT_EQ(completedShots.load() % 128, 0u);
    EXPECT_GE(scheduler.trips(), scheduler.refreshes());
    EXPECT_EQ(scheduler.generation("ibmqx4"),
              scheduler.refreshes());
    const telemetry::JsonValue doc = service.summaryJson();
    ASSERT_NE(doc.find("recalibration"), nullptr);
    EXPECT_EQ(doc.find("recalibration")
                  ->find("machines")
                  ->size(),
              1u);
}

TEST(RecalSoak, BackgroundThreadStartStop)
{
    const Machine machine = makeMachine("ibmqx2");
    JobService service(ServiceOptions{}, 5);
    service.registerMachine(
        "ibmqx2", TrajectorySimulator(machine.noiseModel(), 3));

    RecalOptions options;
    options.staleness.shotsPerState = 256;
    options.profileShotsPerState = 512;
    RecalibrationScheduler scheduler(service, options);
    scheduler.watchMachine("ibmqx2", machine.numQubits(),
                           {0, 1});

    EXPECT_THROW(scheduler.start(0.0), std::invalid_argument);
    scheduler.start(0.005);
    EXPECT_THROW(scheduler.start(0.005), std::logic_error);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    scheduler.stop();
    scheduler.stop(); // Idempotent.
    // Stable machine: however many passes ran, none tripped.
    EXPECT_EQ(scheduler.trips(), 0u);
    // The scheduler can be restarted after a stop.
    scheduler.start(0.005);
    scheduler.stop();
}

} // namespace
} // namespace qem

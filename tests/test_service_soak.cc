/**
 * @file
 * Concurrency soak of the job service under injected faults: mixed
 * priorities submitted from several threads, with the full retry /
 * salvage machinery engaged via INVERTQ_FAULTS. The FailFast runs
 * must stay bit-identical to a clean serial replay of the service's
 * RNG contract; the DropBatches runs must account every lost batch.
 *
 * Named ServiceSoak (not *Fault*) on purpose: CI's fault-injection
 * smoke leg filters on `Fault|BatchAttempt|RuntimeDeterminism`, and
 * the TSan leg runs this suite separately.
 */

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/bv.hh"
#include "machine/machines.hh"
#include "noise/trajectory.hh"
#include "runtime/shot_plan.hh"
#include "service/job_service.hh"
#include "transpile/transpiler.hh"

namespace qem
{
namespace
{

using svc::JobHandle;
using svc::JobOptions;
using svc::JobPriority;
using svc::JobService;
using svc::JobStatus;
using svc::ServiceOptions;

/**
 * Owns INVERTQ_FAULTS for the duration of a test: the service reads
 * it when a machine is registered, so each test pins its own spec
 * and the destructor restores whatever was ambient.
 */
class ServiceSoak : public ::testing::Test
{
  protected:
    ServiceSoak()
    {
        if (const char* ambient = std::getenv("INVERTQ_FAULTS")) {
            saved_ = ambient;
            unsetenv("INVERTQ_FAULTS");
        }
    }

    ~ServiceSoak() override
    {
        if (saved_)
            setenv("INVERTQ_FAULTS", saved_->c_str(), 1);
        else
            unsetenv("INVERTQ_FAULTS");
    }

    static void setFaults(const std::string& spec)
    {
        ASSERT_EQ(setenv("INVERTQ_FAULTS", spec.c_str(), 1), 0);
    }

    static void clearFaults()
    {
        ASSERT_EQ(unsetenv("INVERTQ_FAULTS"), 0);
    }

  private:
    std::optional<std::string> saved_;
};

/** Service options tuned for soaking: fast backoff, 4 workers. */
ServiceOptions
soakOptions(unsigned max_retries)
{
    ServiceOptions options;
    options.numThreads = 4;
    options.defaultMaxRetries = max_retries;
    options.backoff.baseSeconds = 1e-5;
    options.backoff.maxSeconds = 1e-4;
    return options;
}

/** Clean serial replay of the service determinism contract. */
Counts
serialReference(const ShardedBackend& prototype,
                const Circuit& circuit, std::size_t shots,
                std::size_t batch_size, std::uint64_t service_seed,
                const std::string& tenant, std::uint64_t job_key)
{
    const Rng job =
        JobService::jobStream(service_seed, tenant, job_key);
    Counts merged(circuit.numClbits());
    const ShotPlan plan(shots, batch_size);
    for (const ShotBatch& batch : plan.batches()) {
        Rng rng = ShotPlan::substream(job, batch.index);
        merged.merge(prototype.run(circuit, batch.shots, rng));
    }
    return merged;
}

JobOptions
jobOptions(const std::string& tenant, std::uint64_t job_key,
           JobPriority priority, SalvageMode salvage,
           int max_retries = -1)
{
    JobOptions options;
    options.tenant = tenant;
    options.jobKey = job_key;
    options.batchSize = 64;
    options.priority = priority;
    options.salvage = salvage;
    options.maxRetries = max_retries;
    return options;
}

constexpr JobPriority kPriorityCycle[] = {
    JobPriority::Interactive,
    JobPriority::Batch,
    JobPriority::Background,
    JobPriority::Batch,
};

TEST_F(ServiceSoak, FailFastStaysBitIdenticalUnderFaults)
{
    const Machine machine = makeMachine("ibmqx4");
    const TrajectorySimulator prototype(machine.noiseModel(), 7);
    const Circuit circuit =
        Transpiler(machine)
            .transpile(bernsteinVazirani(3, 0b101))
            .circuit;

    // 16 jobs x 8 batches at a 10% transient rate: retries are
    // engaged with overwhelming probability (P[none] ~ 1.4e-6),
    // and a batch exhausting 8 retries is ~1e-9 per batch.
    setFaults("rate=0.1,seed=77");
    JobService service(soakOptions(8), 2019);
    service.registerMachine("ibmqx4", prototype);
    clearFaults();

    constexpr unsigned kSubmitters = 4;
    constexpr unsigned kJobsEach = 4;
    constexpr std::size_t kShots = 512;
    std::vector<std::vector<JobHandle>> handles(kSubmitters);
    std::vector<std::thread> submitters;
    for (unsigned t = 0; t < kSubmitters; ++t) {
        submitters.emplace_back([&service, &circuit, &handles,
                                 t] {
            const std::string tenant = "t" + std::to_string(t);
            for (unsigned j = 0; j < kJobsEach; ++j) {
                handles[t].push_back(service.submit(
                    "ibmqx4", circuit, kShots,
                    jobOptions(tenant, j, kPriorityCycle[j % 4],
                               SalvageMode::FailFast)));
            }
        });
    }
    for (auto& thread : submitters)
        thread.join();
    service.drain();

    for (unsigned t = 0; t < kSubmitters; ++t) {
        const std::string tenant = "t" + std::to_string(t);
        ASSERT_EQ(handles[t].size(), kJobsEach);
        for (unsigned j = 0; j < kJobsEach; ++j) {
            const JobHandle& handle = handles[t][j];
            ASSERT_EQ(handle.status(), JobStatus::Completed)
                << tenant << " job " << j;
            EXPECT_EQ(handle.get().total(), kShots);
            EXPECT_EQ(handle.get().raw(),
                      serialReference(prototype, circuit, kShots,
                                      64, 2019, tenant, j)
                          .raw())
                << tenant << " job " << j
                << ": counts depend on fault timing or "
                << "interleaving";
            EXPECT_EQ(handle.record().droppedBatches, 0u);
        }
    }

    const svc::ServiceSummary summary = service.summary();
    EXPECT_EQ(summary.submitted, kSubmitters * kJobsEach);
    EXPECT_EQ(summary.completed, kSubmitters * kJobsEach);
    EXPECT_EQ(summary.failed, 0u);
    EXPECT_EQ(summary.shotsCompleted,
              kSubmitters * kJobsEach * kShots);
    EXPECT_GT(summary.retries, 0u)
        << "fault injection never engaged the retry path";
}

TEST_F(ServiceSoak, DropBatchesAccountsEveryLostBatch)
{
    const Machine machine = makeMachine("ibmqx2");
    const TrajectorySimulator prototype(machine.noiseModel(), 3);
    const Circuit circuit =
        Transpiler(machine)
            .transpile(bernsteinVazirani(2, 0b11))
            .circuit;

    // No retries, 20% rate, 64 batches: at least one drop with
    // P ~ 1 - 0.8^64 (~0.9999994).
    setFaults("rate=0.2,seed=99");
    JobService service(soakOptions(0), 4242);
    service.registerMachine("ibmqx2", prototype);
    clearFaults();

    constexpr std::size_t kShots = 1024; // 16 batches of 64.
    std::vector<JobHandle> handles;
    for (std::uint64_t j = 0; j < 4; ++j) {
        handles.push_back(service.submit(
            "ibmqx2", circuit, kShots,
            jobOptions("soak", j, kPriorityCycle[j % 4],
                       SalvageMode::DropBatches, 0)));
    }
    service.drain();

    std::size_t dropped = 0, completedShots = 0;
    for (const JobHandle& handle : handles) {
        ASSERT_EQ(handle.status(), JobStatus::Completed);
        const svc::JobRecord& record = handle.record();
        // The histogram and the audit record must agree on the
        // salvage: every shot in the log is accounted, every lost
        // batch is 64 shots short.
        EXPECT_EQ(handle.get().total(), record.shotsCompleted);
        EXPECT_EQ(record.shotsRequested - record.shotsCompleted,
                  record.droppedBatches * 64);
        dropped += record.droppedBatches;
        completedShots += record.shotsCompleted;
        if (record.droppedBatches == 0) {
            // Fault-free jobs still follow the contract exactly.
            EXPECT_EQ(handle.get().raw(),
                      serialReference(prototype, circuit, kShots,
                                      64, 4242, "soak",
                                      record.jobKey)
                          .raw());
        }
    }
    EXPECT_GT(dropped, 0u)
        << "fault injection never dropped a batch";

    const svc::ServiceSummary summary = service.summary();
    EXPECT_EQ(summary.completed, 4u);
    EXPECT_EQ(summary.droppedBatches, dropped);
    EXPECT_EQ(summary.shotsCompleted, completedShots);
}

TEST_F(ServiceSoak, DeadMachineFailsFastWithBudgetExhausted)
{
    const TrajectorySimulator prototype(
        makeMachine("ibmqx2").noiseModel(), 3);
    const Circuit circuit =
        Transpiler(makeMachine("ibmqx2"))
            .transpile(bernsteinVazirani(2, 0b01))
            .circuit;

    // Outage from call 0 that never heals: every attempt fails,
    // the retry budget exhausts, FailFast surfaces the loss.
    setFaults("after=0,kind=transient");
    JobService service(soakOptions(1), 5);
    service.registerMachine("dead", prototype);
    clearFaults();

    JobHandle handle = service.submit(
        "dead", circuit, 128,
        jobOptions("alice", 0, JobPriority::Batch,
                   SalvageMode::FailFast, 1));
    handle.wait();
    EXPECT_EQ(handle.status(), JobStatus::Failed);
    EXPECT_THROW((void)handle.get(), BudgetExhausted);
    EXPECT_EQ(handle.record().status, JobStatus::Failed);
    EXPECT_FALSE(handle.record().error.empty());
    EXPECT_EQ(service.summary().failed, 1u);
    // The service survives a dead machine: later jobs on healthy
    // machines still complete.
    service.registerMachine("ok", prototype);
    JobHandle ok = service.submit(
        "ok", circuit, 128,
        jobOptions("alice", 1, JobPriority::Batch,
                   SalvageMode::FailFast));
    ok.wait();
    EXPECT_EQ(ok.status(), JobStatus::Completed);
}

} // namespace
} // namespace qem

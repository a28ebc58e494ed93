/**
 * @file
 * Tests of the multi-tenant job service: async completion, the
 * determinism contract (per-job counts are a pure function of
 * service seed, tenant, job key — pinned by a committed golden
 * across thread counts and submission interleavings), admission
 * control, cancellation, priority dispatch, shared-cache
 * effectiveness, and the exported audit manifest.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/bv.hh"
#include "machine/machines.hh"
#include "noise/trajectory.hh"
#include "qsim/bitstring.hh"
#include "runtime/shot_plan.hh"
#include "service/artifacts.hh"
#include "service/job_service.hh"
#include "telemetry/json.hh"
#include "telemetry/telemetry.hh"
#include "transpile/transpiler.hh"
#include "verify/golden.hh"

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
 * Shields every test from an ambient INVERTQ_FAULTS (the service
 * wraps worker clones per that knob at registration time).
 */
class JobServiceTest : public ::testing::Test
{
  protected:
    JobServiceTest()
    {
        if (const char* ambient = std::getenv("INVERTQ_FAULTS")) {
            saved_ = ambient;
            unsetenv("INVERTQ_FAULTS");
        }
    }

    ~JobServiceTest() override
    {
        if (saved_)
            setenv("INVERTQ_FAULTS", saved_->c_str(), 1);
        else
            unsetenv("INVERTQ_FAULTS");
    }

  private:
    std::optional<std::string> saved_;
};

/**
 * A backend whose runs block until the test opens a shared gate —
 * the deterministic way to hold a 1-thread service busy while
 * later submissions queue up behind it. Clones share the gate.
 */
class GatedBackend : public ShardedBackend
{
  public:
    struct Gate
    {
        std::mutex mutex;
        std::condition_variable cv;
        bool open = false;
        std::atomic<int> runs{0};

        void release()
        {
            {
                std::lock_guard<std::mutex> lock(mutex);
                open = true;
            }
            cv.notify_all();
        }
    };

    explicit GatedBackend(std::shared_ptr<Gate> gate)
        : gate_(std::move(gate))
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
        (void)rng;
        {
            std::unique_lock<std::mutex> lock(gate_->mutex);
            gate_->cv.wait(lock, [this] { return gate_->open; });
        }
        ++gate_->runs;
        Counts counts(circuit.numClbits());
        counts.add(0, shots); // Every trial reads all-zeros.
        return counts;
    }

    unsigned numQubits() const override { return 8; }

    std::unique_ptr<ShardedBackend> clone() const override
    {
        return std::make_unique<GatedBackend>(gate_);
    }

  private:
    std::shared_ptr<Gate> gate_;
};

/** Physical BV circuit for @p machine_name. */
Circuit
physicalBv(const std::string& machine_name, unsigned n,
           BasisState key)
{
    const Machine machine = makeMachine(machine_name);
    return Transpiler(machine)
        .transpile(bernsteinVazirani(n, key))
        .circuit;
}

/**
 * The service's determinism contract, replayed serially: jobStream
 * seeds the job, batch i samples substream i, batches merge in
 * index order. Any service run of the same (seed, tenant, key,
 * circuit, shots, batch size) must match this bit-for-bit.
 */
Counts
serialReference(const ShardedBackend& prototype,
                const Circuit& circuit, std::size_t shots,
                std::size_t batch_size, std::uint64_t service_seed,
                const std::string& tenant, std::uint64_t job_key)
{
    const Rng job =
        JobService::jobStream(service_seed, tenant, job_key);
    Counts merged(circuit.numClbits());
    if (shots == 0)
        return merged;
    const ShotPlan plan(shots, batch_size);
    for (const ShotBatch& batch : plan.batches()) {
        Rng rng = ShotPlan::substream(job, batch.index);
        merged.merge(prototype.run(circuit, batch.shots, rng));
    }
    return merged;
}

ServiceOptions
serviceOptions(unsigned threads, std::size_t max_queued = 4096)
{
    ServiceOptions options;
    options.numThreads = threads;
    options.maxQueuedBatches = max_queued;
    return options;
}

JobOptions
jobOptions(const std::string& tenant, std::uint64_t job_key,
           std::size_t batch_size = 128,
           JobPriority priority = JobPriority::Batch)
{
    JobOptions options;
    options.tenant = tenant;
    options.jobKey = job_key;
    options.batchSize = batch_size;
    options.priority = priority;
    return options;
}

TEST_F(JobServiceTest, CompletedJobMatchesSerialReference)
{
    const Machine machine = makeMachine("ibmqx4");
    const TrajectorySimulator prototype(machine.noiseModel(), 7);
    const Circuit circuit = physicalBv("ibmqx4", 3, 0b101);

    JobService service(serviceOptions(4), 99);
    ASSERT_TRUE(service.registerMachine("ibmqx4", prototype));
    EXPECT_FALSE(service.registerMachine("ibmqx4", prototype));
    EXPECT_TRUE(service.hasMachine("ibmqx4"));

    JobHandle handle = service.submit(
        "ibmqx4", circuit, 1024, jobOptions("alice", 5));
    ASSERT_TRUE(handle.valid());
    handle.wait();
    EXPECT_EQ(handle.status(), JobStatus::Completed);
    EXPECT_EQ(handle.get().total(), 1024u);
    EXPECT_EQ(handle.get().raw(),
              serialReference(prototype, circuit, 1024, 128, 99,
                              "alice", 5)
                  .raw());

    const svc::JobRecord& record = handle.record();
    EXPECT_EQ(record.tenant, "alice");
    EXPECT_EQ(record.machine, "ibmqx4");
    EXPECT_EQ(record.jobKey, 5u);
    EXPECT_EQ(record.shotsRequested, 1024u);
    EXPECT_EQ(record.shotsCompleted, 1024u);
    EXPECT_EQ(record.batches, 8u);
    EXPECT_EQ(record.status, JobStatus::Completed);
    EXPECT_TRUE(record.compiled);
    EXPECT_GE(record.wallSeconds, 0.0);
}

TEST_F(JobServiceTest, UnregisteredMachineThrows)
{
    JobService service(serviceOptions(1));
    Circuit circuit(2);
    circuit.measureAll();
    EXPECT_THROW(
        (void)service.submit("nope", circuit, 16, JobOptions{}),
        std::invalid_argument);
}

TEST_F(JobServiceTest, MaxRetriesBelowTheDefaultSentinelIsRejected)
{
    JobService service(serviceOptions(1));
    service.registerMachine(
        "ibmqx2", TrajectorySimulator(
                      makeMachine("ibmqx2").noiseModel(), 3));
    const Circuit circuit = physicalBv("ibmqx2", 2, 0b11);
    JobOptions options;
    options.tenant = "alice";
    options.batchSize = 64;
    options.maxRetries = -2;
    EXPECT_THROW(
        (void)service.submit("ibmqx2", circuit, 128, options),
        std::invalid_argument);

    // The rejected submission consumed neither the tenant's
    // sequence number nor a job id: the next auto-keyed job is
    // still key 0, id 1.
    options.maxRetries = -1;
    JobHandle handle =
        service.submit("ibmqx2", circuit, 128, options);
    handle.wait();
    EXPECT_EQ(handle.status(), JobStatus::Completed);
    EXPECT_EQ(handle.record().jobKey, 0u);
    EXPECT_EQ(handle.record().id, 1u);
    EXPECT_EQ(service.summary().submitted, 1u);
}

TEST_F(JobServiceTest, PriorityOutsideTheThreeClassesIsRejected)
{
    JobService service(serviceOptions(1));
    service.registerMachine(
        "ibmqx2", TrajectorySimulator(
                      makeMachine("ibmqx2").noiseModel(), 3));
    const Circuit circuit = physicalBv("ibmqx2", 2, 0b11);
    JobOptions options;
    options.tenant = "alice";
    options.batchSize = 64;
    for (std::uint8_t raw : {3, 7, 255}) {
        options.priority = static_cast<JobPriority>(raw);
        EXPECT_THROW(
            (void)service.submit("ibmqx2", circuit, 128, options),
            std::invalid_argument)
            << "priority " << int(raw);
    }
    EXPECT_EQ(service.summary().submitted, 0u);

    for (JobPriority ok : {JobPriority::Interactive, JobPriority::Batch,
                           JobPriority::Background}) {
        options.priority = ok;
        JobHandle handle =
            service.submit("ibmqx2", circuit, 128, options);
        handle.wait();
        EXPECT_EQ(handle.status(), JobStatus::Completed)
            << jobPriorityName(ok);
    }
}

TEST_F(JobServiceTest, ZeroShotJobCompletesEmpty)
{
    JobService service(serviceOptions(1));
    service.registerMachine(
        "ibmqx2", TrajectorySimulator(
                      makeMachine("ibmqx2").noiseModel(), 3));
    const Circuit circuit = physicalBv("ibmqx2", 2, 0b11);
    JobHandle handle = service.submit("ibmqx2", circuit, 0,
                                      jobOptions("alice", 0));
    handle.wait();
    EXPECT_EQ(handle.status(), JobStatus::Completed);
    EXPECT_EQ(handle.get().total(), 0u);
    EXPECT_EQ(handle.record().batches, 0u);
}

TEST_F(JobServiceTest, AdmissionControlRejectsOverflow)
{
    const TrajectorySimulator prototype(
        makeMachine("ibmqx2").noiseModel(), 3);
    const Circuit circuit = physicalBv("ibmqx2", 2, 0b01);

    // Bound: 2 queued batches. 1024/128 = 8 batches cannot fit.
    JobService service(serviceOptions(1, 2), 7);
    service.registerMachine("ibmqx2", prototype);
    EXPECT_THROW((void)service.submit("ibmqx2", circuit, 1024,
                                      jobOptions("alice", 0)),
                 BudgetExhausted);

    // Rejection enqueued nothing: the service drains instantly and
    // a job that fits still runs to completion.
    service.drain();
    JobHandle fits = service.submit("ibmqx2", circuit, 128,
                                    jobOptions("alice", 1));
    fits.wait();
    EXPECT_EQ(fits.status(), JobStatus::Completed);

    const svc::ServiceSummary summary = service.summary();
    EXPECT_EQ(summary.rejected, 1u);
    EXPECT_EQ(summary.submitted, 1u);
    EXPECT_EQ(summary.completed, 1u);
}

TEST_F(JobServiceTest, CancelSkipsQueuedJob)
{
    auto gate = std::make_shared<GatedBackend::Gate>();
    JobService service(serviceOptions(1));
    service.registerMachine("gated", GatedBackend(gate));
    Circuit circuit(2);
    circuit.measureAll();

    // One batch occupies the only worker at the closed gate...
    JobHandle blocker = service.submit(
        "gated", circuit, 64, jobOptions("alice", 0, 64));
    while (blocker.status() != JobStatus::Running)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    // ...so this one is still queued and cancellable.
    JobHandle victim = service.submit(
        "gated", circuit, 64, jobOptions("alice", 1, 64));
    EXPECT_TRUE(service.cancel(victim));

    gate->release();
    service.drain();

    EXPECT_EQ(blocker.status(), JobStatus::Completed);
    EXPECT_EQ(blocker.get().total(), 64u);
    EXPECT_EQ(victim.status(), JobStatus::Cancelled);
    EXPECT_THROW((void)victim.get(), svc::JobCancelled);
    EXPECT_EQ(victim.record().status, JobStatus::Cancelled);
    EXPECT_EQ(victim.record().shotsCompleted, 0u);
    // The victim's batch never reached the backend.
    EXPECT_EQ(gate->runs.load(), 1);
    // Terminal jobs cannot be cancelled again.
    EXPECT_FALSE(service.cancel(victim));
    EXPECT_FALSE(service.cancel(blocker));
    EXPECT_EQ(service.summary().cancelled, 1u);
}

TEST_F(JobServiceTest, InteractiveDispatchesBeforeBackground)
{
    auto gate = std::make_shared<GatedBackend::Gate>();
    JobService service(serviceOptions(1));
    service.registerMachine("gated", GatedBackend(gate));
    Circuit circuit(2);
    circuit.measureAll();

    JobHandle blocker = service.submit(
        "gated", circuit, 16,
        jobOptions("alice", 0, 16, JobPriority::Interactive));
    while (blocker.status() != JobStatus::Running)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // Submitted background-first: dispatch order must not be FIFO.
    JobHandle background = service.submit(
        "gated", circuit, 16,
        jobOptions("alice", 1, 16, JobPriority::Background));
    JobHandle batch = service.submit(
        "gated", circuit, 16,
        jobOptions("bob", 2, 16, JobPriority::Batch));
    JobHandle interactive = service.submit(
        "gated", circuit, 16,
        jobOptions("carol", 3, 16, JobPriority::Interactive));

    gate->release();
    service.drain();

    std::vector<std::uint64_t> order;
    for (const svc::JobRecord& record : service.auditLog())
        order.push_back(record.id);
    ASSERT_EQ(order.size(), 4u);
    // One worker: completion order == dispatch order.
    EXPECT_EQ(order[0], blocker.id());
    EXPECT_EQ(order[1], interactive.id());
    EXPECT_EQ(order[2], batch.id());
    EXPECT_EQ(order[3], background.id());
}

/** Index of the first flight event of @p kind; -1 when absent. */
int
flightIndexOf(const svc::JobRecord& record,
              telemetry::FlightEventKind kind)
{
    for (std::size_t i = 0; i < record.flight.size(); ++i) {
        if (record.flight[i].kind == kind)
            return static_cast<int>(i);
    }
    return -1;
}

TEST_F(JobServiceTest, QueueWaitExecuteSplitObeysInvariants)
{
    using telemetry::FlightEventKind;
    auto gate = std::make_shared<GatedBackend::Gate>();
    ServiceOptions options = serviceOptions(1);
    options.flightRecorder = true; // No telemetry needed.
    JobService service(options);
    service.registerMachine("gated", GatedBackend(gate));
    Circuit circuit(2);
    circuit.measureAll();

    JobHandle blocker = service.submit(
        "gated", circuit, 64, jobOptions("alice", 0, 64));
    while (blocker.status() != JobStatus::Running)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    // Waits at the queue while the blocker owns the only worker.
    JobHandle waiter = service.submit(
        "gated", circuit, 64, jobOptions("alice", 1, 64));
    gate->release();
    service.drain();

    for (const JobHandle* handle : {&blocker, &waiter}) {
        const svc::JobRecord& record = handle->record();
        ASSERT_EQ(record.status, JobStatus::Completed);
        EXPECT_GE(record.queueWaitSeconds, 0.0);
        EXPECT_GE(record.execSeconds, 0.0);
        // The split is exact, not approximate: wait + execute
        // reconstructs the wall duration bit-for-bit.
        EXPECT_DOUBLE_EQ(record.queueWaitSeconds +
                             record.execSeconds,
                         record.wallSeconds);

        // Flight events tell the same story, in causal order.
        const int enqueue =
            flightIndexOf(record, FlightEventKind::Enqueue);
        const int admit =
            flightIndexOf(record, FlightEventKind::Admit);
        const int dispatch =
            flightIndexOf(record, FlightEventKind::Dispatch);
        const int merge =
            flightIndexOf(record, FlightEventKind::Merge);
        const int audit =
            flightIndexOf(record, FlightEventKind::Audit);
        ASSERT_GE(enqueue, 0);
        ASSERT_GE(admit, 0);
        ASSERT_GE(dispatch, 0);
        ASSERT_GE(merge, 0);
        ASSERT_GE(audit, 0);
        EXPECT_LT(enqueue, admit);
        EXPECT_LT(admit, dispatch);
        EXPECT_LT(dispatch, merge);
        EXPECT_LT(merge, audit);
        for (std::size_t i = 1; i < record.flight.size(); ++i) {
            EXPECT_GT(record.flight[i].seq,
                      record.flight[i - 1].seq);
            EXPECT_GE(record.flight[i].tSeconds,
                      record.flight[i - 1].tSeconds);
        }
    }
    // The waiter demonstrably queued behind the blocker.
    EXPECT_GT(waiter.record().queueWaitSeconds, 0.0);
}

TEST_F(JobServiceTest, CancelledBeforeDispatchIsPureQueueWait)
{
    auto gate = std::make_shared<GatedBackend::Gate>();
    ServiceOptions options = serviceOptions(1);
    options.flightRecorder = true;
    JobService service(options);
    service.registerMachine("gated", GatedBackend(gate));
    Circuit circuit(2);
    circuit.measureAll();

    JobHandle blocker = service.submit(
        "gated", circuit, 64, jobOptions("alice", 0, 64));
    while (blocker.status() != JobStatus::Running)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    JobHandle victim = service.submit(
        "gated", circuit, 64, jobOptions("alice", 1, 64));
    ASSERT_TRUE(service.cancel(victim));
    gate->release();
    service.drain();

    const svc::JobRecord& record = victim.record();
    ASSERT_EQ(record.status, JobStatus::Cancelled);
    // Never dispatched: the whole lifetime was queue wait.
    EXPECT_DOUBLE_EQ(record.queueWaitSeconds,
                     record.wallSeconds);
    EXPECT_EQ(record.execSeconds, 0.0);
    EXPECT_GE(flightIndexOf(record,
                            telemetry::FlightEventKind::Cancel),
              0);
    EXPECT_EQ(flightIndexOf(
                  record, telemetry::FlightEventKind::Dispatch),
              -1);
}

TEST_F(JobServiceTest, AuditRecordJsonCarriesTheSplit)
{
    const TrajectorySimulator prototype(
        makeMachine("ibmqx2").noiseModel(), 3);
    JobService service(serviceOptions(2));
    service.registerMachine("ibmqx2", prototype);
    JobHandle handle =
        service.submit("ibmqx2", physicalBv("ibmqx2", 2, 0b01),
                       128, jobOptions("alice", 0, 64));
    handle.wait();
    const telemetry::JsonValue json = handle.record().toJson();
    ASSERT_NE(json.find("queue_wait_seconds"), nullptr);
    ASSERT_NE(json.find("exec_seconds"), nullptr);
    EXPECT_DOUBLE_EQ(
        json.find("queue_wait_seconds")->asDouble() +
            json.find("exec_seconds")->asDouble(),
        json.find("wall_seconds")->asDouble());
    // Off-by-default recording: no flight dump in the record.
    EXPECT_EQ(json.find("flight"), nullptr);
}

/**
 * Exact-counts golden pinning the service determinism contract
 * (schema invertq.service-exact/v1). Every record is one job's
 * merged histogram; the same (seed, tenant, key, circuit, shots,
 * batch size) must reproduce it bit-for-bit on any thread count
 * and submission interleaving. Regenerate with --update-golden.
 */
class ServiceExactGolden
{
  public:
    ServiceExactGolden()
        : path_(std::string(QEM_GOLDEN_DIR) +
                "/job_service.json"),
          update_(verify::GoldenStore::updateRequested())
    {
    }

    void check(const std::string& name, const Counts& counts)
    {
        if (update_) {
            telemetry::JsonValue rec =
                telemetry::JsonValue::object();
            rec["bits"] = telemetry::JsonValue(counts.numBits());
            telemetry::JsonValue raw =
                telemetry::JsonValue::object();
            for (const auto& [state, n] : counts.raw())
                raw[std::to_string(state)] =
                    telemetry::JsonValue(n);
            rec["counts"] = std::move(raw);
            fresh_["records"][name] = std::move(rec);
            return;
        }
        if (root_.isNull()) {
            std::ifstream in(path_);
            ASSERT_TRUE(in.good()) << "missing golden: " << path_;
            std::ostringstream text;
            text << in.rdbuf();
            root_ = telemetry::JsonValue::parse(text.str());
        }
        const telemetry::JsonValue* records =
            root_.find("records");
        ASSERT_NE(records, nullptr);
        const telemetry::JsonValue* rec = records->find(name);
        ASSERT_NE(rec, nullptr) << "no golden record " << name;
        ASSERT_EQ(rec->find("bits")->asUint(), counts.numBits());
        Counts::Log expected;
        for (const auto& [state, value] :
             rec->find("counts")->members())
            expected.emplace_back(std::stoull(state), value.asUint());
        // JSON keys sort as strings; the log sorts by outcome value.
        std::sort(expected.begin(), expected.end());
        EXPECT_EQ(counts.raw(), expected)
            << name << ": service counts diverged bit-wise from "
            << "the recorded reference run";
    }

    ~ServiceExactGolden()
    {
        if (!update_)
            return;
        fresh_["schema"] =
            telemetry::JsonValue("invertq.service-exact/v1");
        std::ofstream out(path_);
        out << fresh_.dump(1) << "\n";
    }

  private:
    std::string path_;
    bool update_ = false;
    telemetry::JsonValue root_;
    telemetry::JsonValue fresh_;
};

TEST_F(JobServiceTest, ConcurrentDeterminismGolden)
{
    const Machine machine = makeMachine("ibmqx4");
    const TrajectorySimulator prototype(machine.noiseModel(), 7);
    const Circuit circuit = physicalBv("ibmqx4", 3, 0b110);

    struct Spec
    {
        const char* tenant;
        std::uint64_t key;
        std::size_t shots;
    };
    const std::vector<Spec> jobs = {
        {"alice", 0, 768}, {"alice", 1, 1024}, {"bob", 0, 512},
        {"bob", 7, 896},   {"carol", 3, 640},
    };

    ServiceExactGolden golden;
    // Same five jobs on 1 thread and 4, submitted forward and in
    // reverse: per-job counts must never move.
    for (unsigned threads : {1u, 4u}) {
        for (bool reversed : {false, true}) {
            JobService service(serviceOptions(threads), 2019);
            service.registerMachine("ibmqx4", prototype);
            std::vector<JobHandle> handles(jobs.size());
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                const std::size_t at =
                    reversed ? jobs.size() - 1 - i : i;
                handles[at] = service.submit(
                    "ibmqx4", circuit, jobs[at].shots,
                    jobOptions(jobs[at].tenant, jobs[at].key));
            }
            service.drain();
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                const std::string name =
                    std::string(jobs[i].tenant) + "/k" +
                    std::to_string(jobs[i].key);
                // In update mode every configuration records the
                // same entry — a divergence would still be caught
                // by the serial-reference check below.
                golden.check(name, handles[i].get());
                if (HasFatalFailure())
                    return;
                EXPECT_EQ(
                    handles[i].get().raw(),
                    serialReference(prototype, circuit,
                                    jobs[i].shots, 128, 2019,
                                    jobs[i].tenant, jobs[i].key)
                        .raw());
            }
        }
    }
}

TEST_F(JobServiceTest, SharedCacheCompilesOncePerCircuit)
{
    telemetry::resetAll();
    telemetry::setEnabled(true);

    const TrajectorySimulator prototype(
        makeMachine("ibmqx4").noiseModel(), 7);
    const Circuit circuit = physicalBv("ibmqx4", 3, 0b011);
    {
        JobService service(serviceOptions(2), 11);
        service.registerMachine("ibmqx4", prototype);
        std::vector<JobHandle> handles;
        for (std::uint64_t key = 0; key < 5; ++key) {
            handles.push_back(service.submit(
                "ibmqx4", circuit, 256,
                jobOptions("alice", key, 64)));
        }
        service.drain();
        for (auto& handle : handles)
            EXPECT_EQ(handle.status(), JobStatus::Completed);

        // One compile fed all five jobs.
        EXPECT_EQ(telemetry::metrics()
                      .counter("runtime.compiled_jobs")
                      .value(),
                  1u);
        EXPECT_EQ(telemetry::metrics()
                      .counter("service.cache.misses")
                      .value(),
                  1u);
        EXPECT_EQ(telemetry::metrics()
                      .counter("service.cache.hits")
                      .value(),
                  4u);
        EXPECT_EQ(service.summary().cache.hits, 4u);
        EXPECT_EQ(service.summary().cache.misses, 1u);

        const std::vector<svc::JobRecord> audit =
            service.auditLog();
        ASSERT_EQ(audit.size(), 5u);
        std::uint64_t hits = 0, misses = 0;
        for (const svc::JobRecord& record : audit) {
            EXPECT_TRUE(record.compiled);
            hits += record.cacheHits;
            misses += record.cacheMisses;
        }
        EXPECT_EQ(misses, 1u);
        EXPECT_EQ(hits, 4u);
    }

    telemetry::setEnabled(false);
    telemetry::resetAll();
}

TEST_F(JobServiceTest, SummaryManifestRoundTrips)
{
    const TrajectorySimulator prototype(
        makeMachine("ibmqx2").noiseModel(), 3);
    const Circuit circuit = physicalBv("ibmqx2", 2, 0b10);

    JobService service(serviceOptions(2), 5);
    service.registerMachine("ibmqx2", prototype);
    for (std::uint64_t key = 0; key < 3; ++key) {
        (void)service.submit("ibmqx2", circuit, 128,
                             jobOptions("alice", key, 64));
    }
    service.drain();

    const std::string path =
        ::testing::TempDir() + "/service_manifest.json";
    ASSERT_TRUE(service.writeSummary(path));

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream text;
    text << in.rdbuf();
    const telemetry::JsonValue doc =
        telemetry::JsonValue::parse(text.str());

    ASSERT_NE(doc.find("schema"), nullptr);
    EXPECT_EQ(doc.find("schema")->asString(),
              "invertq.service.manifest/v1");
    const telemetry::JsonValue* svcInfo = doc.find("service");
    ASSERT_NE(svcInfo, nullptr);
    EXPECT_EQ(svcInfo->find("seed")->asUint(), 5u);
    const telemetry::JsonValue* summary = doc.find("summary");
    ASSERT_NE(summary, nullptr);
    EXPECT_EQ(summary->find("submitted")->asUint(), 3u);
    EXPECT_EQ(summary->find("completed")->asUint(), 3u);
    EXPECT_EQ(summary->find("shots_completed")->asUint(),
              3u * 128u);
    const telemetry::JsonValue* jobsJson = doc.find("jobs");
    ASSERT_NE(jobsJson, nullptr);
    ASSERT_EQ(jobsJson->size(), 3u);
    for (const telemetry::JsonValue& job : jobsJson->items()) {
        EXPECT_EQ(job.find("tenant")->asString(), "alice");
        EXPECT_EQ(job.find("status")->asString(), "completed");
        EXPECT_EQ(job.find("machine")->asString(), "ibmqx2");
    }
}

TEST_F(JobServiceTest, ReplaceMachineSwapsAtomicallyAndPins)
{
    const Machine machine = makeMachine("ibmqx4");
    const TrajectorySimulator original(machine.noiseModel(), 7);
    const Circuit circuit = physicalBv("ibmqx4", 3, 0b101);

    // A gated original: its jobs start, then block, so the swap
    // provably lands while they are in flight.
    auto gate = std::make_shared<GatedBackend::Gate>();
    const GatedBackend gated(gate);

    JobService service(serviceOptions(2), 99);
    ASSERT_TRUE(service.registerMachine("ibmqx4", gated));
    EXPECT_EQ(service.machineGeneration("ibmqx4"), 0u);
    EXPECT_FALSE(service.replaceMachine("nope", original));
    EXPECT_THROW((void)service.machineGeneration("nope"),
                 std::invalid_argument);

    JobHandle pinned = service.submit("ibmqx4", circuit, 256,
                                      jobOptions("alice", 1));

    // Swap while the pinned job is queued/blocked on the gate.
    ASSERT_TRUE(service.replaceMachine("ibmqx4", original));
    EXPECT_EQ(service.machineGeneration("ibmqx4"), 1u);

    JobHandle after = service.submit("ibmqx4", circuit, 256,
                                     jobOptions("alice", 2));
    gate->release();
    pinned.wait();
    after.wait();

    // The in-flight job ran on the worker set it resolved at
    // submit time: all-zeros is the gated backend's signature.
    EXPECT_EQ(pinned.get().get(0), 256u);
    EXPECT_EQ(pinned.get().distinct(), 1u);
    // The post-swap job ran on the replacement and matches the
    // serial reference for the SAME (tenant, jobKey): a machine
    // swap does not move the job's RNG stream.
    EXPECT_EQ(after.get().raw(),
              serialReference(original, circuit, 256, 128, 99,
                              "alice", 2)
                  .raw());
}

TEST_F(JobServiceTest, ResultsBitIdenticalAcrossSwapAndInvalidate)
{
    const Machine machine = makeMachine("ibmqx4");
    const TrajectorySimulator prototype(machine.noiseModel(), 7);
    const Circuit circuit = physicalBv("ibmqx4", 3, 0b011);

    // Reference service: never swapped, artifact freshly compiled.
    JobService fresh(serviceOptions(2), 99);
    fresh.registerMachine("ibmqx4", prototype);
    const Counts freshCounts =
        fresh.submit("ibmqx4", circuit, 512, jobOptions("t", 9))
            .get();

    // Swapped service: same prototype republished mid-stream, and
    // the compiled artifact invalidated between jobs. Generation
    // bumps mean the second job misses onto a generation-1 compile.
    JobService swapped(serviceOptions(2), 99);
    swapped.registerMachine("ibmqx4", prototype);
    const Counts before =
        swapped.submit("ibmqx4", circuit, 512, jobOptions("t", 9))
            .get();
    ASSERT_TRUE(swapped.replaceMachine("ibmqx4", prototype));
    ASSERT_TRUE(swapped.cache().invalidate(
        svc::compiledProgramKey("ibmqx4", circuit, 0)));
    const Counts after =
        swapped.submit("ibmqx4", circuit, 512, jobOptions("t", 9))
            .get();

    // Job results are a pure function of (seed, tenant, jobKey,
    // circuit, shots, batch size) — bit-identical whether the
    // artifact was freshly computed or swapped mid-stream.
    EXPECT_EQ(before.raw(), freshCounts.raw());
    EXPECT_EQ(after.raw(), freshCounts.raw());
    // Both generations' compiles happened (two distinct keys).
    EXPECT_GE(swapped.summary().cache.misses, 2u);
    EXPECT_EQ(swapped.summary().cache.invalidations, 1u);
}

} // namespace
} // namespace qem

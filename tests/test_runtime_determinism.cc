/**
 * @file
 * Determinism guarantees of the parallel shot-execution runtime:
 * the merged histogram of a job is a pure function of (seed, batch
 * size, call index) — never of thread count or scheduling — for
 * both a Bernstein-Vazirani and a QAOA trajectory workload.
 */

#include <algorithm>
#include <future>
#include <iterator>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/benchmarks.hh"
#include "kernels/bv.hh"
#include "machine/machines.hh"
#include "noise/trajectory.hh"
#include "qsim/bitstring.hh"
#include "runtime/parallel_backend.hh"
#include "runtime/shot_plan.hh"

namespace qem
{
namespace
{

/** Merged histogram of @p shots BV-5 trials on @p threads workers. */
Counts
runBv(unsigned threads, std::uint64_t seed, std::size_t shots,
      std::size_t batch_size)
{
    const TrajectorySimulator proto(makeIbmqx4().noiseModel(), 7);
    ParallelBackend backend(proto, seed,
                            RuntimeOptions{.numThreads = threads,
                                           .batchSize = batch_size});
    return backend.run(bernsteinVazirani(4, fromBitString("1011")),
                       shots);
}

TEST(RuntimeDeterminism, BvIdenticalAcross1_2_8Threads)
{
    const Counts one = runBv(1, 2019, 4096, 64);
    const Counts two = runBv(2, 2019, 4096, 64);
    const Counts eight = runBv(8, 2019, 4096, 64);
    EXPECT_EQ(one.total(), 4096u);
    EXPECT_EQ(one.raw(), two.raw());
    EXPECT_EQ(one.raw(), eight.raw());
}

TEST(RuntimeDeterminism, QaoaIdenticalAcross1_2_8Threads)
{
    // First QAOA entry of the 5-qubit suite (Table 3 workload).
    const std::vector<NisqBenchmark> suite = benchmarkSuiteQ5();
    const NisqBenchmark* qaoa = nullptr;
    for (const NisqBenchmark& bench : suite) {
        if (bench.name.rfind("qaoa", 0) == 0) {
            qaoa = &bench;
            break;
        }
    }
    ASSERT_NE(qaoa, nullptr);

    const TrajectorySimulator proto(makeIbmqx4().noiseModel(), 11);
    Counts byThreads[3];
    const unsigned threads[3] = {1, 2, 8};
    for (int i = 0; i < 3; ++i) {
        ParallelBackend backend(proto, 2019,
                                RuntimeOptions{.numThreads = threads[i],
                                               .batchSize = 128});
        byThreads[i] = backend.run(qaoa->circuit, 2048);
    }
    EXPECT_EQ(byThreads[0].total(), 2048u);
    EXPECT_EQ(byThreads[0].raw(), byThreads[1].raw());
    EXPECT_EQ(byThreads[0].raw(), byThreads[2].raw());
}

TEST(RuntimeDeterminism, RepeatedRunsAdvanceButReplayExactly)
{
    const TrajectorySimulator proto(makeIbmqx4().noiseModel(), 7);
    const Circuit circuit = bernsteinVazirani(4, allOnes(4));

    ParallelBackend a(
        proto, 5, RuntimeOptions{.numThreads = 2, .batchSize = 64});
    const Counts first = a.run(circuit, 1024);
    const Counts second = a.run(circuit, 1024);
    // Same job twice consumes fresh job streams (like the serial
    // simulators), so the histograms differ...
    EXPECT_NE(first.raw(), second.raw());
    // ...but a reconstructed backend replays the same sequence.
    ParallelBackend b(
        proto, 5, RuntimeOptions{.numThreads = 8, .batchSize = 64});
    EXPECT_EQ(b.run(circuit, 1024).raw(), first.raw());
    EXPECT_EQ(b.run(circuit, 1024).raw(), second.raw());
}

TEST(RuntimeDeterminism, IdealBackendShardsDeterministically)
{
    const IdealSimulator proto(5, 123);
    const Circuit circuit = bernsteinVazirani(4, fromBitString("0110"));
    ParallelBackend one(
        proto, 9, RuntimeOptions{.numThreads = 1, .batchSize = 32});
    ParallelBackend four(
        proto, 9, RuntimeOptions{.numThreads = 4, .batchSize = 32});
    EXPECT_EQ(one.run(circuit, 1000).raw(),
              four.run(circuit, 1000).raw());
}

TEST(RuntimeDeterminism, UnevenShotCountsAreCoveredExactly)
{
    // 1000 shots in batches of 64 -> 15 full batches + a 40-shot
    // tail; every shot lands in the log exactly once.
    const Counts counts = runBv(3, 77, 1000, 64);
    EXPECT_EQ(counts.total(), 1000u);
}

TEST(RuntimeDeterminism, StatsAccountForEveryShot)
{
    const TrajectorySimulator proto(makeIbmqx4().noiseModel(), 7);
    ParallelBackend backend(
        proto, 2019,
        RuntimeOptions{.numThreads = 2, .batchSize = 64});
    (void)backend.run(bernsteinVazirani(4, 1), 512);
    const RuntimeStats& stats = backend.lastRunStats();
    EXPECT_EQ(stats.shots, 512u);
    EXPECT_EQ(stats.batches, 8u);
    EXPECT_EQ(stats.numThreads, 2u);
    std::uint64_t across = 0;
    for (std::uint64_t w : stats.perWorkerShots)
        across += w;
    EXPECT_EQ(across, 512u);
    EXPECT_GT(stats.shotsPerSecond, 0.0);
    EXPECT_FALSE(stats.toString().empty());
}

TEST(RuntimeDeterminism, WorkerExceptionPropagates)
{
    // RESET is unsupported by the trajectory simulator; the throw
    // happens on a pool worker and must surface at the call site.
    const TrajectorySimulator proto(makeIbmqx4().noiseModel(), 7);
    ParallelBackend backend(
        proto, 3, RuntimeOptions{.numThreads = 2, .batchSize = 16});
    Circuit bad(1);
    bad.reset(0).measure(0, 0);
    EXPECT_THROW(backend.run(bad, 64), std::logic_error);
}

TEST(RuntimeDeterminism, ExplicitRngOverloadMatchesMemberStream)
{
    // The member-RNG run() is a wrapper: driving the const overload
    // with an equally-seeded stream reproduces it bit for bit.
    const Circuit circuit = bernsteinVazirani(4, fromBitString("1110"));
    TrajectorySimulator wrapped(makeIbmqx4().noiseModel(), 42);
    const TrajectorySimulator pure(makeIbmqx4().noiseModel(), 99);
    Rng stream(42);
    EXPECT_EQ(wrapped.run(circuit, 2000).raw(),
              pure.run(circuit, 2000, stream).raw());
}

TEST(ShotPlan, PartitionsTheBudgetContiguously)
{
    const ShotPlan plan(1000, 64);
    EXPECT_EQ(plan.numBatches(), 16u);
    std::size_t next = 0;
    for (const ShotBatch& batch : plan.batches()) {
        EXPECT_EQ(batch.firstShot, next);
        EXPECT_LE(batch.shots, 64u);
        next += batch.shots;
    }
    EXPECT_EQ(next, 1000u);
    EXPECT_THROW(ShotPlan(10, 0), std::invalid_argument);
    EXPECT_EQ(ShotPlan(0, 64).numBatches(), 0u);
}

TEST(ShotPlan, SubstreamsAreKeyedByIndexNotOrder)
{
    Rng job(31337);
    Rng late = ShotPlan::substream(job, 9);
    Rng early = ShotPlan::substream(job, 0);
    // Re-deriving in the opposite order yields the same streams.
    Rng early2 = ShotPlan::substream(job, 0);
    Rng late2 = ShotPlan::substream(job, 9);
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(early.bits(), early2.bits());
        EXPECT_EQ(late.bits(), late2.bits());
    }
}

/**
 * Which threads executed batches, shared by every clone of a
 * ThreadRecordingBackend. A gated thread blocks in its first run()
 * until release() so a test can hold the caller's worker clone busy.
 */
struct ThreadLog
{
    std::mutex mutex;
    std::vector<std::thread::id> threads;
    std::thread::id gated;
    bool gateUsed = false;
    std::promise<void> entered;
    std::promise<void> releaseGate;
    std::shared_future<void> released = releaseGate.get_future().share();
};

/** Trajectory backend with no compiled form that logs the thread of
 *  every batch it runs. */
class ThreadRecordingBackend final : public ShardedBackend
{
  public:
    ThreadRecordingBackend(std::shared_ptr<ThreadLog> log)
        : inner_(makeIbmqx4().noiseModel(), 7), log_(std::move(log))
    {
    }

    using ShardedBackend::run;
    Counts run(const Circuit& circuit, std::size_t shots) override
    {
        return inner_.run(circuit, shots);
    }

    Counts run(const Circuit& circuit, std::size_t shots,
               Rng& rng) const override
    {
        bool wait = false;
        {
            std::lock_guard<std::mutex> lock(log_->mutex);
            log_->threads.push_back(std::this_thread::get_id());
            if (!log_->gateUsed &&
                log_->gated == std::this_thread::get_id()) {
                log_->gateUsed = true;
                wait = true;
            }
        }
        if (wait) {
            log_->entered.set_value();
            log_->released.wait();
        }
        return inner_.run(circuit, shots, rng);
    }

    unsigned numQubits() const override { return inner_.numQubits(); }

    std::unique_ptr<ShardedBackend> clone() const override
    {
        return std::make_unique<ThreadRecordingBackend>(log_);
    }

  private:
    TrajectorySimulator inner_;
    std::shared_ptr<ThreadLog> log_;
};

TEST(RuntimeDeterminism, OneBatchRunExecutesOnTheCallingThread)
{
    auto log = std::make_shared<ThreadLog>();
    const ThreadRecordingBackend proto(log);
    ParallelBackend backend(
        proto, 2019, RuntimeOptions{.numThreads = 4, .batchSize = 256});
    ASSERT_EQ(backend.numThreads(), 4u);
    const Counts counts =
        backend.run(bernsteinVazirani(4, fromBitString("1011")), 200);
    EXPECT_EQ(counts.total(), 200u);
    {
        std::lock_guard<std::mutex> lock(log->mutex);
        ASSERT_FALSE(log->threads.empty());
        for (const std::thread::id id : log->threads)
            EXPECT_EQ(id, std::this_thread::get_id());
    }
    // The caller's shots land in the last worker slot.
    const RuntimeStats stats = backend.statsSnapshot();
    ASSERT_EQ(stats.perWorkerShots.size(), 4u);
    EXPECT_EQ(stats.perWorkerShots.back(), 200u);
    for (std::size_t w = 0; w + 1 < stats.perWorkerShots.size(); ++w)
        EXPECT_EQ(stats.perWorkerShots[w], 0u) << w;
}

TEST(RuntimeDeterminism, CountsIdenticalAcross1_2_4Threads)
{
    // One-batch, few-batch and many-batch runs back to back on the
    // same backend, so the caller/pool split differs per run.
    const Circuit circuit = bernsteinVazirani(4, fromBitString("0111"));
    const std::size_t shots[] = {100, 300, 2048, 64};
    std::vector<Counts> byThreads[3];
    const unsigned threads[3] = {1, 2, 4};
    const TrajectorySimulator proto(makeIbmqx4().noiseModel(), 7);
    for (int i = 0; i < 3; ++i) {
        ParallelBackend backend(
            proto, 77,
            RuntimeOptions{.numThreads = threads[i], .batchSize = 128});
        EXPECT_EQ(backend.numThreads(), threads[i]);
        for (std::size_t n : shots)
            byThreads[i].push_back(backend.run(circuit, n));
    }
    for (std::size_t k = 0; k < std::size(shots); ++k) {
        EXPECT_EQ(byThreads[0][k].total(), shots[k]);
        EXPECT_EQ(byThreads[0][k].raw(), byThreads[1][k].raw()) << k;
        EXPECT_EQ(byThreads[0][k].raw(), byThreads[2][k].raw()) << k;
    }
}

/** Counts of running @p first then @p second on a fresh backend. */
std::pair<Counts, Counts>
serialReplay(const Circuit& first, std::size_t firstShots,
             const Circuit& second, std::size_t secondShots)
{
    const TrajectorySimulator proto(makeIbmqx4().noiseModel(), 7);
    ParallelBackend backend(
        proto, 31, RuntimeOptions{.numThreads = 1, .batchSize = 64});
    Counts a = backend.run(first, firstShots);
    Counts b = backend.run(second, secondShots);
    return {std::move(a), std::move(b)};
}

TEST(RuntimeDeterminism, ConcurrentCallersMatchSerialReplay)
{
    const Circuit x = bernsteinVazirani(4, fromBitString("1011"));
    const Circuit y = bernsteinVazirani(4, fromBitString("0110"));
    const auto xThenY = serialReplay(x, 1024, y, 640);
    const auto yThenX = serialReplay(y, 640, x, 1024);
    const TrajectorySimulator proto(makeIbmqx4().noiseModel(), 7);
    for (int round = 0; round < 6; ++round) {
        ParallelBackend backend(
            proto, 31, RuntimeOptions{.numThreads = 3, .batchSize = 64});
        Counts fromX;
        Counts fromY;
        std::thread tx([&] { fromX = backend.run(x, 1024); });
        std::thread ty([&] { fromY = backend.run(y, 640); });
        tx.join();
        ty.join();
        // Whichever call drew its job stream first, each caller got
        // exactly what a serial replay in that order gives.
        const bool xFirst = fromX.raw() == xThenY.first.raw();
        if (xFirst) {
            EXPECT_EQ(fromY.raw(), xThenY.second.raw()) << round;
        } else {
            EXPECT_EQ(fromX.raw(), yThenX.second.raw()) << round;
            EXPECT_EQ(fromY.raw(), yThenX.first.raw()) << round;
        }
    }
}

TEST(RuntimeDeterminism, CallerWithBusyWorkerSlotLeavesBatchesToPool)
{
    // Caller A holds the caller's worker clone, blocked inside its
    // one batch (a one-batch run gets no pool helper, so A's caller
    // is sure to run it). Caller B must finish on the pool alone,
    // with the counts of a serial replay, and A must then complete.
    auto log = std::make_shared<ThreadLog>();
    const ThreadRecordingBackend proto(log);
    ParallelBackend backend(
        proto, 31, RuntimeOptions{.numThreads = 2, .batchSize = 64});
    const Circuit x = bernsteinVazirani(4, fromBitString("1011"));
    const Circuit y = bernsteinVazirani(4, fromBitString("0110"));

    Counts fromX;
    std::thread a([&] {
        {
            std::lock_guard<std::mutex> lock(log->mutex);
            log->gated = std::this_thread::get_id();
        }
        fromX = backend.run(x, 64);
    });
    log->entered.get_future().wait();
    const Counts fromY = backend.run(y, 640);
    {
        std::lock_guard<std::mutex> lock(log->mutex);
        EXPECT_EQ(std::count(log->threads.begin(), log->threads.end(),
                             std::this_thread::get_id()),
                  0)
            << "B ran a batch on the caller's busy worker clone";
    }
    log->releaseGate.set_value();
    a.join();

    const auto xThenY = serialReplay(x, 64, y, 640);
    EXPECT_EQ(fromX.raw(), xThenY.first.raw());
    EXPECT_EQ(fromY.raw(), xThenY.second.raw());
}

} // namespace
} // namespace qem

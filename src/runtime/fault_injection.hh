/**
 * @file
 * Reusable fault injection for the execution runtime.
 *
 * Promotes the test-only FlakyBackend into a configurable
 * ShardedBackend decorator so tests, benches, and CI can exercise
 * the retry path of the resilient runtime. Faults come in two
 * shapes, combinable:
 *
 *   - rate faults: each run() call fails independently with a fixed
 *     probability, decided by a hash of (seed, call index) — never
 *     by draws from the caller's shot stream, so an injected-then-
 *     retried batch reproduces exactly the counts a clean run
 *     produces;
 *   - schedule faults: calls [failAfter, failAfter + failCount)
 *     fail deterministically, which models an outage window (and,
 *     with an unbounded count, a dead backend).
 *
 * Selected via code or the environment: `INVERTQ_FAULTS` holds a
 * comma-separated k=v list, e.g.
 *
 *   INVERTQ_FAULTS="rate=0.02,kind=transient,seed=7"
 *   INVERTQ_FAULTS="after=10,count=3,kind=fatal"
 *
 * cloneWorkers() wraps every worker clone of ParallelBackend and
 * the job service in an injector when the variable is set, so any
 * parallel run in the process exercises retry/backoff without code
 * changes.
 */

#ifndef QEM_RUNTIME_FAULT_INJECTION_HH
#define QEM_RUNTIME_FAULT_INJECTION_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "qsim/simulator.hh"
#include "runtime/batch_attempt.hh"

namespace qem
{

/** Which taxonomy type an injected fault throws. */
enum class FaultKind
{
    Transient, //!< TransientError: the retry path recovers.
    Fatal,     //!< FatalError: aborts immediately, never retried.
};

/** Configuration of one fault injector. */
struct FaultOptions
{
    /** Per-call failure probability in [0, 1]; 0 disables. */
    double failureRate = 0.0;
    /** Taxonomy type thrown for injected faults. */
    FaultKind kind = FaultKind::Transient;
    /**
     * First 0-based call index of the deterministic outage window;
     * -1 disables schedule faults.
     */
    std::int64_t failAfter = -1;
    /** Length of the outage window (default: never heals). */
    std::uint64_t failCount = UINT64_MAX;
    /** Seed of the rate-fault hash stream. */
    std::uint64_t seed = 0x5EEDFA17u;

    /**
     * Parse `INVERTQ_FAULTS`. Returns nullopt when unset or empty;
     * throws std::invalid_argument on a malformed spec (fail loudly
     * rather than silently running fault-free in CI).
     */
    static std::optional<FaultOptions> fromEnv();

    /** Parse a "rate=0.1,kind=fatal,after=3,count=2,seed=9" spec. */
    static FaultOptions parse(const std::string& spec);
};

/**
 * ShardedBackend decorator that injects failures per FaultOptions.
 *
 * Thread-safety matches the contract of the wrapped backend: the
 * const three-argument run() only touches atomics plus the inner
 * const run(), so worker threads may share one injector exactly as
 * they could share the inner backend.
 */
class FaultInjectingBackend : public ShardedBackend
{
  public:
    FaultInjectingBackend(std::unique_ptr<ShardedBackend> inner,
                          FaultOptions options);

    Counts run(const Circuit& circuit, std::size_t shots) override;

    Counts run(const Circuit& circuit, std::size_t shots,
               Rng& rng) const override;

    // compile() is intentionally NOT overridden: the inherited
    // nullptr default forces attemptBatch() down the per-batch
    // run() path, so every batch still crosses maybeFail() and an
    // INVERTQ_FAULTS smoke keeps exercising retry/backoff instead
    // of being bypassed by a shared compiled program.

    /** Fresh injector (call counters reset) over a cloned inner. */
    std::unique_ptr<ShardedBackend> clone() const override;

    unsigned numQubits() const override
    {
        return inner_->numQubits();
    }

    /** run() calls observed (including failed ones). */
    std::uint64_t calls() const
    {
        return calls_.load(std::memory_order_relaxed);
    }

    /** Faults injected so far. */
    std::uint64_t failures() const
    {
        return failures_.load(std::memory_order_relaxed);
    }

  private:
    /** Throw per the options if call @p index should fail. */
    void maybeFail(std::uint64_t index) const;

    std::unique_ptr<ShardedBackend> inner_;
    FaultOptions options_;
    mutable std::atomic<std::uint64_t> calls_{0};
    mutable std::atomic<std::uint64_t> failures_{0};
};

/**
 * Clone @p prototype @p count times, one clone per pool worker.
 * When `INVERTQ_FAULTS` is set each clone is wrapped in a
 * FaultInjectingBackend whose seed is offset by the worker's
 * position, so workers fail on different call indices instead of
 * in lockstep.
 *
 * @throws std::invalid_argument on a malformed `INVERTQ_FAULTS`.
 */
std::vector<std::unique_ptr<ShardedBackend>>
cloneWorkers(const ShardedBackend& prototype, std::size_t count);

} // namespace qem

#endif // QEM_RUNTIME_FAULT_INJECTION_HH

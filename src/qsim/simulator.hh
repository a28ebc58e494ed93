/**
 * @file
 * Ideal (noise-free) circuit simulator.
 *
 * Runs a circuit on a dense state vector with no error processes;
 * this is the reference executor used to validate kernels, optimize
 * QAOA angles, and produce the paper's "ideal quantum computer"
 * baselines (e.g. Fig 3(b), the ideal series in Fig 6).
 */

#ifndef QEM_QSIM_SIMULATOR_HH
#define QEM_QSIM_SIMULATOR_HH

#include <memory>

#include "qsim/circuit.hh"
#include "qsim/counts.hh"
#include "qsim/rng.hh"
#include "qsim/statevector.hh"

namespace qem
{

/**
 * Abstract execution backend: anything that can run a measured
 * circuit for a number of trials and return the output log. The
 * mitigation policies are written against this interface so the same
 * policy code would drive real hardware.
 */
class Backend
{
  public:
    virtual ~Backend() = default;

    /**
     * Execute @p circuit for @p shots trials.
     *
     * @param circuit A circuit with MEASURE operations.
     * @param shots Number of trials to log.
     * @return Histogram over the circuit's classical register.
     */
    virtual Counts run(const Circuit& circuit, std::size_t shots) = 0;

    /** Number of qubits the backend exposes. */
    virtual unsigned numQubits() const = 0;
};

/**
 * A Backend whose sampling can be driven by an external RNG stream
 * and that can be cloned for per-worker use. This is the contract
 * the parallel runtime (src/runtime/) needs: the three-argument
 * run() is const — all mutable per-shot state lives in the caller's
 * Rng — so worker clones never share mutable state, and the same
 * (circuit, shots, stream) triple always yields the same Counts.
 */
class ShardedBackend : public Backend
{
  public:
    using Backend::run;

    /**
     * Execute @p shots trials drawing every random decision from
     * @p rng instead of the backend's member stream.
     */
    virtual Counts run(const Circuit& circuit, std::size_t shots,
                       Rng& rng) const = 0;

    /**
     * A circuit lowered once for repeated execution. run() must
     * consume the rng stream exactly as the owning backend's
     * three-argument run() would for the same circuit, so compiled
     * and uncompiled execution of the same (shots, stream) pair are
     * bit-identical. Implementations keep no mutable state across
     * calls (scratch lives on run()'s stack), so one compiled
     * program may be shared by every worker thread.
     */
    class CompiledRun
    {
      public:
        virtual ~CompiledRun() = default;

        /** Execute @p shots trials against the lowered circuit. */
        virtual Counts run(std::size_t shots, Rng& rng) const = 0;

        /** Resident bytes this compiled program holds (what a
         *  cache that retains it pays). */
        virtual std::size_t bytes() const = 0;
    };

    /**
     * Lower @p circuit into a reusable execution program, or nullptr
     * when this backend has no compiled form — callers must then
     * fall back to run(). The base default is nullptr so decorators
     * that perturb per-call behaviour (e.g. fault injection) opt out
     * of sharing a compiled program by simply not overriding this.
     */
    virtual std::shared_ptr<const CompiledRun>
    compile(const Circuit& circuit) const
    {
        (void)circuit;
        return nullptr;
    }

    /** Deep copy for per-worker use. */
    virtual std::unique_ptr<ShardedBackend> clone() const = 0;
};

/** Noise-free execution backend. */
class IdealSimulator : public ShardedBackend
{
  public:
    /**
     * @param num_qubits Register size the backend exposes.
     * @param seed Seed for measurement sampling.
     */
    explicit IdealSimulator(unsigned num_qubits,
                            std::uint64_t seed = 1234);

    /**
     * Evolve the circuit's unitary prefix and return the
     * pre-measurement state. MEASURE/BARRIER/DELAY operations are
     * skipped; RESET collapses deterministically only if the qubit is
     * untouched (otherwise throws, since an ideal pre-measurement
     * state is no longer well defined).
     */
    StateVector stateOf(const Circuit& circuit) const;

    /** Sample from the member RNG stream (wrapper over the const
     *  overload; repeated calls consume the stream). */
    Counts run(const Circuit& circuit, std::size_t shots) override;

    /** Sample from an explicit stream; pure in (circuit, rng). */
    Counts run(const Circuit& circuit, std::size_t shots,
               Rng& rng) const override;

    /**
     * Lower the circuit once: the pre-measurement state is evolved
     * here and the MEASURE projection is hoisted into a flat
     * (qubit, clbit) list, so each compiled run() is pure sampling.
     */
    std::shared_ptr<const CompiledRun>
    compile(const Circuit& circuit) const override;

    std::unique_ptr<ShardedBackend> clone() const override
    {
        return std::make_unique<IdealSimulator>(*this);
    }

    unsigned numQubits() const override { return numQubits_; }

  private:
    unsigned numQubits_;
    Rng rng_;
};

} // namespace qem

#endif // QEM_QSIM_SIMULATOR_HH

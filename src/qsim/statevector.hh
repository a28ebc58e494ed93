/**
 * @file
 * Dense state-vector register with in-place gate application.
 *
 * This is the computational core of the substrate: a 2^n complex
 * vector with cache-friendly strided updates for one- and two-qubit
 * unitaries, plus the non-unitary primitives the noise model needs
 * (Kraus channel application by quantum-trajectory sampling,
 * projective collapse) and measurement sampling.
 */

#ifndef QEM_QSIM_STATEVECTOR_HH
#define QEM_QSIM_STATEVECTOR_HH

#include <span>
#include <vector>

#include "qsim/gate.hh"
#include "qsim/rng.hh"
#include "qsim/types.hh"

namespace qem
{

/**
 * Where StateVector::applyDecay() takes its jump decisions from.
 *
 * Each damping channel that can act asks decide(p_jump) once, decay
 * first and then dephasing, and takes its jump branch when the
 * answer is true. A live source answers Rng::bernoulli(p_jump); a
 * scripted source draws nothing and answers true only for the call
 * whose index it was given, optionally recording every p_jump it is
 * asked. Every source runs through the same arithmetic, so a step
 * replayed from a script is bit-identical to the live step that drew
 * the same answers.
 */
class DecayDecisions
{
  public:
    /** Script value meaning "no call jumps". */
    static constexpr unsigned kNoJump = ~0u;

    /** Live decisions drawn from @p rng. */
    explicit DecayDecisions(Rng& rng) : rng_(&rng) {}

    /**
     * Scripted decisions: call number @p jump_at (0-based) jumps,
     * every other call does not; each asked p_jump is appended to
     * @p asked when it is non-null.
     */
    static DecayDecisions scripted(unsigned jump_at,
                                   std::vector<double>* asked = nullptr)
    {
        DecayDecisions d;
        d.jumpAt_ = jump_at;
        d.asked_ = asked;
        return d;
    }

    bool decide(double p_jump)
    {
        if (rng_ != nullptr)
            return rng_->bernoulli(p_jump);
        if (asked_ != nullptr)
            asked_->push_back(p_jump);
        return calls_++ == jumpAt_;
    }

  private:
    DecayDecisions() = default;

    Rng* rng_ = nullptr;
    std::vector<double>* asked_ = nullptr;
    unsigned jumpAt_ = kNoJump;
    unsigned calls_ = 0;
};

/**
 * What a trajectory damping channel did to the state.
 *
 * `applied` is false exactly when the channel was a no-op on this
 * state (zero probability, or no |1> population for the target
 * qubit) — in that case no RNG draw was consumed and the amplitudes
 * are untouched. `jumped` reports which Kraus branch fired when the
 * channel did act.
 */
struct DampingResult
{
    bool applied = false;
    bool jumped = false;
};

class StateVector
{
  public:
    /** Initialize @p num_qubits qubits in the |0...0> state. */
    explicit StateVector(unsigned num_qubits);

    /** Initialize in the computational basis state @p s. */
    StateVector(unsigned num_qubits, BasisState s);

    unsigned numQubits() const { return numQubits_; }
    std::size_t dim() const { return amps_.size(); }

    Amplitude amplitude(BasisState s) const { return amps_[s]; }
    void setAmplitude(BasisState s, Amplitude a) { amps_[s] = a; }

    /** All 2^n amplitudes, basis-state ordered. */
    std::span<const Amplitude> amplitudes() const { return amps_; }

    /** Overwrite every amplitude with @p amps (length dim()). */
    void assign(std::span<const Amplitude> amps);

    /** Reset to the basis state @p s. */
    void resetTo(BasisState s);

    /** @name Unitary application. */
    /// @{
    /** Apply an arbitrary 2x2 unitary to qubit @p q. */
    void applyMatrix1q(const Matrix2& m, Qubit q);

    /**
     * Apply an arbitrary 4x4 matrix where index bit 0 corresponds to
     * qubit @p q0 and index bit 1 to qubit @p q1.
     */
    void applyMatrix2q(const Matrix4& m, Qubit q0, Qubit q1);

    /** Fast paths for common gates. */
    void applyX(Qubit q);
    void applyZ(Qubit q);
    void applyH(Qubit q);
    void applyCX(Qubit control, Qubit target);
    void applyCZ(Qubit a, Qubit b);
    void applySwap(Qubit a, Qubit b);

    /**
     * Apply one unitary circuit operation (dispatches to the fast
     * paths; CCX is decomposed on the fly). Throws for non-unitary
     * operations.
     */
    void applyOperation(const Operation& op);
    /// @}

    /** @name Non-unitary primitives. */
    /// @{
    /**
     * Apply a single-qubit Kraus channel by trajectory sampling: one
     * Kraus operator is chosen with probability equal to the norm of
     * its (unnormalized) output state, applied, and the state is
     * renormalized.
     *
     * Branch norms are evaluated lazily: evaluation stops as soon as
     * the running cumulative covers the branch draw (for a
     * trace-preserving channel the norms sum to 1, so a
     * high-probability first branch — the identity Kraus of a weak
     * channel — costs one streaming pass instead of one per
     * operator). Exactly one uniform draw is consumed either way,
     * and renormalization is skipped when the chosen branch norm is
     * already 1 within rounding.
     *
     * @param kraus The Kraus operators; must satisfy
     *              sum_k K_k^dag K_k = I.
     * @param q Target qubit.
     * @param rng Random source deciding the trajectory branch.
     * @return Index of the Kraus operator that was applied.
     */
    std::size_t applyKraus1q(std::span<const Matrix2> kraus, Qubit q,
                             Rng& rng);

    /**
     * One trajectory step of the idle-decay channel on qubit @p q:
     * amplitude damping with decay probability @p gamma, then phase
     * damping with dephasing probability @p lambda, as one reduction
     * over the |1> population plus one write pass.
     *
     * Draws exactly what the two channels applied in sequence draw:
     * bernoulli(gamma * p1) only when gamma > 0 and p1 > 0, then
     * bernoulli(lambda * p1') only when lambda > 0 and p1' > 0,
     * where p1' = d1^2 * p1 is the |1> population after the
     * no-jump damping branch (derived, not re-read). Amplitudes
     * match the sequential application up to rounding.
     *
     * @return applied: either channel acted; jumped: either jump
     *         branch fired (see DampingResult).
     */
    DampingResult applyDecay(Qubit q, double gamma, double lambda,
                             Rng& rng)
    {
        DecayDecisions live(rng);
        return applyDecay(q, gamma, lambda, live);
    }

    /**
     * The arithmetic core of applyDecay(): the same step with each
     * jump decision taken from @p decisions (see DecayDecisions).
     * "Drew" above means "asked @p decisions".
     */
    DampingResult applyDecay(Qubit q, double gamma, double lambda,
                             DecayDecisions& decisions);

    /** applyDecay() with no dephasing: the amplitude-damping
     *  trajectory branch alone. */
    DampingResult applyAmplitudeDamping(Qubit q, double gamma,
                                        Rng& rng);

    /** applyDecay() with no decay: the phase-damping trajectory
     *  branch alone. */
    DampingResult applyPhaseDamping(Qubit q, double lambda, Rng& rng);

    /**
     * Projectively measure qubit @p q, collapse the state, and
     * renormalize.
     *
     * @return The measured bit.
     */
    bool measureQubit(Qubit q, Rng& rng);

    /** Collapse qubit @p q to @p value (projector + renormalize). */
    void collapseQubit(Qubit q, bool value);
    /// @}

    /** @name Probabilities and sampling. */
    /// @{
    /** Squared norm of the state (1 for any normalized state). */
    double norm() const;

    /** Rescale to unit norm; throws on a numerically null state. */
    void normalize();

    /** Probability that measuring everything yields @p s. */
    double probabilityOf(BasisState s) const;

    /** Probability that qubit @p q reads 1. */
    double probabilityOne(Qubit q) const;

    /** Full probability vector |amp|^2 over all basis states. */
    std::vector<double> probabilities() const;

    /** Sample one full-register measurement outcome. */
    BasisState sample(Rng& rng) const;

    /**
     * Sample @p shots outcomes. Builds a cumulative table once, so
     * this is the preferred path for repeated sampling.
     */
    std::vector<BasisState> sample(Rng& rng, std::size_t shots) const;

    /**
     * Buffer-reusing form of the batched sample(): the cumulative
     * table is built in @p cdf and the outcomes land in @p out
     * (both resized as needed), so a caller sampling from many
     * trajectory states in a loop allocates nothing after the first
     * iteration. Draw-for-draw identical to sample(rng, shots).
     */
    void sampleInto(Rng& rng, std::size_t shots,
                    std::vector<double>& cdf,
                    std::vector<BasisState>& out) const;
    /// @}

    /** Inner product <this|other>. */
    Amplitude innerProduct(const StateVector& other) const;

    /** |<this|other>|^2. */
    double fidelity(const StateVector& other) const;

  private:
    unsigned numQubits_;
    std::vector<Amplitude> amps_;
};

} // namespace qem

#endif // QEM_QSIM_STATEVECTOR_HH

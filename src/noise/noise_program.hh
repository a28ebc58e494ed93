/**
 * @file
 * Precompiled trajectory noise program.
 *
 * The trajectory hot loop used to re-derive everything per
 * trajectory: per-op GateNoise map lookups, T/TDG matrices for every
 * CCX decomposition, coherent-error RZ/RX matrices, and decay
 * gamma/lambda from (duration, T1, T2). A NoiseProgram lowers a
 * circuit ONCE against a NoiseModel and a TrajectoryOptions into a
 * flat step list: unitaries carry pre-evaluated matrices (or a
 * fast-path opcode), stochastic steps carry pre-resolved
 * probabilities, and steps that can never act (disabled by options,
 * zero probability, zero duration) are dropped at lowering time.
 *
 * Dropping inert steps is draw-for-draw safe: Rng::bernoulli consumes
 * nothing for p <= 0, and the damping channels consume nothing when
 * gamma/lambda <= 0 — exactly the cases the lowering omits — so a
 * lowered evolution consumes the rng stream bit-identically to the
 * un-lowered interpreter.
 *
 * Lowering also evolves the program's no-event path once: the
 * trajectory in which no gate error fires and no damping jump
 * happens. Up to its first noise event every trajectory follows that
 * path, so evolve() replays only the path's Bernoulli draws against
 * recorded thresholds, restores the nearest recorded checkpoint
 * state, re-applies the few deterministic steps up to the event and
 * continues live from there (see docs/noise_model.md, "No-event path
 * replay"). Draws and amplitudes are bit-identical to step-by-step
 * evolution.
 *
 * The program is immutable after lowering and evolve() keeps no
 * internal state, so one program can be shared by every worker
 * thread of the parallel runtime.
 */

#ifndef QEM_NOISE_NOISE_PROGRAM_HH
#define QEM_NOISE_NOISE_PROGRAM_HH

#include <cstdint>
#include <span>
#include <vector>

#include "noise/noise_model.hh"
#include "qsim/circuit.hh"
#include "qsim/statevector.hh"

namespace qem
{

/** Tuning knobs for the trajectory simulator. */
struct TrajectoryOptions
{
    /** Shots drawn from each sampled trajectory. */
    std::size_t shotsPerTrajectory = 16;
    /** Disable decoherence (gate depolarizing errors still apply). */
    bool enableDecay = true;
    /** Disable depolarizing gate errors (decay still applies). */
    bool enableGateErrors = true;
    /** Disable the readout confusion model (perfect measurement). */
    bool enableReadoutErrors = true;
    /** Disable systematic over-rotations (GateNoise::coherent*). */
    bool enableCoherentErrors = true;
    /**
     * Allow the single-trajectory shortcut when the lowered program
     * has no stochastic step (see NoiseProgram::stochastic()). Only
     * tests that want to compare the shortcut against the batched
     * estimator should turn this off.
     */
    bool deterministicFastPath = true;
};

/** One lowered step of the trajectory evolution. */
struct NoiseStep
{
    enum class Kind : std::uint8_t
    {
        // Unitary fast paths (StateVector specializations).
        X, Z, H, CX, CZ, SWAP,
        // Unitaries with a pre-evaluated matrix from the pool.
        MATRIX_1Q, MATRIX_2Q,
        // Stochastic processes with pre-resolved parameters.
        GATE_ERROR_1Q, GATE_ERROR_2Q, DECAY,
    };

    // Widest fields first, so a step packs into 32 bytes.
    /** errorProb for GATE_ERROR_*; decay gamma for DECAY. */
    double a = 0.0;
    /** dephasing lambda for DECAY. */
    double b = 0.0;
    Qubit q0 = 0;
    Qubit q1 = 0;
    /** Pool index for MATRIX_1Q / MATRIX_2Q. */
    std::uint32_t matrix = 0;
    Kind kind = Kind::X;
};

/** Stochastic-event tallies of one trajectory evolution. */
struct TrajectoryEvents
{
    std::uint64_t gateErrors = 0;
    /**
     * Decay steps where at least one damping channel actually acted
     * on the state (a DECAY step over a qubit with no |1>
     * population is a no-op and does not count).
     */
    std::uint64_t decayEvents = 0;
    /**
     * Steps this trajectory did not evolve because it restored
     * their result from the no-event path (a checkpoint, or the
     * final state of an event-free trajectory).
     */
    std::uint64_t replayedSteps = 0;
    /** No noise event happened: the final state was copied. */
    bool eventFree = false;
};

class NoiseProgram
{
  public:
    /**
     * Lower @p circuit (already compacted internally) against
     * @p model with the processes selected by @p options.
     *
     * @throws std::logic_error for RESET operations (unsupported by
     *         the trajectory method, reported at lowering time
     *         rather than mid-run).
     */
    static NoiseProgram lower(const Circuit& circuit,
                              const NoiseModel& model,
                              const TrajectoryOptions& options);

    /**
     * True when any stochastic step survived lowering. The inverse
     * is the fast-path predicate: a program with no effectively
     * enabled stochastic process (model AND options) evolves to the
     * same state every trajectory, so one trajectory serves every
     * shot.
     */
    bool stochastic() const { return stochastic_; }

    /**
     * Unitary source operations per trajectory (ID and CCX each
     * count once, matching the pre-lowering gate telemetry).
     */
    std::uint64_t gatesPerTrajectory() const { return gates_; }

    /** Compact register width the program evolves. */
    unsigned compactQubits() const { return compactQubits_; }

    /** active[i] = physical qubit held by compact qubit i. */
    const std::vector<Qubit>& active() const { return active_; }

    /** Number of lowered steps (inspection / tests). */
    std::size_t size() const { return steps_.size(); }

    /** The lowered steps and their matrix pools (inspection /
     *  tests: a step-by-step interpreter can run them). */
    const std::vector<NoiseStep>& steps() const { return steps_; }
    const Matrix2& matrix1q(std::uint32_t i) const { return pool1q_[i]; }
    const Matrix4& matrix2q(std::uint32_t i) const { return pool2q_[i]; }

    /**
     * States the no-event path keeps: its checkpoints, plus the
     * final state when the path reaches the end of the program (a
     * step whose event is certain ends it earlier). At most
     * kMaxCheckpoints + 1, and at most kMaxPathBytes of amplitudes.
     */
    std::size_t pathStates() const
    {
        return path_.checkpointSteps.size();
    }

    /** Resident bytes of the program, path states included. */
    std::size_t bytes() const;

    /**
     * Run one trajectory: @p state must be |0...0> over
     * compactQubits() on entry. Draws every stochastic decision
     * from @p rng, consuming the stream exactly as the un-lowered
     * interpreter would.
     */
    TrajectoryEvents evolve(StateVector& state, Rng& rng) const;

    /** Checkpoints the no-event path keeps at most (besides its
     *  final state). */
    static constexpr std::size_t kMaxCheckpoints = 4;
    /** Bytes of path states one program keeps at most. */
    static constexpr std::size_t kMaxPathBytes = std::size_t{1} << 20;

  private:
    /** The trajectory in which no noise event happens. */
    struct NoEventPath
    {
        /**
         * Every draw of the path, in stream order: its event
         * probability (>= 1: a certain event, which consumes no
         * draw), and where it is drawn, as step * 2 + slot, where
         * slot numbers the step's decide() calls (DECAY: 0 or 1).
         */
        std::vector<double> thresholds;
        std::vector<std::uint32_t> drawnAt;
        /**
         * Ascending step indices of the kept states: state i is
         * the path's state before step checkpointSteps[i] (never
         * step 0, whose state is the entry state). An entry equal
         * to size() is the final state.
         */
        std::vector<std::uint32_t> checkpointSteps;
        /** Applied DECAY steps before each kept state. */
        std::vector<std::uint32_t> checkpointDecays;
        /** The kept states, 2^compactQubits amplitudes each. */
        std::vector<Amplitude> states;
    };

    NoiseProgram() = default;

    void buildPath();
    void applyUnitary(const NoiseStep& s, StateVector& state) const;
    /**
     * Apply step @p s as the no-event path does; true when it was a
     * DECAY step that acted. Each event probability the step asks
     * is appended to @p asked when it is non-null.
     */
    bool applyNoEvent(const NoiseStep& s, StateVector& state,
                      std::vector<double>* asked = nullptr) const;
    std::span<const Amplitude> pathState(std::size_t i) const;

    std::vector<NoiseStep> steps_;
    std::vector<Matrix2> pool1q_;
    std::vector<Matrix4> pool2q_;
    std::vector<Qubit> active_;
    unsigned compactQubits_ = 0;
    std::uint64_t gates_ = 0;
    bool stochastic_ = false;
    NoEventPath path_;
};

} // namespace qem

#endif // QEM_NOISE_NOISE_PROGRAM_HH

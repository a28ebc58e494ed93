#include "noise/noise_program.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "noise/channels.hh"
#include "noise/compaction.hh"

namespace qem
{

namespace
{

/** The uniformly-random Pauli of a fired depolarizing branch. */
void
applyErrorPauli(StateVector& state, Qubit q, unsigned pauli)
{
    static const Matrix2 kPauliY = gateMatrix1q(GateKind::Y, {});
    switch (pauli) {
      case 1:
        state.applyX(q);
        break;
      case 2:
        state.applyMatrix1q(kPauliY, q);
        break;
      case 3:
        state.applyZ(q);
        break;
      default:
        break;
    }
}

/**
 * The error branch of a fired gate-error step: a uniformly random
 * Pauli (1q), or one of the 15 non-identity Pauli pairs, uniformly
 * (2q; charged once per gate, not per operand).
 */
void
applyGateError(const NoiseStep& s, StateVector& state, Rng& rng)
{
    if (s.kind == NoiseStep::Kind::GATE_ERROR_1Q) {
        applyErrorPauli(state, s.q0,
                        static_cast<unsigned>(rng.index(3)) + 1);
        return;
    }
    unsigned pauli_a = 0, pauli_b = 0;
    do {
        pauli_a = static_cast<unsigned>(rng.index(4));
        pauli_b = static_cast<unsigned>(rng.index(4));
    } while (pauli_a == 0 && pauli_b == 0);
    applyErrorPauli(state, s.q0, pauli_a);
    applyErrorPauli(state, s.q1, pauli_b);
}

} // namespace

NoiseProgram
NoiseProgram::lower(const Circuit& circuit, const NoiseModel& model,
                    const TrajectoryOptions& options)
{
    NoiseProgram p;
    const CompactCircuit compact = compactCircuit(circuit);
    p.active_ = compact.active;
    p.compactQubits_ = compact.compactQubits;

    // Matrices are interned: the T/TDG pair of every CCX and the
    // per-qubit coherent rotations collapse to one pool entry each.
    auto intern1q = [&p](const Matrix2& m) {
        for (std::size_t i = 0; i < p.pool1q_.size(); ++i)
            if (p.pool1q_[i] == m)
                return static_cast<std::uint32_t>(i);
        p.pool1q_.push_back(m);
        return static_cast<std::uint32_t>(p.pool1q_.size() - 1);
    };
    auto intern2q = [&p](const Matrix4& m) {
        for (std::size_t i = 0; i < p.pool2q_.size(); ++i)
            if (p.pool2q_[i] == m)
                return static_cast<std::uint32_t>(i);
        p.pool2q_.push_back(m);
        return static_cast<std::uint32_t>(p.pool2q_.size() - 1);
    };

    auto emit1 = [&p](NoiseStep::Kind kind, Qubit q) {
        NoiseStep s;
        s.kind = kind;
        s.q0 = q;
        p.steps_.push_back(s);
    };
    auto emit2 = [&p](NoiseStep::Kind kind, Qubit q0, Qubit q1) {
        NoiseStep s;
        s.kind = kind;
        s.q0 = q0;
        s.q1 = q1;
        p.steps_.push_back(s);
    };
    auto emitMatrix1q = [&](const Matrix2& m, Qubit q) {
        NoiseStep s;
        s.kind = NoiseStep::Kind::MATRIX_1Q;
        s.q0 = q;
        s.matrix = intern1q(m);
        p.steps_.push_back(s);
    };

    // Lower one source unitary, mirroring the dispatch (and, for
    // CCX, the inline decomposition) of StateVector::applyOperation
    // so the evolved amplitudes are bit-identical.
    auto emitUnitary = [&](const Operation& op) {
        using K = NoiseStep::Kind;
        switch (op.kind) {
          case GateKind::ID:
            return;
          case GateKind::X:
            emit1(K::X, op.qubits[0]);
            return;
          case GateKind::Z:
            emit1(K::Z, op.qubits[0]);
            return;
          case GateKind::H:
            emit1(K::H, op.qubits[0]);
            return;
          case GateKind::CX:
            emit2(K::CX, op.qubits[0], op.qubits[1]);
            return;
          case GateKind::CZ:
            emit2(K::CZ, op.qubits[0], op.qubits[1]);
            return;
          case GateKind::SWAP:
            emit2(K::SWAP, op.qubits[0], op.qubits[1]);
            return;
          case GateKind::CCX: {
            // Standard Toffoli decomposition into H/T/CX; T and TDG
            // are evaluated once here instead of six-plus times per
            // trajectory.
            const Qubit a = op.qubits[0];
            const Qubit b = op.qubits[1];
            const Qubit c = op.qubits[2];
            const Matrix2 t = gateMatrix1q(GateKind::T, {});
            const Matrix2 tdg = gateMatrix1q(GateKind::TDG, {});
            emit1(K::H, c);
            emit2(K::CX, b, c);
            emitMatrix1q(tdg, c);
            emit2(K::CX, a, c);
            emitMatrix1q(t, c);
            emit2(K::CX, b, c);
            emitMatrix1q(tdg, c);
            emit2(K::CX, a, c);
            emitMatrix1q(t, b);
            emitMatrix1q(t, c);
            emit1(K::H, c);
            emit2(K::CX, a, b);
            emitMatrix1q(t, a);
            emitMatrix1q(tdg, b);
            emit2(K::CX, a, b);
            return;
          }
          default:
            break;
        }
        if (!isUnitary(op.kind))
            throw std::invalid_argument("NoiseProgram: non-unitary "
                                        "operation");
        emitMatrix1q(gateMatrix1q(op.kind, op.params), op.qubits[0]);
    };

    // A decay step survives lowering only when it could ever draw:
    // decay enabled, positive duration, and a nonzero gamma or
    // lambda. The omitted cases consume no rng either way.
    auto emitDecay = [&](Qubit q, Qubit phys, double duration_ns) {
        if (!options.enableDecay || duration_ns <= 0.0)
            return;
        const double gamma =
            decayProbability(duration_ns, model.t1(phys));
        const double lambda = dephasingProbability(
            duration_ns, model.t1(phys), model.t2(phys));
        if (gamma <= 0.0 && lambda <= 0.0)
            return;
        NoiseStep s;
        s.kind = NoiseStep::Kind::DECAY;
        s.q0 = q;
        s.a = gamma;
        s.b = lambda;
        p.steps_.push_back(s);
        p.stochastic_ = true;
    };

    for (const CompactOp& cop : compact.ops) {
        const Operation& op = cop.op;
        switch (op.kind) {
          case GateKind::MEASURE:
          case GateKind::BARRIER:
            continue;
          case GateKind::DELAY:
            emitDecay(op.qubits[0], cop.phys[0], op.params[0]);
            continue;
          case GateKind::RESET:
            throw std::logic_error("TrajectorySimulator: RESET "
                                   "is not supported");
          default:
            break;
        }
        ++p.gates_;
        emitUnitary(op);

        GateNoise noise;
        if (cop.phys.size() == 1) {
            noise = model.gate1q(cop.phys[0]);
            if (options.enableGateErrors && noise.errorProb > 0.0) {
                NoiseStep s;
                s.kind = NoiseStep::Kind::GATE_ERROR_1Q;
                s.q0 = op.qubits[0];
                s.a = noise.errorProb;
                p.steps_.push_back(s);
                p.stochastic_ = true;
            }
        } else {
            if (cop.phys.size() == 2 &&
                model.hasGate2q(cop.phys[0], cop.phys[1])) {
                noise = model.gate2q(cop.phys[0], cop.phys[1]);
            }
            if (options.enableGateErrors && noise.errorProb > 0.0) {
                NoiseStep s;
                s.kind = NoiseStep::Kind::GATE_ERROR_2Q;
                s.q0 = op.qubits[0];
                s.q1 = op.qubits[1];
                s.a = noise.errorProb;
                p.steps_.push_back(s);
                p.stochastic_ = true;
            }
        }

        if (options.enableCoherentErrors) {
            for (Qubit q : op.qubits) {
                if (noise.coherentZ != 0.0) {
                    emitMatrix1q(gateMatrix1q(GateKind::RZ,
                                              {noise.coherentZ}),
                                 q);
                }
                if (noise.coherentX != 0.0) {
                    emitMatrix1q(gateMatrix1q(GateKind::RX,
                                              {noise.coherentX}),
                                 q);
                }
            }
            if (op.qubits.size() == 2 && noise.coherentZZ != 0.0) {
                // exp(-i theta/2 Z(x)Z): diagonal phases by the
                // parity of the operand pair.
                const double t = noise.coherentZZ / 2.0;
                const Amplitude even{std::cos(t), -std::sin(t)};
                const Amplitude odd{std::cos(t), std::sin(t)};
                const Matrix4 zz = {even, 0, 0, 0,
                                    0, odd, 0, 0,
                                    0, 0, odd, 0,
                                    0, 0, 0, even};
                NoiseStep s;
                s.kind = NoiseStep::Kind::MATRIX_2Q;
                s.q0 = op.qubits[0];
                s.q1 = op.qubits[1];
                s.matrix = intern2q(zz);
                p.steps_.push_back(s);
            }
        }

        for (std::size_t i = 0; i < cop.phys.size(); ++i)
            emitDecay(op.qubits[i], cop.phys[i], noise.durationNs);
    }
    p.buildPath();
    return p;
}

void
NoiseProgram::applyUnitary(const NoiseStep& s, StateVector& state) const
{
    switch (s.kind) {
      case NoiseStep::Kind::X:
        state.applyX(s.q0);
        break;
      case NoiseStep::Kind::Z:
        state.applyZ(s.q0);
        break;
      case NoiseStep::Kind::H:
        state.applyH(s.q0);
        break;
      case NoiseStep::Kind::CX:
        state.applyCX(s.q0, s.q1);
        break;
      case NoiseStep::Kind::CZ:
        state.applyCZ(s.q0, s.q1);
        break;
      case NoiseStep::Kind::SWAP:
        state.applySwap(s.q0, s.q1);
        break;
      case NoiseStep::Kind::MATRIX_1Q:
        state.applyMatrix1q(pool1q_[s.matrix], s.q0);
        break;
      case NoiseStep::Kind::MATRIX_2Q:
        state.applyMatrix2q(pool2q_[s.matrix], s.q0, s.q1);
        break;
      default:
        break;
    }
}

bool
NoiseProgram::applyNoEvent(const NoiseStep& s, StateVector& state,
                           std::vector<double>* asked) const
{
    switch (s.kind) {
      case NoiseStep::Kind::GATE_ERROR_1Q:
      case NoiseStep::Kind::GATE_ERROR_2Q:
        if (asked != nullptr)
            asked->push_back(s.a);
        return false;
      case NoiseStep::Kind::DECAY: {
        DecayDecisions none =
            DecayDecisions::scripted(DecayDecisions::kNoJump, asked);
        return state.applyDecay(s.q0, s.a, s.b, none).applied;
      }
      default:
        applyUnitary(s, state);
        return false;
    }
}

std::span<const Amplitude>
NoiseProgram::pathState(std::size_t i) const
{
    const std::size_t dim = std::size_t{1} << compactQubits_;
    return std::span<const Amplitude>(path_.states).subspan(i * dim,
                                                            dim);
}

void
NoiseProgram::buildPath()
{
    // Pass 1: walk the no-event path, recording each draw's exact
    // threshold. A DECAY step's thresholds (gamma * p1, then
    // lambda * p1') depend on the state, so they come from the same
    // arithmetic core the live step runs, with every decision
    // answered "no jump". A threshold >= 1 is an event every
    // trajectory takes, so the path ends there (the state pass 1
    // leaves behind is then unused).
    StateVector state(compactQubits_);
    std::vector<double> asked;
    std::uint32_t decays = 0;
    bool complete = true;
    for (std::size_t i = 0; i < steps_.size() && complete; ++i) {
        asked.clear();
        if (applyNoEvent(steps_[i], state, &asked))
            ++decays;
        for (std::size_t slot = 0; slot < asked.size(); ++slot) {
            // A threshold <= 0 draws nothing and never fires.
            if (asked[slot] <= 0.0)
                continue;
            path_.thresholds.push_back(asked[slot]);
            path_.drawnAt.push_back(
                static_cast<std::uint32_t>(i * 2 + slot));
            if (asked[slot] >= 1.0) {
                complete = false;
                break;
            }
        }
    }

    // How many states the path may keep: the final state first
    // (every event-free trajectory copies it), then checkpoints.
    const std::size_t dim = std::size_t{1} << compactQubits_;
    std::size_t budget = std::min(
        kMaxCheckpoints + 1, kMaxPathBytes / (dim * sizeof(Amplitude)));
    const bool keepFinal = complete && budget > 0;
    if (keepFinal)
        --budget;

    // Checkpoints sit at quantiles of the first-event step,
    // conditioned on an event inside the path: a trajectory whose
    // first event lies between two checkpoints re-applies only the
    // steps since the earlier one.
    std::vector<double> firstEvent;
    firstEvent.reserve(path_.thresholds.size());
    double survive = 1.0;
    for (const double threshold : path_.thresholds) {
        const double t = threshold < 1.0 ? threshold : 1.0;
        firstEvent.push_back(survive * t);
        survive *= 1.0 - t;
    }
    const double eventMass = 1.0 - survive;
    double cumulative = 0.0;
    std::size_t next = 0;
    for (std::size_t k = 1; k <= budget && eventMass > 0.0; ++k) {
        const double quantile = eventMass * static_cast<double>(k) /
                                static_cast<double>(budget + 1);
        while (next < firstEvent.size() &&
               cumulative + firstEvent[next] < quantile)
            cumulative += firstEvent[next++];
        if (next == firstEvent.size())
            break;
        const std::uint32_t step = path_.drawnAt[next] / 2;
        if (step > 0 && (path_.checkpointSteps.empty() ||
                         path_.checkpointSteps.back() < step))
            path_.checkpointSteps.push_back(step);
    }

    // Pass 2: re-walk the path up to its last checkpoint. The
    // checkpoint states, then pass 1's final state, share one
    // buffer.
    const auto keep = [this](const StateVector& sv) {
        const std::span<const Amplitude> amps = sv.amplitudes();
        path_.states.insert(path_.states.end(), amps.begin(),
                            amps.end());
    };
    path_.states.reserve(
        (path_.checkpointSteps.size() + (keepFinal ? 1 : 0)) * dim);
    StateVector walk(compactQubits_);
    std::uint32_t walked = 0;
    std::size_t i = 0;
    for (std::uint32_t step : path_.checkpointSteps) {
        for (; i < step; ++i)
            walked += applyNoEvent(steps_[i], walk) ? 1 : 0;
        keep(walk);
        path_.checkpointDecays.push_back(walked);
    }
    if (keepFinal) {
        keep(state);
        path_.checkpointSteps.push_back(
            static_cast<std::uint32_t>(steps_.size()));
        path_.checkpointDecays.push_back(decays);
    }
}

std::size_t
NoiseProgram::bytes() const
{
    return sizeof(NoiseProgram) +
           steps_.capacity() * sizeof(NoiseStep) +
           pool1q_.capacity() * sizeof(Matrix2) +
           pool2q_.capacity() * sizeof(Matrix4) +
           active_.capacity() * sizeof(Qubit) +
           path_.thresholds.capacity() * sizeof(double) +
           (path_.drawnAt.capacity() + path_.checkpointSteps.capacity() +
            path_.checkpointDecays.capacity()) *
               sizeof(std::uint32_t) +
           path_.states.capacity() * sizeof(Amplitude);
}

TrajectoryEvents
NoiseProgram::evolve(StateVector& state, Rng& rng) const
{
    TrajectoryEvents ev;
    // Replay the path's draws until one fires. Rng::bernoulli is
    // the very call the live steps make, so the stream advances
    // exactly as step-by-step evolution would. Running out of draws
    // (only a path that reaches the end can) means no event: the
    // trajectory is the path's final state, at step size().
    const std::vector<double>& thresholds = path_.thresholds;
    std::size_t d = 0;
    while (d < thresholds.size() && !rng.bernoulli(thresholds[d]))
        ++d;
    const bool eventFree = d == thresholds.size();
    const std::size_t eventStep =
        eventFree ? steps_.size() : path_.drawnAt[d] / 2;

    // Restore the nearest kept state at or before the event step
    // (none: the entry state |0...0> is step 0's), then re-apply
    // the deterministic steps up to the event.
    const std::vector<std::uint32_t>& kept = path_.checkpointSteps;
    std::size_t c = kept.size();
    while (c > 0 && kept[c - 1] > eventStep)
        --c;
    std::size_t i = 0;
    if (c > 0) {
        state.assign(pathState(c - 1));
        i = kept[c - 1];
        ev.decayEvents = path_.checkpointDecays[c - 1];
        ev.replayedSteps = i;
    }
    for (; i < eventStep; ++i) {
        if (applyNoEvent(steps_[i], state))
            ++ev.decayEvents;
    }
    if (eventFree) {
        ev.eventFree = true;
        return ev;
    }

    // The event step, with the outcome the replay already drew.
    const NoiseStep& hit = steps_[eventStep];
    if (hit.kind == NoiseStep::Kind::DECAY) {
        DecayDecisions scripted =
            DecayDecisions::scripted(path_.drawnAt[d] % 2);
        if (state.applyDecay(hit.q0, hit.a, hit.b, scripted).applied)
            ++ev.decayEvents;
    } else {
        ++ev.gateErrors;
        applyGateError(hit, state, rng);
    }

    for (i = eventStep + 1; i < steps_.size(); ++i) {
        const NoiseStep& s = steps_[i];
        switch (s.kind) {
          case NoiseStep::Kind::GATE_ERROR_1Q:
          case NoiseStep::Kind::GATE_ERROR_2Q:
            if (rng.bernoulli(s.a)) {
                ++ev.gateErrors;
                applyGateError(s, state, rng);
            }
            break;
          case NoiseStep::Kind::DECAY: {
            DecayDecisions live(rng);
            if (state.applyDecay(s.q0, s.a, s.b, live).applied)
                ++ev.decayEvents;
            break;
          }
          default:
            applyUnitary(s, state);
            break;
        }
    }
    return ev;
}

} // namespace qem

#include "noise/noise_program.hh"

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
    return p;
}

TrajectoryEvents
NoiseProgram::evolve(StateVector& state, Rng& rng) const
{
    TrajectoryEvents ev;
    for (const NoiseStep& s : steps_) {
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
          case NoiseStep::Kind::GATE_ERROR_1Q:
            // Uniformly random Pauli error (depolarizing,
            // trajectory form).
            if (rng.bernoulli(s.a)) {
                ++ev.gateErrors;
                applyErrorPauli(
                    state, s.q0,
                    static_cast<unsigned>(rng.index(3)) + 1);
            }
            break;
          case NoiseStep::Kind::GATE_ERROR_2Q:
            // Two-qubit depolarizing: one of the 15 non-identity
            // Pauli pairs, uniformly. (Charged once per gate, not
            // per operand.)
            if (rng.bernoulli(s.a)) {
                ++ev.gateErrors;
                unsigned pauli_a = 0, pauli_b = 0;
                do {
                    pauli_a = static_cast<unsigned>(rng.index(4));
                    pauli_b = static_cast<unsigned>(rng.index(4));
                } while (pauli_a == 0 && pauli_b == 0);
                applyErrorPauli(state, s.q0, pauli_a);
                applyErrorPauli(state, s.q1, pauli_b);
            }
            break;
          case NoiseStep::Kind::DECAY:
            if (state.applyDecay(s.q0, s.a, s.b, rng).applied)
                ++ev.decayEvents;
            break;
        }
    }
    return ev;
}

} // namespace qem

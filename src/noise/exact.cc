#include "noise/exact.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "noise/channels.hh"
#include "noise/compaction.hh"
#include "qsim/bitstring.hh"

namespace qem
{

DensityMatrixSimulator::DensityMatrixSimulator(NoiseModel model,
                                               std::uint64_t seed)
    : model_(std::move(model)), rng_(seed)
{
}

std::vector<double>
DensityMatrixSimulator::observedDistribution(
    const Circuit& circuit) const
{
    if (circuit.numQubits() > model_.numQubits())
        throw std::invalid_argument("DensityMatrixSimulator: circuit "
                                    "wider than the machine");
    if (!circuit.hasMeasurements())
        throw std::invalid_argument("DensityMatrixSimulator: circuit "
                                    "has no measurements");

    const CompactCircuit compiled = compactCircuit(circuit);
    if (compiled.compactQubits > maxDensityMatrixQubits)
        throw std::invalid_argument("DensityMatrixSimulator: too "
                                    "many active qubits for exact "
                                    "treatment");
    const std::vector<Qubit> measured = circuit.measuredQubits();
    if (compiled.compactQubits + measured.size() > 22)
        throw std::invalid_argument("DensityMatrixSimulator: "
                                    "confusion enumeration too "
                                    "large");

    DensityMatrix rho(compiled.compactQubits);
    auto decay = [&](Qubit compact, Qubit phys, double duration) {
        if (duration <= 0.0)
            return;
        for (const KrausChannel& ch : thermalRelaxation(
                 duration, model_.t1(phys), model_.t2(phys))) {
            rho.applyKraus1q(ch, compact);
        }
    };

    for (const CompactOp& cop : compiled.ops) {
        const Operation& op = cop.op;
        switch (op.kind) {
          case GateKind::MEASURE:
          case GateKind::BARRIER:
            continue;
          case GateKind::DELAY:
            decay(op.qubits[0], cop.phys[0], op.params[0]);
            continue;
          case GateKind::RESET:
            throw std::logic_error("DensityMatrixSimulator: RESET "
                                   "is not supported");
          default:
            break;
        }
        rho.applyOperation(op);
        GateNoise noise;
        if (cop.phys.size() == 1) {
            noise = model_.gate1q(cop.phys[0]);
            if (noise.errorProb > 0.0) {
                rho.applyKraus1q(depolarizing(noise.errorProb),
                                 op.qubits[0]);
            }
        } else if (cop.phys.size() == 2) {
            if (model_.hasGate2q(cop.phys[0], cop.phys[1]))
                noise = model_.gate2q(cop.phys[0], cop.phys[1]);
            rho.applyTwoQubitDepolarizing(op.qubits[0],
                                          op.qubits[1],
                                          noise.errorProb);
        }
        // Systematic over-rotations, mirroring the trajectory
        // simulator's convention.
        for (Qubit q : op.qubits) {
            if (noise.coherentZ != 0.0) {
                rho.applyUnitary1q(
                    gateMatrix1q(GateKind::RZ, {noise.coherentZ}),
                    q);
            }
            if (noise.coherentX != 0.0) {
                rho.applyUnitary1q(
                    gateMatrix1q(GateKind::RX, {noise.coherentX}),
                    q);
            }
        }
        if (op.qubits.size() == 2 && noise.coherentZZ != 0.0) {
            const double t = noise.coherentZZ / 2.0;
            const Amplitude even{std::cos(t), -std::sin(t)};
            const Amplitude odd{std::cos(t), std::sin(t)};
            const Matrix4 zz = {even, 0, 0, 0,
                                0, odd, 0, 0,
                                0, 0, odd, 0,
                                0, 0, 0, even};
            rho.applyUnitary2q(zz, op.qubits[0], op.qubits[1]);
        }
        for (std::size_t i = 0; i < cop.phys.size(); ++i)
            decay(op.qubits[i], cop.phys[i], noise.durationNs);
    }

    // Exact readout confusion: push every true state's probability
    // through the per-qubit flip model onto classical outcomes.
    const std::vector<double> truth_probs = rho.probabilities();
    std::vector<double> observed(
        std::size_t{1} << circuit.numClbits(), 0.0);
    const ReadoutModel* readout = model_.readout();
    const std::size_t obs_count = std::size_t{1} << measured.size();

    for (BasisState compact = 0; compact < truth_probs.size();
         ++compact) {
        const double pt = truth_probs[compact];
        if (pt <= 0.0)
            continue;
        const BasisState truth =
            expandCompactState(compact, compiled.active);
        if (!readout) {
            observed[circuit.classicalOutcome(truth)] += pt;
            continue;
        }
        // Enumerate observed patterns over the measured qubits.
        for (std::size_t pattern = 0; pattern < obs_count;
             ++pattern) {
            BasisState obs_state = truth;
            double p = pt;
            for (std::size_t b = 0; b < measured.size(); ++b) {
                const Qubit q = measured[b];
                const bool tv = getBit(truth, q);
                const bool ov = (pattern >> b) & 1U;
                const double pflip =
                    readout->flipProbability(q, tv, truth);
                p *= (tv == ov) ? (1.0 - pflip) : pflip;
                obs_state = setBit(obs_state, q, ov);
            }
            if (p > 0.0)
                observed[circuit.classicalOutcome(obs_state)] += p;
        }
    }
    return observed;
}

Counts
DensityMatrixSimulator::run(const Circuit& circuit,
                            std::size_t shots)
{
    const std::vector<double> dist =
        observedDistribution(circuit);
    // Multinomial draw via the cumulative distribution.
    std::vector<double> cdf(dist.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < dist.size(); ++i) {
        acc += dist[i];
        cdf[i] = acc;
    }
    std::vector<BasisState> outcomes(shots);
    for (BasisState& outcome : outcomes) {
        const double r = rng_.uniform() * acc;
        const auto it =
            std::upper_bound(cdf.begin(), cdf.end(), r);
        outcome = static_cast<BasisState>(std::min<std::size_t>(
            it - cdf.begin(), cdf.size() - 1));
    }
    return Counts::fromOutcomes(circuit.numClbits(),
                                std::move(outcomes));
}

} // namespace qem

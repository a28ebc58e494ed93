#include "qsim/simulator.hh"

#include <stdexcept>
#include <utility>

#include "qsim/bitstring.hh"

namespace qem
{

IdealSimulator::IdealSimulator(unsigned num_qubits, std::uint64_t seed)
    : numQubits_(num_qubits), rng_(seed)
{
}

StateVector
IdealSimulator::stateOf(const Circuit& circuit) const
{
    if (circuit.numQubits() > numQubits_)
        throw std::invalid_argument("IdealSimulator: circuit wider than "
                                    "the backend register");
    StateVector state(circuit.numQubits());
    for (const Operation& op : circuit.ops()) {
        switch (op.kind) {
          case GateKind::MEASURE:
          case GateKind::BARRIER:
          case GateKind::DELAY:
            break;
          case GateKind::RESET:
            throw std::logic_error("IdealSimulator::stateOf: RESET not "
                                   "supported in pre-measurement "
                                   "evolution");
          default:
            state.applyOperation(op);
            break;
        }
    }
    return state;
}

Counts
IdealSimulator::run(const Circuit& circuit, std::size_t shots)
{
    return run(circuit, shots, rng_);
}

Counts
IdealSimulator::run(const Circuit& circuit, std::size_t shots,
                    Rng& rng) const
{
    if (!circuit.hasMeasurements())
        throw std::invalid_argument("IdealSimulator::run: circuit has "
                                    "no measurements");
    const StateVector state = stateOf(circuit);
    std::vector<BasisState> outcomes = state.sample(rng, shots);
    for (BasisState& outcome : outcomes)
        outcome = circuit.classicalOutcome(outcome);
    return Counts::fromOutcomes(circuit.numClbits(),
                                std::move(outcomes));
}

namespace
{

/** Ideal circuit lowered to (final state, measurement projection). */
class CompiledIdealRun final : public ShardedBackend::CompiledRun
{
  public:
    CompiledIdealRun(StateVector state, unsigned num_clbits,
                     std::vector<std::pair<Qubit, Clbit>> outcome_map)
        : state_(std::move(state)),
          numClbits_(num_clbits),
          outcomeMap_(std::move(outcome_map))
    {
    }

    Counts run(std::size_t shots, Rng& rng) const override
    {
        std::vector<double> cdf;
        std::vector<BasisState> samples;
        state_.sampleInto(rng, shots, cdf, samples);
        for (BasisState& sample : samples) {
            BasisState out = 0;
            for (const auto& [qubit, cbit] : outcomeMap_)
                out = setBit(out, cbit, getBit(sample, qubit));
            sample = out;
        }
        return Counts::fromOutcomes(numClbits_, std::move(samples));
    }

    std::size_t bytes() const override
    {
        return sizeof(*this) + state_.dim() * sizeof(Amplitude) +
               outcomeMap_.capacity() * sizeof(outcomeMap_[0]);
    }

  private:
    StateVector state_;
    unsigned numClbits_;
    std::vector<std::pair<Qubit, Clbit>> outcomeMap_;
};

} // namespace

std::shared_ptr<const ShardedBackend::CompiledRun>
IdealSimulator::compile(const Circuit& circuit) const
{
    if (!circuit.hasMeasurements())
        throw std::invalid_argument("IdealSimulator::compile: circuit "
                                    "has no measurements");
    std::vector<std::pair<Qubit, Clbit>> outcomeMap;
    for (const Operation& op : circuit.ops()) {
        if (op.kind == GateKind::MEASURE)
            outcomeMap.emplace_back(op.qubits[0], op.cbit);
    }
    return std::make_shared<CompiledIdealRun>(stateOf(circuit),
                                              circuit.numClbits(),
                                              std::move(outcomeMap));
}

} // namespace qem

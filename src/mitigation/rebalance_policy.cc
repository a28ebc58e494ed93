#include "mitigation/rebalance_policy.hh"

#include <stdexcept>
#include <vector>

#include "qsim/bitstring.hh"
#include "qsim/statevector.hh"
#include "telemetry/telemetry.hh"

namespace qem
{

namespace
{

/**
 * Most likely noise-free outcome of @p circuit, over the classical
 * register; ties break toward the numerically lowest state.
 * (Deliberately local: qem_verify links against this library, so
 * the oracle's idealDistribution cannot be reused here without a
 * dependency cycle.)
 */
BasisState
mostLikelyIdealOutcome(const Circuit& circuit)
{
    IdealSimulator sim(circuit.numQubits());
    const StateVector state = sim.stateOf(circuit);
    const std::vector<double> probs = state.probabilities();
    std::vector<double> outcome_probs(
        std::size_t{1} << circuit.numClbits(), 0.0);
    for (BasisState s = 0; s < probs.size(); ++s) {
        if (probs[s] > 0.0)
            outcome_probs[circuit.classicalOutcome(s)] += probs[s];
    }
    BasisState best = 0;
    for (BasisState s = 1; s < outcome_probs.size(); ++s) {
        if (outcome_probs[s] > outcome_probs[best])
            best = s;
    }
    return best;
}

} // namespace

RebalancePolicy::RebalancePolicy(
    std::shared_ptr<const RbmsEstimate> rbms,
    RebalanceOptions options)
    : rbms_(std::move(rbms)), options_(options)
{
    if (!rbms_)
        throw std::invalid_argument("Rebalance: null RBMS profile");
}

InversionString
RebalancePolicy::prefixFor(BasisState predicted,
                           const RbmsEstimate& rbms)
{
    return (predicted ^ rbms.strongestState()) &
           allOnes(rbms.numBits());
}

Counts
RebalancePolicy::execute(const Circuit& circuit, Backend& backend,
                         std::size_t shots)
{
    const std::vector<Qubit> measured = circuit.measuredQubits();
    const unsigned bits = static_cast<unsigned>(measured.size());
    if (bits == 0)
        throw std::invalid_argument("Rebalance: circuit has no "
                                    "measurements");
    if (rbms_->numBits() != bits)
        throw std::invalid_argument("Rebalance: RBMS profile width "
                                    "does not match the circuit's "
                                    "output");
    if (shots == 0)
        throw std::invalid_argument("Rebalance: zero shots");

    telemetry::SpanTracer::Scope policySpan =
        telemetry::span("rebalance.run");

    // Classical prediction, no canary budget spent: the likely
    // outcome comes from software knowledge of the program, by
    // default its noise-free statevector.
    {
        telemetry::SpanTracer::Scope s =
            telemetry::span("rebalance.predict");
        lastPredicted_ = options_.predictFromIdeal
                             ? mostLikelyIdealOutcome(circuit)
                             : options_.predictedOutcome;
        lastPredicted_ &= allOnes(bits);
    }
    const InversionString prefix =
        prefixFor(lastPredicted_, *rbms_);

    // The whole budget runs in the single tailored mode. A
    // salvaged (partial) mode cannot bias a one-mode histogram, but
    // under-budget logs still break the shot accounting every
    // verification check assumes, so runModePlan refuses it too.
    ModePlan plan{{prefix, shots}};
    Counts merged = runModePlan(circuit, backend, plan, "rebalance");
    lastPlan_ = std::move(plan);

    telemetry::count("policy.rebalance.runs");
    telemetry::count("policy.rebalance.shots", merged.total());
    return merged;
}

} // namespace qem

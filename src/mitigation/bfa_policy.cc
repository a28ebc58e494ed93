#include "mitigation/bfa_policy.hh"

#include <stdexcept>

#include "mitigation/matrix_correction.hh"
#include "qsim/bitstring.hh"
#include "qsim/rng.hh"
#include "telemetry/telemetry.hh"

namespace qem
{

BitFlipAveragePolicy::BitFlipAveragePolicy(BfaOptions options)
    : options_(std::move(options))
{
    for (double rate : options_.symmetrizedRates) {
        if (rate < 0.0 || rate >= 0.5) {
            throw std::invalid_argument(
                "BFA: symmetrized rates must be in [0, 0.5) — at "
                "0.5 the symmetric confusion matrix is singular");
        }
    }
}

std::vector<InversionString>
BitFlipAveragePolicy::twirlStrings(unsigned bits,
                                   const BfaOptions& options)
{
    if (options.numGroups == 0)
        return {InversionString{0}};
    const Rng parent(options.twirlSeed);
    std::vector<InversionString> strings;
    strings.reserve(options.numGroups);
    for (unsigned g = 0; g < options.numGroups; ++g)
        strings.push_back(parent.splitAt(g).bits() & allOnes(bits));
    return strings;
}

Counts
BitFlipAveragePolicy::execute(const Circuit& circuit,
                              Backend& backend, std::size_t shots)
{
    const std::vector<Qubit> measured = circuit.measuredQubits();
    const unsigned bits = static_cast<unsigned>(measured.size());
    const unsigned clbits = circuit.numClbits();
    if (bits == 0)
        throw std::invalid_argument("BFA: circuit has no "
                                    "measurements");
    if (!options_.symmetrizedRates.empty()) {
        if (options_.symmetrizedRates.size() != clbits) {
            throw std::invalid_argument(
                "BFA: symmetrized rates must be sized to the "
                "classical register");
        }
        if (clbits > 20) {
            throw std::invalid_argument(
                "BFA: output register too wide to densify for "
                "rate unfolding");
        }
    }

    telemetry::SpanTracer::Scope policySpan =
        telemetry::span("bfa.run");

    lastTwirlPlan_.clear();
    ModePlan plan = evenPlan(twirlStrings(bits, options_), shots);
    Counts merged = runModePlan(circuit, backend, plan, "bfa");
    lastTwirlPlan_ = std::move(plan);
    lastTwirledCounts_ = merged;

    telemetry::count("policy.bfa.runs");
    telemetry::count("policy.bfa.shots", merged.total());
    telemetry::count("policy.bfa.twirl_strings_applied",
                     lastTwirlPlan_.size());
    if (options_.symmetrizedRates.empty()) {
        lastPlan_ = lastTwirlPlan_;
        return merged;
    }

    // Rate unfolding: the twirl has symmetrized each bit's channel
    // to rate p_i, so the tensored inverse with p01 = p10 = p_i
    // removes the residual (now state-independent) flip noise.
    telemetry::SpanTracer::Scope s =
        telemetry::span("bfa.unfold");
    const std::vector<double> corrected = invertTensoredConfusion(
        merged.toProbabilityVector(), options_.symmetrizedRates,
        options_.symmetrizedRates);
    return roundCorrectedDistribution(corrected, clbits, shots);
}

} // namespace qem

#include "mitigation/bfa_policy.hh"

#include <bit>
#include <stdexcept>

#include "mitigation/matrix_correction.hh"
#include "qsim/bitstring.hh"
#include "qsim/rng.hh"
#include "runtime/batch_attempt.hh"
#include "telemetry/telemetry.hh"

namespace qem
{

BitFlipAveragePolicy::BitFlipAveragePolicy(
    BfaOptions options,
    std::shared_ptr<const std::vector<InversionString>>
        twirl_strings)
    : options_(std::move(options)), strings_(std::move(twirl_strings))
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

ModePlan
BitFlipAveragePolicy::twirlPlan(unsigned bits, std::size_t shots,
                                const BfaOptions& options)
{
    const std::vector<InversionString> strings =
        twirlStrings(bits, options);
    if (shots < strings.size())
        throw std::invalid_argument("BFA: fewer shots than twirl "
                                    "groups");
    ModePlan plan;
    plan.reserve(strings.size());
    const std::size_t per_mode = shots / strings.size();
    std::size_t leftover = shots % strings.size();
    for (InversionString inv : strings) {
        std::size_t share = per_mode;
        if (leftover > 0) {
            ++share;
            --leftover;
        }
        plan.push_back({inv, share});
    }
    return plan;
}

ModePlan
BitFlipAveragePolicy::lastPlan() const
{
    // With rate unfolding, the returned log is not a mixture of
    // per-mode relabelings (the tensored inverse mixes outcomes
    // across the whole histogram), so per the MitigationPolicy
    // contract there is no replayable plan to report.
    if (unfolded_)
        return {};
    return lastTwirlPlan_;
}

Counts
BitFlipAveragePolicy::run(const Circuit& circuit, Backend& backend,
                          std::size_t shots)
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

    ModePlan plan;
    if (strings_) {
        // Precomputed (cached) twirl set: must be exactly what the
        // seeded draw would produce, or the run is not reproducible
        // from (seed, groups, width) as documented.
        if (*strings_ != twirlStrings(bits, options_)) {
            throw std::invalid_argument(
                "BFA: supplied twirl strings do not match the "
                "(seed, groups, width) draw");
        }
        if (shots < strings_->size())
            throw std::invalid_argument("BFA: fewer shots than "
                                        "twirl groups");
        plan.reserve(strings_->size());
        const std::size_t per_mode = shots / strings_->size();
        std::size_t leftover = shots % strings_->size();
        for (InversionString inv : *strings_) {
            std::size_t share = per_mode;
            if (leftover > 0) {
                ++share;
                --leftover;
            }
            plan.push_back({inv, share});
        }
    } else {
        plan = twirlPlan(bits, shots, options_);
    }

    Counts merged(clbits);
    for (const ModeShare& mode : plan) {
        Counts observed(clbits);
        {
            telemetry::SpanTracer::Scope s =
                telemetry::span("bfa.shot_batches");
            observed = backend.run(
                applyInversion(circuit, mode.inversion), mode.shots);
        }
        // Same refusal as SIM: merging a salvaged (partial) group
        // would bias the twirl average toward the groups that
        // completed.
        if (observed.total() != mode.shots) {
            throw BudgetExhausted(
                "BFA: twirl group returned " +
                std::to_string(observed.total()) + " of " +
                std::to_string(mode.shots) +
                " trials; refusing to merge partial-group data");
        }
        telemetry::count(
            "policy.bfa.correction_bitflips",
            static_cast<std::uint64_t>(
                std::popcount(mode.inversion)) *
                observed.total());
        merged.merge(correctInversion(observed, mode.inversion));
    }
    lastTwirlPlan_ = std::move(plan);
    lastTwirledCounts_ = merged;
    unfolded_ = !options_.symmetrizedRates.empty();

    telemetry::count("policy.bfa.runs");
    telemetry::count("policy.bfa.shots", merged.total());
    telemetry::count("policy.bfa.twirl_strings_applied",
                     lastTwirlPlan_.size());
    if (!unfolded_)
        return merged;

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

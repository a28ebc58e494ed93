#include "mitigation/sim_policy.hh"

#include <bit>
#include <sstream>
#include <stdexcept>

#include "runtime/batch_attempt.hh"
#include "telemetry/telemetry.hh"

namespace qem
{

StaticInvertAndMeasure::StaticInvertAndMeasure(
    std::vector<InversionString> strings)
    : strings_(std::move(strings))
{
}

StaticInvertAndMeasure
StaticInvertAndMeasure::twoMode(unsigned bits)
{
    return StaticInvertAndMeasure(twoModeStrings(bits));
}

StaticInvertAndMeasure
StaticInvertAndMeasure::fourMode(unsigned bits)
{
    return StaticInvertAndMeasure(fourModeStrings(bits));
}

StaticInvertAndMeasure
StaticInvertAndMeasure::multiMode(unsigned bits, unsigned k)
{
    return StaticInvertAndMeasure(multiModeStrings(bits, k));
}

std::vector<InversionString>
StaticInvertAndMeasure::stringsFor(unsigned bits) const
{
    if (!strings_.empty())
        return strings_;
    return fourModeStrings(bits);
}

Counts
StaticInvertAndMeasure::run(const Circuit& circuit, Backend& backend,
                            std::size_t shots)
{
    const std::vector<Qubit> measured = circuit.measuredQubits();
    if (measured.empty())
        throw std::invalid_argument("SIM: circuit has no "
                                    "measurements");
    const std::vector<InversionString> strings =
        stringsFor(static_cast<unsigned>(measured.size()));
    if (shots < strings.size())
        throw std::invalid_argument("SIM: fewer shots than "
                                    "measurement modes");

    telemetry::SpanTracer::Scope policySpan =
        telemetry::span("sim.run");

    Counts merged(circuit.numClbits());
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
        Counts observed(circuit.numClbits());
        {
            telemetry::SpanTracer::Scope s =
                telemetry::span("sim.shot_batches");
            observed =
                backend.run(applyInversion(circuit, inv), share);
        }
        // Each mode carries 1/k of the budget; merging a salvaged
        // (partial) mode would bias the histogram toward the modes
        // that completed. Refuse instead of degrading silently.
        if (observed.total() != share) {
            throw BudgetExhausted(
                "SIM: mode returned " +
                std::to_string(observed.total()) + " of " +
                std::to_string(share) +
                " trials; refusing to merge partial-mode data");
        }
        {
            telemetry::SpanTracer::Scope s =
                telemetry::span("sim.post_correct");
            // Every set mask bit is one classical bit-flip per
            // observed trial during post-correction.
            telemetry::count(
                "policy.sim.correction_bitflips",
                static_cast<std::uint64_t>(std::popcount(inv)) *
                    observed.total());
            merged.merge(correctInversion(observed, inv));
        }
        plan.push_back({inv, share});
    }
    lastPlan_ = std::move(plan);

    // Counted on completion, from the merged log, so aborted runs
    // never overcount shots in manifests.
    telemetry::count("policy.sim.runs");
    telemetry::count("policy.sim.shots", merged.total());
    telemetry::count("policy.sim.inversion_strings_applied",
                     strings.size());
    return merged;
}

std::string
StaticInvertAndMeasure::name() const
{
    if (strings_.empty())
        return "SIM";
    std::ostringstream os;
    os << "SIM-" << strings_.size();
    return os.str();
}

} // namespace qem

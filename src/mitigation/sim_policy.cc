#include "mitigation/sim_policy.hh"

#include <sstream>
#include <stdexcept>

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
StaticInvertAndMeasure::execute(const Circuit& circuit,
                                Backend& backend, std::size_t shots)
{
    const std::vector<Qubit> measured = circuit.measuredQubits();
    if (measured.empty())
        throw std::invalid_argument("SIM: circuit has no "
                                    "measurements");
    ModePlan plan = evenPlan(
        stringsFor(static_cast<unsigned>(measured.size())), shots);

    telemetry::SpanTracer::Scope policySpan =
        telemetry::span("sim.run");
    Counts merged = runModePlan(circuit, backend, plan, "sim");
    lastPlan_ = std::move(plan);

    // Counted on completion, from the merged log, so aborted runs
    // never overcount shots in manifests.
    telemetry::count("policy.sim.runs");
    telemetry::count("policy.sim.shots", merged.total());
    telemetry::count("policy.sim.inversion_strings_applied",
                     lastPlan_.size());
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

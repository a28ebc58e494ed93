#include "mitigation/policy.hh"

#include <bit>
#include <stdexcept>

#include "runtime/batch_attempt.hh"
#include "telemetry/telemetry.hh"

namespace qem
{

Counts
BaselinePolicy::execute(const Circuit& circuit, Backend& backend,
                        std::size_t shots)
{
    Counts counts = backend.run(circuit, shots);
    lastPlan_ = {{InversionString{0}, shots}};
    return counts;
}

ModePlan
evenPlan(const std::vector<InversionString>& strings,
         std::size_t shots)
{
    if (strings.empty() || shots < strings.size())
        throw std::invalid_argument("evenPlan: fewer shots than "
                                    "modes");
    const std::size_t per_mode = shots / strings.size();
    const std::size_t leftover = shots % strings.size();
    ModePlan plan;
    plan.reserve(strings.size());
    for (std::size_t i = 0; i < strings.size(); ++i)
        plan.push_back({strings[i], per_mode + (i < leftover)});
    return plan;
}

Counts
runModePlan(const Circuit& circuit, Backend& backend,
            const ModePlan& plan, const std::string& tag)
{
    const std::string batchSpan = tag + ".shot_batches";
    const std::string correctSpan = tag + ".post_correct";
    const std::string bitflips =
        "policy." + tag + ".correction_bitflips";
    Counts merged(circuit.numClbits());
    for (const ModeShare& mode : plan) {
        if (mode.shots == 0)
            continue;
        const Counts observed = [&] {
            telemetry::SpanTracer::Scope s = telemetry::span(batchSpan);
            return backend.run(applyInversion(circuit, mode.inversion),
                               mode.shots);
        }();
        if (observed.total() != mode.shots) {
            throw BudgetExhausted(
                tag + ": mode returned " +
                std::to_string(observed.total()) + " of " +
                std::to_string(mode.shots) +
                " trials; refusing to merge partial-mode data");
        }
        telemetry::SpanTracer::Scope s = telemetry::span(correctSpan);
        telemetry::count(bitflips,
                         static_cast<std::uint64_t>(
                             std::popcount(mode.inversion)) *
                             observed.total());
        // The first merged mode is moved in rather than merged
        // into an empty log.
        Counts corrected = correctInversion(observed, mode.inversion);
        if (merged.total() == 0)
            merged = std::move(corrected);
        else
            merged.merge(corrected);
    }
    return merged;
}

} // namespace qem

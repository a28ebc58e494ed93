#include "mitigation/aim_policy.hh"

#include <algorithm>
#include <stdexcept>

#include "mitigation/sim_policy.hh"
#include "telemetry/telemetry.hh"

namespace qem
{

AdaptiveInvertAndMeasure::AdaptiveInvertAndMeasure(
    std::shared_ptr<const RbmsEstimate> rbms, AimOptions options)
    : rbms_(std::move(rbms)), options_(options)
{
    if (!rbms_)
        throw std::invalid_argument("AIM: null RBMS profile");
    if (options_.canaryFraction <= 0.0 ||
        options_.canaryFraction >= 1.0) {
        throw std::invalid_argument("AIM: canary fraction must be in "
                                    "(0, 1)");
    }
    if (options_.numCandidates == 0)
        throw std::invalid_argument("AIM: need at least one "
                                    "candidate");
}

Counts
AdaptiveInvertAndMeasure::execute(const Circuit& circuit,
                                  Backend& backend,
                                  std::size_t shots)
{
    const std::vector<Qubit> measured = circuit.measuredQubits();
    const unsigned bits = static_cast<unsigned>(measured.size());
    if (bits == 0)
        throw std::invalid_argument("AIM: circuit has no "
                                    "measurements");
    if (rbms_->numBits() != bits)
        throw std::invalid_argument("AIM: RBMS profile width does "
                                    "not match the circuit's output");

    telemetry::SpanTracer::Scope policySpan =
        telemetry::span("aim.run");

    // Phase 1 -- canary trials under the four static modes, to
    // observe the output distribution with global bias averaged out.
    // The canary budget needs one trial per static mode plus at
    // least one tailored trial, so fewer than 5 shots cannot be
    // clamped into a valid [4, shots - 1] split.
    if (shots < 5) {
        throw std::invalid_argument("AIM: need at least 5 shots "
                                    "(4 canary modes + 1 tailored "
                                    "trial)");
    }
    std::size_t canary_shots = static_cast<std::size_t>(
        options_.canaryFraction * static_cast<double>(shots));
    canary_shots =
        std::clamp<std::size_t>(canary_shots, 4, shots - 1);
    telemetry::SpanTracer::Scope canarySpan =
        telemetry::span("aim.canary");
    StaticInvertAndMeasure canary_policy =
        StaticInvertAndMeasure::fourMode(bits);
    const Counts canary =
        canary_policy.run(circuit, backend, canary_shots);
    canarySpan = {};

    // Phase 2 -- likelihoods: L_i = observed frequency divided by
    // measurement strength (Equation 1), then keep the top K.
    std::vector<std::pair<double, BasisState>> ranked;
    ranked.reserve(canary.distinct());
    for (const auto& [outcome, n] : canary.raw()) {
        const double l = static_cast<double>(n) /
                         rbms_->strength(outcome);
        ranked.emplace_back(l, outcome);
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) {
                  if (a.first != b.first)
                      return a.first > b.first;
                  return a.second < b.second;
              });
    lastCandidates_.clear();
    std::vector<double> likelihoods;
    for (const auto& [l, outcome] : ranked) {
        if (lastCandidates_.size() >= options_.numCandidates)
            break;
        lastCandidates_.push_back(outcome);
        likelihoods.push_back(l);
    }
    if (lastCandidates_.empty()) {
        lastCandidates_.push_back(0);
        likelihoods.push_back(1.0);
    }

    // Phase 3 -- tailored inversion strings: XOR each candidate
    // onto the machine's strongest state. (The XOR map is a
    // bijection, so distinct candidates give distinct strings.)
    // Budget per string: proportional to candidate likelihood, or
    // uniform when weighting is disabled; the rounding remainder
    // goes to the most likely candidate.
    const BasisState strongest = rbms_->strongestState();
    const std::size_t remaining = shots - canary_shots;
    double total_l = 0.0;
    for (double l : likelihoods)
        total_l += l;
    ModePlan tailored;
    tailored.reserve(lastCandidates_.size());
    std::size_t assigned = 0;
    for (std::size_t i = 0; i < lastCandidates_.size(); ++i) {
        const std::size_t share =
            options_.weightedAllocation
                ? static_cast<std::size_t>(
                      static_cast<double>(remaining) *
                      likelihoods[i] / total_l)
                : remaining / lastCandidates_.size();
        tailored.push_back({lastCandidates_[i] ^ strongest, share});
        assigned += share;
    }
    tailored[0].shots += remaining - assigned;
    std::erase_if(tailored,
                  [](const ModeShare& m) { return m.shots == 0; });

    telemetry::SpanTracer::Scope bulkSpan =
        telemetry::span("aim.tailored");
    Counts merged = runModePlan(circuit, backend, tailored, "aim");
    merged.merge(canary);
    lastPlan_ = canary_policy.lastPlan();
    lastPlan_.insert(lastPlan_.end(), tailored.begin(),
                     tailored.end());

    // Counted on completion, from observed totals, so aborted runs
    // never overcount shots in manifests.
    telemetry::count("policy.aim.runs");
    telemetry::count("policy.aim.inversion_strings_applied",
                     tailored.size());
    telemetry::count("policy.aim.canary_shots", canary.total());
    telemetry::count("policy.aim.bulk_shots",
                     merged.total() - canary.total());
    return merged;
}

} // namespace qem

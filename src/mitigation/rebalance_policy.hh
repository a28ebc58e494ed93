/**
 * @file
 * Readout Rebalancing (Hicks et al., arXiv:2010.07496): data-free
 * AIM.
 *
 * Rebalancing picks one X-prefix per run so that the outcome the
 * program is *expected* to produce is read out of the machine's
 * strongest basis state. It reuses AIM's phase-3 machinery — XOR the
 * predicted output onto RbmsEstimate::strongestState() — but skips
 * the canary phase entirely: the prediction comes from classical
 * knowledge (by default the noise-free statevector of the physical
 * program), so every trial of the budget runs in the single tailored
 * mode. Against Hamming-monotone bias this recovers most of AIM's
 * win for free; against ambiguous outputs (e.g. the two QAOA
 * partitions) it can only protect one of them, which is exactly the
 * regime where AIM's sampled canary earns its 25% budget tax.
 */

#ifndef QEM_MITIGATION_REBALANCE_POLICY_HH
#define QEM_MITIGATION_REBALANCE_POLICY_HH

#include <memory>

#include "mitigation/policy.hh"
#include "mitigation/rbms.hh"

namespace qem
{

/** Rebalancing knobs. */
struct RebalanceOptions
{
    /**
     * Derive the likely outcome from the ideal (noise-free)
     * statevector of the circuit being run — the "software-only
     * knowledge" configuration of the Rebalancing paper. When
     * false, @ref predictedOutcome is used verbatim.
     */
    bool predictFromIdeal = true;
    /** Explicit likely outcome (ignored while predictFromIdeal). */
    BasisState predictedOutcome = 0;
};

class RebalancePolicy : public MitigationPolicy
{
  public:
    /**
     * @param rbms Machine profile over the program's output bits
     *        (same contract as AIM's: width must match the
     *        circuit's measured register).
     */
    explicit RebalancePolicy(
        std::shared_ptr<const RbmsEstimate> rbms,
        RebalanceOptions options = {});

    std::string name() const override { return "Rebalance"; }

    /**
     * The X-prefix steering @p predicted onto @p rbms's strongest
     * state — the single inversion string a Rebalance run executes.
     * Shared with ExactOracle::rebalancePlan so the policy and its
     * analytic prediction can never drift apart.
     */
    static InversionString prefixFor(BasisState predicted,
                                     const RbmsEstimate& rbms);

    /** The outcome the last run() predicted (diagnostics/tests). */
    BasisState lastPredicted() const { return lastPredicted_; }

    const RbmsEstimate& rbms() const { return *rbms_; }

  private:
    /**
     * One mode carrying the whole budget. Per the MitigationPolicy
     * contract the recorded inversion string is the *physical*
     * prefix (predicted XOR strongest), not the logical identity
     * the post-corrected log exhibits — holdout replay through the
     * plan must prepare the basis states the hardware actually
     * read.
     */
    Counts execute(const Circuit& circuit, Backend& backend,
                   std::size_t shots) override;

    std::shared_ptr<const RbmsEstimate> rbms_;
    RebalanceOptions options_;
    BasisState lastPredicted_ = 0;
};

} // namespace qem

#endif // QEM_MITIGATION_REBALANCE_POLICY_HH

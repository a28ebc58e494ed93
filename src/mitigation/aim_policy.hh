/**
 * @file
 * Adaptive Invert-and-Measure (AIM), Section 6.
 *
 * AIM spends a fraction of the trial budget on "canary" trials run
 * under SIM's four static modes, rescales the observed outcome
 * frequencies by the machine's inverse measurement strength (RBMS)
 * to form likelihoods L_i, picks the top-K likely outputs, and runs
 * the remaining budget with tailored inversion strings that map each
 * predicted output onto the machine's strongest state. Unlike SIM,
 * AIM exploits arbitrary (non-Hamming-monotone) bias, which is what
 * the ibmqx4-class machines exhibit.
 */

#ifndef QEM_MITIGATION_AIM_POLICY_HH
#define QEM_MITIGATION_AIM_POLICY_HH

#include <memory>

#include "mitigation/policy.hh"
#include "mitigation/rbms.hh"

namespace qem
{

/** AIM tuning parameters (paper defaults). */
struct AimOptions
{
    /** Fraction of trials used as canaries (paper: 25%). */
    double canaryFraction = 0.25;
    /** Number of predicted outputs K (paper: K=4). */
    unsigned numCandidates = 4;
    /**
     * Split the tailored budget across candidates proportionally
     * to their likelihoods L_i rather than uniformly. When the
     * canary phase identifies the output with high confidence
     * (e.g. BV), nearly the whole budget then runs in the one mode
     * that reads the strongest state; ambiguous outputs (e.g. the
     * two QAOA partitions) still share it.
     */
    bool weightedAllocation = true;
};

class AdaptiveInvertAndMeasure : public MitigationPolicy
{
  public:
    /**
     * @param rbms Machine profile over the program's output bits
     *        (from characterizeAuto on the measured physical
     *        qubits); must cover exactly as many bits as the target
     *        circuit measures.
     * @param options Canary fraction and candidate count.
     */
    explicit AdaptiveInvertAndMeasure(
        std::shared_ptr<const RbmsEstimate> rbms,
        AimOptions options = {});

    std::string name() const override { return "AIM"; }

    const RbmsEstimate& rbms() const { return *rbms_; }

    /**
     * The candidate outputs chosen during the last run(), most
     * likely first (diagnostics / tests).
     */
    const std::vector<BasisState>& lastCandidates() const
    {
        return lastCandidates_;
    }

  private:
    /**
     * The canary phase runs through a four-mode
     * StaticInvertAndMeasure; the tailored modes through
     * runModePlan. lastPlan() is the realized split: the four
     * canary modes followed by the tailored modes with their
     * likelihood-weighted shares. Because the tailored strings and
     * weights depend on the sampled canary log, this plan is a
     * per-run observation — the verification oracle conditions on
     * it rather than re-deriving it.
     */
    Counts execute(const Circuit& circuit, Backend& backend,
                   std::size_t shots) override;

    std::shared_ptr<const RbmsEstimate> rbms_;
    AimOptions options_;
    std::vector<BasisState> lastCandidates_;
};

} // namespace qem

#endif // QEM_MITIGATION_AIM_POLICY_HH

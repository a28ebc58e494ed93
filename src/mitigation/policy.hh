/**
 * @file
 * Measurement-mitigation policy interface, the baseline policy, and
 * the mode-plan executor every inversion policy runs through.
 *
 * A policy decides how to spend a trial budget on (possibly
 * rewritten) executions of one physical circuit, and how to combine
 * the observed logs into a single corrected output log. Policies are
 * written against the abstract Backend, so they are oblivious to
 * whether trials run on the trajectory simulator or real hardware.
 *
 * SIM, AIM's tailored phase, BFA and Rebalance differ only in the
 * ModePlan they build; runModePlan() executes, checks, corrects and
 * merges the modes of any plan.
 */

#ifndef QEM_MITIGATION_POLICY_HH
#define QEM_MITIGATION_POLICY_HH

#include <string>
#include <vector>

#include "mitigation/inversion.hh"
#include "qsim/circuit.hh"
#include "qsim/counts.hh"
#include "qsim/simulator.hh"

namespace qem
{

class MitigationPolicy
{
  public:
    virtual ~MitigationPolicy() = default;

    /**
     * Execute @p circuit for a total of @p shots trials under this
     * policy and return the merged, post-corrected output log.
     * Clears lastPlan() first, so a run that throws leaves no plan
     * behind.
     */
    Counts run(const Circuit& circuit, Backend& backend,
               std::size_t shots)
    {
        lastPlan_.clear();
        return execute(circuit, backend, shots);
    }

    /** Display name ("Baseline", "SIM", "AIM", ...). */
    virtual std::string name() const = 0;

    /**
     * The (inversion string, trials) modes the most recent run()
     * executed, in order — what the verification oracle replays to
     * compute the analytic distribution the merged log should match.
     * Empty when the policy has not run, when its last run threw,
     * or when its correction is not a per-mode relabeling (e.g. the
     * matrix-inversion comparator, or BFA with rate unfolding,
     * whose output is not a mixture of mode logs).
     *
     * Contract: each mode's inversion string is the *physical*
     * rewrite the hardware executed — the X-prefix actually applied
     * before measurement — never the logical identity the
     * post-corrected log exhibits. Consumers that replay plans
     * against the machine (RbmsStalenessProbe's holdout replay, the
     * oracle's planDistribution) prepare the basis states the
     * readout actually saw; a policy that relabels outcomes (e.g.
     * Rebalance steering the predicted output onto the strong
     * state) must therefore report the applied prefix, not 0.
     */
    const ModePlan& lastPlan() const { return lastPlan_; }

  protected:
    /** Set by execute() once every mode has merged. */
    ModePlan lastPlan_;

  private:
    /** The policy proper, called by run() with lastPlan() empty. */
    virtual Counts execute(const Circuit& circuit, Backend& backend,
                           std::size_t shots) = 0;
};

/** The paper's baseline: every trial measured as-is. */
class BaselinePolicy : public MitigationPolicy
{
  public:
    std::string name() const override { return "Baseline"; }

  private:
    /**
     * One uninverted mode carrying the whole budget. A salvaged
     * partial log is returned as is: with a single mode there is
     * nothing for it to bias.
     */
    Counts execute(const Circuit& circuit, Backend& backend,
                   std::size_t shots) override;
};

/**
 * Split @p shots evenly over @p strings: every mode gets the floor
 * share and the leftover goes one extra trial each to the earliest
 * modes. Throws std::invalid_argument when @p strings is empty or
 * there are fewer shots than strings.
 */
ModePlan evenPlan(const std::vector<InversionString>& strings,
                  std::size_t shots);

/**
 * Execute every mode of @p plan in order: run @p circuit rewritten
 * by applyInversion, correct the observed log with
 * correctInversion, and merge. Zero-share modes are skipped. A mode
 * that returns fewer trials than its share (a salvaged partial run)
 * throws BudgetExhausted instead of merging, since it would bias
 * the mixture toward the modes that completed.
 *
 * @p tag names the telemetry: spans "<tag>.shot_batches" and
 * "<tag>.post_correct" per mode, and the counter
 * "policy.<tag>.correction_bitflips" (one per set mask bit per
 * observed trial).
 */
Counts runModePlan(const Circuit& circuit, Backend& backend,
                   const ModePlan& plan, const std::string& tag);

} // namespace qem

#endif // QEM_MITIGATION_POLICY_HH

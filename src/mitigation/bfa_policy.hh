/**
 * @file
 * Bit-Flip Averaging (Smith et al., arXiv:2106.05800).
 *
 * BFA splits the trial budget into shot groups, draws one random
 * X-twirl string per group (seeded, via Rng::splitAt, so the strings
 * are reproducible and order-independent), executes each group with
 * the twirl applied before measurement, and flips the observed
 * outcomes back classically. Averaged over twirls, each qubit's
 * asymmetric readout channel is symmetrized to a single bit-flip
 * rate p_i = (p01_i + p10_i) / 2 — state-dependent bias is converted
 * into state-independent noise. When the symmetrized rates are
 * supplied, a tensored inverse (the 2x2 symmetric confusion matrix
 * per bit) then unfolds that residual noise from the histogram.
 *
 * Twirling reuses the SIM inversion-string machinery verbatim: a
 * twirl string IS an inversion string, applied and post-corrected
 * the same way; BFA simply draws the strings at random instead of
 * from the Hamming-spread fixed sets.
 */

#ifndef QEM_MITIGATION_BFA_POLICY_HH
#define QEM_MITIGATION_BFA_POLICY_HH

#include <cstdint>
#include <vector>

#include "mitigation/policy.hh"

namespace qem
{

/** Bit-Flip Averaging knobs. */
struct BfaOptions
{
    /**
     * Shot groups, one random twirl string each. Zero disables
     * twirling entirely (single identity-string group — the run is
     * then bit-for-bit the baseline when no rates are set).
     */
    unsigned numGroups = 8;

    /**
     * Seed of the twirl-string stream. Group g's string is drawn
     * from Rng(twirlSeed).splitAt(g), so the set is a pure function
     * of (seed, group count, register width) — independent of
     * thread count, call order, and every other draw in the run.
     */
    std::uint64_t twirlSeed = 2106;

    /**
     * Per-clbit symmetrized flip rates p_i = (p01_i + p10_i) / 2,
     * sized numClbits (zero for unmeasured clbits). Empty = twirl
     * only: return the post-flipped merged log without unfolding.
     */
    std::vector<double> symmetrizedRates;
};

class BitFlipAveragePolicy : public MitigationPolicy
{
  public:
    explicit BitFlipAveragePolicy(BfaOptions options = {});

    std::string name() const override { return "BFA"; }

    /**
     * The twirl modes the last run() executed, always available.
     * lastPlan() holds the same modes only while no symmetrized
     * rates are configured: with rates set, the merged log is the
     * tensored inverse of the twirl mixture, NOT a per-mode
     * relabeling, so lastPlan() is {} per the MitigationPolicy
     * contract.
     */
    const ModePlan& lastTwirlPlan() const { return lastTwirlPlan_; }

    /**
     * Merged post-flipped log before rate unfolding — the mixture
     * the twirl plan predicts, and the multinomial the oracle
     * G-tests against. Identical to run()'s result when no rates
     * are set.
     */
    const Counts& lastTwirledCounts() const
    {
        return lastTwirledCounts_;
    }

    const std::vector<double>& symmetrizedRates() const
    {
        return options_.symmetrizedRates;
    }

    /**
     * The twirl-string set for a @p bits -wide output register:
     * string g = low bits of Rng(options.twirlSeed).splitAt(g).
     * numGroups == 0 yields the single identity string.
     */
    static std::vector<InversionString>
    twirlStrings(unsigned bits, const BfaOptions& options);

  private:
    /** evenPlan over the twirl strings, run by runModePlan, then
     *  the optional rate unfolding. */
    Counts execute(const Circuit& circuit, Backend& backend,
                   std::size_t shots) override;

    BfaOptions options_;
    ModePlan lastTwirlPlan_;
    Counts lastTwirledCounts_;
};

} // namespace qem

#endif // QEM_MITIGATION_BFA_POLICY_HH

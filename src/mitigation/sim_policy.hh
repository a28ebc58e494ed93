/**
 * @file
 * Static Invert-and-Measure (SIM), Section 5.
 *
 * Splits the trial budget over a fixed set of inversion strings and
 * merges the post-corrected logs. With the default four strings
 * (none / full / even-bit / odd-bit inversion) the effective readout
 * error of any state approaches the average over its four images,
 * removing the worst-case penalty of reading a vulnerable state —
 * with no knowledge of the application or the machine.
 */

#ifndef QEM_MITIGATION_SIM_POLICY_HH
#define QEM_MITIGATION_SIM_POLICY_HH

#include <vector>

#include "mitigation/inversion.hh"
#include "mitigation/policy.hh"

namespace qem
{

class StaticInvertAndMeasure : public MitigationPolicy
{
  public:
    /**
     * @param strings Explicit inversion strings. Empty (default)
     *        means "the paper's four-mode set", instantiated per
     *        circuit width at run time.
     */
    explicit StaticInvertAndMeasure(
        std::vector<InversionString> strings = {});

    /** Convenience factories. */
    static StaticInvertAndMeasure twoMode(unsigned bits);
    static StaticInvertAndMeasure fourMode(unsigned bits);
    static StaticInvertAndMeasure multiMode(unsigned bits,
                                            unsigned k);

    std::string name() const override;

  private:
    /** evenPlan over the strings, executed by runModePlan. */
    Counts execute(const Circuit& circuit, Backend& backend,
                   std::size_t shots) override;

    /** Strings to use for a circuit with @p bits output bits. */
    std::vector<InversionString> stringsFor(unsigned bits) const;

    std::vector<InversionString> strings_;
};

} // namespace qem

#endif // QEM_MITIGATION_SIM_POLICY_HH

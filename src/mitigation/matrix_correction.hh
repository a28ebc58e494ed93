/**
 * @file
 * Tensored measurement-matrix inversion: the classical
 * post-processing comparator to Invert-and-Measure.
 *
 * This is the family of techniques (Qiskit measurement filters,
 * TREX, M3) that calibrates per-qubit confusion matrices and applies
 * their inverse to the observed distribution. It is a *software*
 * correction: unlike SIM/AIM it never changes what basis state the
 * hardware reads, so correlated (state-dependent) readout errors —
 * which the tensored calibration cannot see — remain uncorrected,
 * and the inversion can amplify shot noise. The ablation bench
 * compares it head-to-head with SIM/AIM.
 */

#ifndef QEM_MITIGATION_MATRIX_CORRECTION_HH
#define QEM_MITIGATION_MATRIX_CORRECTION_HH

#include "mitigation/policy.hh"

namespace qem
{

class MatrixInversionCorrection : public MitigationPolicy
{
  public:
    /**
     * @param calibration_shots Trials per calibration circuit (two
     *        circuits: all-zeros and all-ones prep).
     */
    explicit MatrixInversionCorrection(
        std::size_t calibration_shots = 8192);

    std::string name() const override { return "MatrixInv"; }

  private:
    /**
     * Calibrate per-qubit confusion on the circuit's measured
     * qubits, run the full budget in the standard mode, and return
     * the inverse-confusion-corrected log (clipped to nonnegative
     * and renormalized, rounded back to integer counts).
     */
    Counts execute(const Circuit& circuit, Backend& backend,
                   std::size_t shots) override;

    std::size_t calibrationShots_;
};

/**
 * Apply per-bit inverse confusion matrices to a dense probability
 * vector (bit i uses rates @p p01 [i], @p p10 [i]). Exposed for
 * testing; negative probabilities produced by the inversion are NOT
 * clipped here.
 */
std::vector<double> invertTensoredConfusion(
    std::vector<double> probs, const std::vector<double>& p01,
    const std::vector<double>& p10);

/**
 * Clip negative entries to zero and renormalize to unit sum — the
 * standard practical repair for quasi-probabilities produced by
 * confusion-matrix inversion. Returns an all-zeros vector when the
 * clipped sum is nonpositive.
 */
std::vector<double> clipAndRenormalize(std::vector<double> probs);

/**
 * Round a corrected quasi-probability vector back to an integer
 * output log of (approximately) @p shots trials: clip, renormalize,
 * then per-outcome llround. Shared by MatrixInversionCorrection and
 * BitFlipAveragePolicy so the two unfolding paths stay bit-identical.
 */
Counts roundCorrectedDistribution(const std::vector<double>& corrected,
                                  unsigned bits, std::size_t shots);

} // namespace qem

#endif // QEM_MITIGATION_MATRIX_CORRECTION_HH

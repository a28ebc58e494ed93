#include "mitigation/matrix_correction.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "qsim/bitstring.hh"

namespace qem
{

MatrixInversionCorrection::MatrixInversionCorrection(
    std::size_t calibration_shots)
    : calibrationShots_(calibration_shots)
{
    if (calibration_shots == 0)
        throw std::invalid_argument("MatrixInversionCorrection: zero "
                                    "calibration shots");
}

std::vector<double>
invertTensoredConfusion(std::vector<double> probs,
                        const std::vector<double>& p01,
                        const std::vector<double>& p10)
{
    if (p01.size() != p10.size())
        throw std::invalid_argument("invertTensoredConfusion: rate "
                                    "size mismatch");
    if (probs.size() != (std::size_t{1} << p01.size()))
        throw std::invalid_argument("invertTensoredConfusion: vector "
                                    "size is not 2^bits");
    for (std::size_t bit = 0; bit < p01.size(); ++bit) {
        const double det = 1.0 - p01[bit] - p10[bit];
        if (std::abs(det) < 1e-9)
            throw std::invalid_argument("invertTensoredConfusion: "
                                        "singular confusion matrix");
        // Inverse of [[1-p01, p10], [p01, 1-p10]] / det.
        const double i00 = (1.0 - p10[bit]) / det;
        const double i01 = -p10[bit] / det;
        const double i10 = -p01[bit] / det;
        const double i11 = (1.0 - p01[bit]) / det;
        const std::size_t stride = std::size_t{1} << bit;
        for (std::size_t base = 0; base < probs.size();
             base += 2 * stride) {
            for (std::size_t i = base; i < base + stride; ++i) {
                const double q0 = probs[i];
                const double q1 = probs[i + stride];
                probs[i] = i00 * q0 + i01 * q1;
                probs[i + stride] = i10 * q0 + i11 * q1;
            }
        }
    }
    return probs;
}

Counts
MatrixInversionCorrection::execute(const Circuit& circuit,
                                   Backend& backend,
                                   std::size_t shots)
{
    const std::vector<Qubit> measured = circuit.measuredQubits();
    const unsigned bits = circuit.numClbits();
    if (measured.empty())
        throw std::invalid_argument("MatrixInversionCorrection: "
                                    "circuit has no measurements");
    if (bits > 20)
        throw std::invalid_argument("MatrixInversionCorrection: "
                                    "output register too wide to "
                                    "densify");

    // Calibration: all-zeros prep gives p01, all-ones prep gives
    // p10 per classical bit (identity rates for unused clbits).
    Circuit zeros(backend.numQubits(), static_cast<int>(bits));
    Circuit ones(backend.numQubits(), static_cast<int>(bits));
    std::vector<Clbit> clbit_of;
    for (const Operation& op : circuit.ops()) {
        if (op.kind != GateKind::MEASURE)
            continue;
        zeros.measure(op.qubits[0], op.cbit);
        ones.x(op.qubits[0]).measure(op.qubits[0], op.cbit);
        clbit_of.push_back(op.cbit);
    }
    const Counts zero_counts = backend.run(zeros, calibrationShots_);
    const Counts one_counts = backend.run(ones, calibrationShots_);

    std::vector<double> p01(bits, 0.0), p10(bits, 0.0);
    for (Clbit c : clbit_of) {
        double ones_seen = 0.0, zeros_seen = 0.0;
        for (const auto& [outcome, n] : zero_counts.raw()) {
            if (getBit(outcome, c))
                ones_seen += static_cast<double>(n);
        }
        for (const auto& [outcome, n] : one_counts.raw()) {
            if (!getBit(outcome, c))
                zeros_seen += static_cast<double>(n);
        }
        p01[c] = ones_seen / static_cast<double>(calibrationShots_);
        p10[c] = zeros_seen / static_cast<double>(calibrationShots_);
    }

    // Standard-mode execution, then classical inverse.
    const Counts observed = backend.run(circuit, shots);
    const std::vector<double> corrected = invertTensoredConfusion(
        observed.toProbabilityVector(), p01, p10);
    return roundCorrectedDistribution(corrected, bits, shots);
}

std::vector<double>
clipAndRenormalize(std::vector<double> probs)
{
    double total = 0.0;
    for (double& p : probs) {
        if (p < 0.0)
            p = 0.0;
        total += p;
    }
    if (total <= 0.0) {
        std::fill(probs.begin(), probs.end(), 0.0);
        return probs;
    }
    for (double& p : probs)
        p /= total;
    return probs;
}

Counts
roundCorrectedDistribution(const std::vector<double>& corrected,
                           unsigned bits, std::size_t shots)
{
    const std::vector<double> probs = clipAndRenormalize(corrected);
    Counts out(bits);
    for (BasisState s = 0; s < probs.size(); ++s) {
        const auto n = static_cast<std::uint64_t>(std::llround(
            probs[s] * static_cast<double>(shots)));
        if (n > 0)
            out.add(s, n);
    }
    return out;
}

} // namespace qem

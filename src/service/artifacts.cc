#include "service/artifacts.hh"

#include <algorithm>
#include <stdexcept>

#include "service/fingerprint.hh"

namespace qem::svc
{

namespace
{

double
clamp01(double p)
{
    return std::min(1.0, std::max(0.0, p));
}

} // namespace

ConfusionCdf::ConfusionCdf(const Calibration& cal,
                           const std::vector<Qubit>& qubits)
    : numBits_(static_cast<unsigned>(qubits.size()))
{
    if (numBits_ > kMaxBits)
        throw std::invalid_argument(
            "ConfusionCdf: dense rows support at most " +
            std::to_string(kMaxBits) + " bits, got " +
            std::to_string(numBits_));
    const std::size_t dim = std::size_t{1} << numBits_;
    const bool crosstalk = cal.hasReadoutCrosstalk();
    const auto& j01 = cal.crosstalkJ01();
    const auto& j10 = cal.crosstalkJ10();

    rows_.assign(dim, std::vector<double>(dim, 0.0));
    for (BasisState truth = 0; truth < dim; ++truth) {
        // Effective flip rate per bit under this truth state:
        // isolated rate plus crosstalk from every true-1 neighbor.
        std::vector<double> flip(numBits_, 0.0);
        for (unsigned k = 0; k < numBits_; ++k) {
            const Qubit q = qubits[k];
            const QubitCalibration& qc = cal.qubit(q);
            const bool one = ((truth >> k) & 1u) != 0;
            double rate = one ? qc.readoutP10 : qc.readoutP01;
            if (crosstalk) {
                for (unsigned m = 0; m < numBits_; ++m) {
                    if (m == k || ((truth >> m) & 1u) == 0)
                        continue;
                    const auto& j = one ? j10 : j01;
                    const Qubit src = qubits[m];
                    if (q < j.size() && src < j[q].size())
                        rate += j[q][src];
                }
            }
            flip[k] = clamp01(rate);
        }

        std::vector<double>& row = rows_[truth];
        double cumulative = 0.0;
        for (BasisState observed = 0; observed < dim;
             ++observed) {
            double p = 1.0;
            for (unsigned k = 0; k < numBits_; ++k) {
                const bool flipped =
                    (((truth ^ observed) >> k) & 1u) != 0;
                p *= flipped ? flip[k] : 1.0 - flip[k];
            }
            cumulative += p;
            row[observed] = cumulative;
        }
        // Pin the tail to exactly 1 so sample() never falls off
        // the row from accumulated rounding.
        row[dim - 1] = 1.0;
    }
}

ConfusionCdf::ConfusionCdf(unsigned num_bits,
                           const std::vector<Counts>& per_truth)
    : numBits_(num_bits)
{
    if (numBits_ > kMaxBits)
        throw std::invalid_argument(
            "ConfusionCdf: dense rows support at most " +
            std::to_string(kMaxBits) + " bits, got " +
            std::to_string(numBits_));
    const std::size_t dim = std::size_t{1} << numBits_;
    if (per_truth.size() != dim)
        throw std::invalid_argument(
            "ConfusionCdf: expected " + std::to_string(dim) +
            " holdout histograms, got " +
            std::to_string(per_truth.size()));

    rows_.assign(dim, std::vector<double>(dim, 0.0));
    for (BasisState truth = 0; truth < dim; ++truth) {
        const Counts& counts = per_truth[truth];
        const std::uint64_t total = counts.total();
        if (total == 0)
            throw std::invalid_argument(
                "ConfusionCdf: empty holdout histogram for truth "
                "state " +
                std::to_string(truth));
        for (const auto& [outcome, n] : counts.raw()) {
            if (outcome >= dim)
                throw std::invalid_argument(
                    "ConfusionCdf: holdout outcome " +
                    std::to_string(outcome) +
                    " wider than " + std::to_string(numBits_) +
                    " bits");
            rows_[truth][outcome] = static_cast<double>(n) /
                                    static_cast<double>(total);
        }
        double cumulative = 0.0;
        for (BasisState observed = 0; observed < dim;
             ++observed) {
            cumulative += rows_[truth][observed];
            rows_[truth][observed] = cumulative;
        }
        // Same tail pin as the analytic constructor: sample()
        // must never fall off the row from rounding.
        rows_[truth][dim - 1] = 1.0;
    }
}

double
ConfusionCdf::probability(BasisState truth,
                          BasisState observed) const
{
    const std::vector<double>& r = row(truth);
    const double hi = r.at(observed);
    const double lo = observed == 0 ? 0.0 : r[observed - 1];
    return hi - lo;
}

BasisState
ConfusionCdf::sample(BasisState truth, double u) const
{
    const std::vector<double>& r = row(truth);
    const auto it = std::upper_bound(r.begin(), r.end(), u);
    if (it == r.end())
        return static_cast<BasisState>(r.size() - 1);
    return static_cast<BasisState>(it - r.begin());
}

const std::vector<double>&
ConfusionCdf::row(BasisState truth) const
{
    return rows_.at(truth);
}

std::size_t
ConfusionCdf::bytes() const
{
    const std::size_t dim = std::size_t{1} << numBits_;
    return dim * dim * sizeof(double) + dim * 32;
}

ArtifactKey
withGeneration(ArtifactKey key, std::uint64_t generation)
{
    if (generation == 0)
        return key;
    std::uint64_t h = kFnvBasis;
    h = fnvString(h, "generation");
    h = fnvWord(h, key.options);
    h = fnvWord(h, generation);
    key.options = h;
    return key;
}

ArtifactKey
compiledProgramKey(const std::string& machine,
                   const Circuit& circuit,
                   std::uint64_t generation)
{
    ArtifactKey key;
    key.kind = ArtifactKind::CompiledProgram;
    key.subject = fingerprintCircuit(circuit);
    key.machine = machine;
    return withGeneration(std::move(key), generation);
}

ArtifactKey
rbmsProfileKey(const std::string& machine,
               const std::vector<Qubit>& qubits,
               const RbmsOptions& options)
{
    ArtifactKey key;
    key.kind = ArtifactKind::RbmsProfile;
    key.subject = fingerprintQubits(qubits);
    key.machine = machine;
    std::uint64_t h = kFnvBasis;
    h = fnvWord(h, options.directMaxBits);
    h = fnvWord(h, options.shotsPerState);
    h = fnvWord(h, options.windowSize);
    h = fnvWord(h, options.shotsPerWindow);
    key.options = h;
    return key;
}

ArtifactKey
confusionCdfKey(const std::string& machine,
                const std::vector<Qubit>& qubits,
                const Calibration& cal)
{
    ArtifactKey key;
    key.kind = ArtifactKind::ConfusionCdf;
    key.subject = fingerprintQubits(qubits);
    key.machine = machine;
    std::uint64_t h = kFnvBasis;
    for (Qubit q : qubits) {
        const QubitCalibration& qc = cal.qubit(q);
        h = fnvDouble(h, qc.readoutP01);
        h = fnvDouble(h, qc.readoutP10);
    }
    h = fnvWord(h, cal.hasReadoutCrosstalk() ? 1 : 0);
    key.options = h;
    return key;
}

std::shared_ptr<const RbmsEstimate>
cachedRbmsProfile(ArtifactCache& cache, Backend& backend,
                  const std::string& machine,
                  const std::vector<Qubit>& qubits,
                  const RbmsOptions& options, bool* hit)
{
    const ArtifactKey key =
        rbmsProfileKey(machine, qubits, options);
    return cache.getOrCompute<RbmsEstimate>(
        key,
        [&]() -> ArtifactCache::Costed<RbmsEstimate> {
            auto profile =
                characterizeAuto(backend, qubits, options);
            const unsigned bits =
                std::min(profile->numBits(), 20u);
            return {std::move(profile),
                    (std::size_t{1} << bits) * sizeof(double) +
                        256};
        },
        hit);
}

std::shared_ptr<const ConfusionCdf>
cachedConfusionCdf(ArtifactCache& cache, const Calibration& cal,
                   const std::string& machine,
                   const std::vector<Qubit>& qubits, bool* hit)
{
    const ArtifactKey key =
        confusionCdfKey(machine, qubits, cal);
    return cache.getOrCompute<ConfusionCdf>(
        key,
        [&]() -> ArtifactCache::Costed<ConfusionCdf> {
            auto cdf =
                std::make_shared<const ConfusionCdf>(cal, qubits);
            return {cdf, cdf->bytes()};
        },
        hit);
}

} // namespace qem::svc

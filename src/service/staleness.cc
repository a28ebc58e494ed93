#include "service/staleness.hh"

#include <sstream>
#include <stdexcept>

#include "qsim/circuit.hh"

namespace qem::svc
{

Circuit
holdoutPrepCircuit(unsigned machine_qubits,
                   const std::vector<Qubit>& qubits,
                   BasisState truth)
{
    Circuit circuit(machine_qubits,
                    static_cast<int>(qubits.size()));
    for (std::size_t i = 0; i < qubits.size(); ++i) {
        if ((truth >> i) & 1u)
            circuit.x(qubits[i]);
    }
    for (std::size_t i = 0; i < qubits.size(); ++i)
        circuit.measure(qubits[i], static_cast<Clbit>(i));
    return circuit;
}

void
validateProbeStates(unsigned num_bits,
                    const std::vector<BasisState>& states)
{
    if (num_bits >= 64)
        return; // Every representable state fits the register.
    for (BasisState s : states) {
        if ((s >> num_bits) != 0)
            throw std::invalid_argument(
                "staleness probe: state " + std::to_string(s) +
                " is wider than the cached model's " +
                std::to_string(num_bits) + "-bit register");
    }
}

std::vector<BasisState>
defaultProbeStates(unsigned num_bits)
{
    const BasisState ones =
        num_bits >= 64 ? ~BasisState{0}
                       : ((BasisState{1} << num_bits) - 1);
    return {BasisState{0}, ones};
}

namespace
{

Counts
sampleFromCdf(const ConfusionCdf& cdf, BasisState truth,
              std::size_t shots, Rng& rng)
{
    std::vector<BasisState> outcomes(shots);
    for (BasisState& outcome : outcomes)
        outcome = cdf.sample(truth, rng.uniform());
    return Counts::fromOutcomes(cdf.numBits(), std::move(outcomes));
}

} // namespace

HoldoutSampler
holdoutFromCalibration(const Calibration& cal,
                       const std::vector<Qubit>& qubits)
{
    auto live = std::make_shared<ConfusionCdf>(cal, qubits);
    return [live](BasisState truth, std::size_t shots, Rng& rng) {
        return sampleFromCdf(*live, truth, shots, rng);
    };
}

HoldoutSampler
holdoutFromBackend(std::shared_ptr<const ShardedBackend> backend,
                   std::vector<Qubit> qubits)
{
    if (!backend)
        throw std::invalid_argument(
            "holdoutFromBackend: null backend");
    return [backend, qubits = std::move(qubits)](
               BasisState truth, std::size_t shots, Rng& rng) {
        return backend->run(
            holdoutPrepCircuit(backend->numQubits(), qubits,
                               truth),
            shots, rng);
    };
}

RbmsStalenessProbe::RbmsStalenessProbe(
    std::shared_ptr<const ConfusionCdf> cached,
    HoldoutSampler live, StalenessOptions options)
    : cached_(std::move(cached)), live_(std::move(live)),
      options_(std::move(options))
{
    if (!cached_)
        throw std::invalid_argument(
            "RbmsStalenessProbe: null cached confusion model");
    if (!live_)
        throw std::invalid_argument(
            "RbmsStalenessProbe: null holdout sampler");
    if (options_.shotsPerState == 0)
        throw std::invalid_argument(
            "RbmsStalenessProbe: zero holdout budget");
    // Reject out-of-range states here, not in check(): a state
    // wider than the cached rows would otherwise flow unchecked
    // into ConfusionCdf::sample at probe time.
    validateProbeStates(cached_->numBits(), options_.states);
}

std::uint64_t
RbmsStalenessProbe::checksRun() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return checks_;
}

verify::GofResult
RbmsStalenessProbe::lastWorst() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lastWorst_;
}

telemetry::ProbeResult
RbmsStalenessProbe::check()
{
    std::uint64_t epoch = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        epoch = checks_++;
    }

    std::vector<BasisState> states = options_.states;
    if (states.empty())
        states = defaultProbeStates(cached_->numBits());
    const double alphaPerState =
        options_.alpha / static_cast<double>(states.size());

    // Fresh, independent streams per (check, state, side): the
    // probe is deterministic in (seed, check index) and repeated
    // checks never reuse samples.
    Rng root = Rng(options_.seed).splitAt(epoch);

    verify::GofResult worst;
    BasisState worstState = 0;
    bool haveWorst = false;
    bool stale = false;
    try {
        for (std::size_t k = 0; k < states.size(); ++k) {
            Rng freshRng = root.splitAt(2 * k);
            Rng referenceRng = root.splitAt(2 * k + 1);
            const Counts fresh = live_(
                states[k], options_.shotsPerState, freshRng);
            const Counts reference =
                sampleFromCdf(*cached_, states[k],
                              options_.shotsPerState,
                              referenceRng);
            const verify::GofResult test =
                verify::twoSampleGTest(fresh, reference);
            if (!haveWorst || test.pValue < worst.pValue) {
                worst = test;
                worstState = states[k];
                haveWorst = true;
            }
            if (test.pValue < alphaPerState)
                stale = true;
        }
    } catch (...) {
        // A transient sampler failure must not burn the epoch: a
        // serial retry has to replay the exact splitAt(epoch)
        // stream that failed. Roll back only if no concurrent
        // check consumed a later epoch meanwhile — an interleaved
        // epoch may be skipped, but is never reused.
        std::lock_guard<std::mutex> lock(mutex_);
        if (checks_ == epoch + 1)
            --checks_;
        throw;
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        lastWorst_ = worst;
    }

    telemetry::ProbeResult result;
    result.status = stale ? telemetry::HealthStatus::Unhealthy
                          : telemetry::HealthStatus::Healthy;
    result.value = worst.pValue;
    std::ostringstream message;
    message << (stale ? "cached confusion model rejected"
                      : "cached confusion model consistent")
            << ": worst state " << worstState << " G="
            << worst.statistic << " p=" << worst.pValue
            << " (alpha/state=" << alphaPerState << ", "
            << options_.shotsPerState << " shots/state)";
    result.message = message.str();
    return result;
}

} // namespace qem::svc

#include "noise/trajectory.hh"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "noise/compaction.hh"
#include "noise/readout.hh"
#include "qsim/bitstring.hh"
#include "telemetry/telemetry.hh"

namespace qem
{

namespace
{

/**
 * A circuit lowered once for trajectory execution: the noise
 * program plus everything the sampling tail needs (readout model,
 * measured qubits, MEASURE projection, batch policy). Immutable
 * after construction; run() keeps all scratch (the trajectory state
 * and the sampling CDF/outcome buffers) on its own stack and reuses
 * it across trajectories, so one compiled run may be shared by
 * every worker thread.
 */
class CompiledTrajectoryRun final : public ShardedBackend::CompiledRun
{
  public:
    CompiledTrajectoryRun(NoiseProgram program,
                          std::shared_ptr<const ReadoutModel> readout,
                          std::vector<Qubit> measured,
                          std::vector<std::pair<Qubit, Clbit>>
                              outcome_map,
                          unsigned num_clbits,
                          const TrajectoryOptions& options)
        : program_(std::move(program)),
          readout_(std::move(readout)),
          measured_(std::move(measured)),
          outcomeMap_(std::move(outcome_map)),
          numClbits_(num_clbits),
          shotsPerTrajectory_(options.shotsPerTrajectory),
          fastPath_(options.deterministicFastPath &&
                    !program_.stochastic())
    {
        // Context-independent readout lets the per-shot virtual
        // flipProbability() calls be hoisted into a flat
        // (p01, p10) table per measured qubit; the inline loop in
        // run() draws exactly as sampleReadout() would. Correlated
        // models stay on the virtual path.
        if (readout_ && dynamic_cast<const AsymmetricReadout*>(
                            readout_.get())) {
            readoutP01_.reserve(measured_.size());
            readoutP10_.reserve(measured_.size());
            for (Qubit q : measured_) {
                readoutP01_.push_back(
                    readout_->flipProbability(q, false, 0));
                readoutP10_.push_back(
                    readout_->flipProbability(q, true, 0));
            }
        }
        // Tabulate the compact -> physical scatter for every
        // compact basis state (the per-shot expandCompactState
        // loop becomes one indexed load). Guarded for width, but
        // real machines are <= 14 qubits.
        if (program_.compactQubits() <= 16) {
            const std::size_t dim = std::size_t{1}
                                    << program_.compactQubits();
            expandTable_.reserve(dim);
            for (std::size_t s = 0; s < dim; ++s)
                expandTable_.push_back(expandCompactState(
                    static_cast<BasisState>(s), program_.active()));
        }
        if (fastPath_)
            buildAnalyticCdf();
    }

    /**
     * A non-stochastic program evolves to the same state every
     * trajectory, so the classical outcome distribution — the
     * trajectory state pushed through the exact readout confusion
     * (confusionProbability handles correlated models too) — can be
     * computed once here. run() then samples each shot with a
     * single uniform draw against this CDF instead of re-walking
     * the expand/readout/projection tail per shot.
     */
    void buildAnalyticCdf()
    {
        // Restricted to context-independent readout (or none): a
        // correlated model's deterministic runs stay on the
        // sampling loop below, which consumes the rng stream
        // exactly as the pre-lowering simulator did, so their
        // seeded realizations are unchanged.
        if (expandTable_.empty() || numClbits_ > 12 ||
            (readout_ &&
             (readoutP01_.empty() || measured_.size() > 12)))
            return;
        StateVector state(program_.compactQubits());
        // The program has no stochastic step; evolve consumes no
        // draws from this throwaway stream.
        Rng none(0);
        program_.evolve(state, none);

        auto outcomeOf = [this](BasisState observed) {
            BasisState out = 0;
            for (const auto& [qubit, cbit] : outcomeMap_)
                out = setBit(out, cbit, getBit(observed, qubit));
            return out;
        };

        std::vector<double> classical(std::size_t{1} << numClbits_,
                                      0.0);
        const std::vector<double> probs = state.probabilities();
        if (!readout_) {
            for (std::size_t s = 0; s < probs.size(); ++s) {
                if (probs[s] > 0.0)
                    classical[outcomeOf(expandTable_[s])] +=
                        probs[s];
            }
        } else {
            // Enumerate every observed pattern over the measured
            // qubits and weight it by the exact confusion
            // probability given the true state.
            const std::size_t patterns = std::size_t{1}
                                         << measured_.size();
            std::vector<BasisState> observedOf(patterns, 0);
            std::vector<BasisState> outOf(patterns, 0);
            for (std::size_t p = 0; p < patterns; ++p) {
                BasisState observed = 0;
                for (std::size_t k = 0; k < measured_.size(); ++k)
                    observed = setBit(observed, measured_[k],
                                      (p >> k) & 1);
                observedOf[p] = observed;
                outOf[p] = outcomeOf(observed);
            }
            for (std::size_t s = 0; s < probs.size(); ++s) {
                if (probs[s] <= 0.0)
                    continue;
                const BasisState truth = expandTable_[s];
                for (std::size_t p = 0; p < patterns; ++p) {
                    classical[outOf[p]] +=
                        probs[s] * readout_->confusionProbability(
                                       truth, observedOf[p],
                                       measured_);
                }
            }
        }
        analyticCdf_.resize(classical.size());
        double acc = 0.0;
        for (std::size_t i = 0; i < classical.size(); ++i) {
            acc += classical[i];
            analyticCdf_[i] = acc;
        }
    }

    bool fastPath() const { return fastPath_; }

    std::size_t bytes() const override
    {
        return sizeof(*this) - sizeof(NoiseProgram) + program_.bytes() +
               measured_.capacity() * sizeof(Qubit) +
               outcomeMap_.capacity() * sizeof(outcomeMap_[0]) +
               (readoutP01_.capacity() + readoutP10_.capacity() +
                analyticCdf_.capacity()) *
                   sizeof(double) +
               expandTable_.capacity() * sizeof(BasisState);
    }

    Counts run(std::size_t shots, Rng& rng) const override
    {
        // Telemetry events accumulate in plain locals (this method
        // must stay pure and concurrency-safe) and flush to the
        // global registry once at the end, only when telemetry is
        // on.
        const bool tele = telemetry::enabled();
        std::uint64_t gateErrors = 0;
        std::uint64_t decayEvents = 0;
        std::uint64_t trajectories = 0;
        std::uint64_t readoutFlips = 0;
        std::uint64_t eventFree = 0;
        std::uint64_t replayedSteps = 0;

        // With no stochastic step every trajectory is identical:
        // evolve once and draw all shots from it.
        const std::size_t batch =
            fastPath_ ? shots : shotsPerTrajectory_;

        // Analytic fast path: the outcome CDF was precomputed at
        // compile time, so each shot is one uniform draw + one
        // binary search. (readout_bitflips stays 0 here: outcomes
        // are drawn post-confusion, individual flips never occur.)
        if (!analyticCdf_.empty() && shots > 0) {
            Counts counts(numClbits_);
            std::vector<std::uint64_t> bins(analyticCdf_.size(),
                                            0);
            const double total = analyticCdf_.back();
            for (std::size_t s = 0; s < shots; ++s) {
                const double r = rng.uniform() * total;
                const auto it =
                    std::upper_bound(analyticCdf_.begin(),
                                     analyticCdf_.end(), r);
                bins[std::min<std::size_t>(
                    static_cast<std::size_t>(
                        it - analyticCdf_.begin()),
                    bins.size() - 1)] += 1;
            }
            for (std::size_t i = 0; i < bins.size(); ++i) {
                if (bins[i] > 0)
                    counts.add(static_cast<BasisState>(i),
                               bins[i]);
            }
            if (tele) {
                telemetry::MetricsRegistry& m =
                    telemetry::metrics();
                m.counter("trajectory.gates_applied")
                    .add(program_.gatesPerTrajectory());
                m.counter("trajectory.trajectories").add(1);
                m.counter("trajectory.shots").add(shots);
                m.counter("trajectory.fastpath_runs").add(1);
            }
            return counts;
        }

        Counts counts(numClbits_);
        // Narrow classical registers accumulate into a dense bin
        // array (one increment per shot); wide ones collect the
        // outcomes. Either way the log is built once at the end.
        const bool dense = numClbits_ <= 12;
        std::vector<std::uint64_t> bins(
            dense ? std::size_t{1} << numClbits_ : 0, 0);
        std::vector<BasisState> wide;
        if (!dense)
            wide.reserve(shots);
        const bool fastReadout = !readoutP01_.empty();
        // Context-dependent (correlated) readout: flipProbability
        // is a pure function of (qubit, truth state), so its values
        // are memoized per compact truth state the first time a
        // shot lands there. The cached loop below feeds bernoulli()
        // the exact doubles sampleReadout() would compute, so the
        // draw stream — and every seeded realization — is
        // unchanged; only the repeated context sums disappear.
        const bool cachedReadout =
            !fastReadout && readout_ && !expandTable_.empty();
        const std::size_t numMeasured = measured_.size();
        std::vector<double> flipCache;
        std::vector<char> flipKnown;
        if (cachedReadout) {
            flipCache.resize(expandTable_.size() * numMeasured);
            flipKnown.assign(expandTable_.size(), 0);
        }
        StateVector state(program_.compactQubits());
        std::vector<double> cdf;
        std::vector<BasisState> samples;
        std::size_t remaining = shots;
        while (remaining > 0) {
            const std::size_t take = std::min(batch, remaining);
            remaining -= take;
            if (trajectories > 0)
                state.resetTo(0);
            ++trajectories;

            const TrajectoryEvents events =
                program_.evolve(state, rng);
            gateErrors += events.gateErrors;
            decayEvents += events.decayEvents;
            eventFree += events.eventFree ? 1 : 0;
            replayedSteps += events.replayedSteps;

            state.sampleInto(rng, take, cdf, samples);
            for (BasisState compact : samples) {
                const BasisState truth =
                    expandTable_.empty()
                        ? expandCompactState(compact,
                                             program_.active())
                        : expandTable_[compact];
                BasisState observed = truth;
                if (fastReadout) {
                    observed = 0;
                    for (std::size_t k = 0; k < measured_.size();
                         ++k) {
                        const Qubit q = measured_[k];
                        const bool tv = getBit(truth, q);
                        const bool read =
                            rng.bernoulli(tv ? readoutP10_[k]
                                             : readoutP01_[k])
                                ? !tv
                                : tv;
                        observed = setBit(observed, q, read);
                    }
                } else if (cachedReadout) {
                    double* pflip =
                        &flipCache[static_cast<std::size_t>(
                                       compact) *
                                   numMeasured];
                    if (!flipKnown[compact]) {
                        for (std::size_t k = 0; k < numMeasured;
                             ++k) {
                            pflip[k] = readout_->flipProbability(
                                measured_[k],
                                getBit(truth, measured_[k]),
                                truth);
                        }
                        flipKnown[compact] = 1;
                    }
                    observed = 0;
                    for (std::size_t k = 0; k < numMeasured; ++k) {
                        const Qubit q = measured_[k];
                        const bool tv = getBit(truth, q);
                        const bool read = rng.bernoulli(pflip[k])
                                              ? !tv
                                              : tv;
                        observed = setBit(observed, q, read);
                    }
                } else if (readout_) {
                    observed = readout_->sampleReadout(
                        truth, measured_, rng);
                }
                if (tele && observed != truth)
                    readoutFlips += static_cast<std::uint64_t>(
                        std::popcount(truth ^ observed));
                BasisState out = 0;
                for (const auto& [qubit, cbit] : outcomeMap_)
                    out = setBit(out, cbit, getBit(observed, qubit));
                if (dense)
                    ++bins[out];
                else
                    wide.push_back(out);
            }
        }
        if (dense) {
            for (std::size_t i = 0; i < bins.size(); ++i) {
                if (bins[i] > 0)
                    counts.add(static_cast<BasisState>(i), bins[i]);
            }
        } else {
            counts = Counts::fromOutcomes(numClbits_, std::move(wide));
        }
        if (tele) {
            telemetry::MetricsRegistry& m = telemetry::metrics();
            m.counter("trajectory.gates_applied")
                .add(trajectories * program_.gatesPerTrajectory());
            m.counter("trajectory.gate_errors_injected")
                .add(gateErrors);
            m.counter("trajectory.decay_events").add(decayEvents);
            m.counter("trajectory.trajectories").add(trajectories);
            m.counter("trajectory.shots").add(shots);
            m.counter("trajectory.readout_bitflips")
                .add(readoutFlips);
            m.counter("trajectory.event_free").add(eventFree);
            m.counter("trajectory.replayed_steps").add(replayedSteps);
            if (fastPath_)
                m.counter("trajectory.fastpath_runs").add(1);
        }
        return counts;
    }

  private:
    NoiseProgram program_;
    std::shared_ptr<const ReadoutModel> readout_;
    std::vector<Qubit> measured_;
    std::vector<std::pair<Qubit, Clbit>> outcomeMap_;
    unsigned numClbits_;
    std::size_t shotsPerTrajectory_;
    bool fastPath_;
    /** Hoisted context-independent flip rates, indexed like
     *  measured_; empty when the model needs the virtual path. */
    std::vector<double> readoutP01_;
    std::vector<double> readoutP10_;
    /** expandTable_[compact] = physical basis state; empty only
     *  for registers too wide to tabulate. */
    std::vector<BasisState> expandTable_;
    /** Cumulative exact classical-outcome distribution; nonempty
     *  only on the (tabulable) deterministic fast path. */
    std::vector<double> analyticCdf_;
};

} // namespace

TrajectorySimulator::TrajectorySimulator(NoiseModel model,
                                         std::uint64_t seed,
                                         TrajectoryOptions options)
    : model_(std::move(model)), rng_(seed), options_(options)
{
    if (options_.shotsPerTrajectory == 0)
        throw std::invalid_argument("TrajectorySimulator: batch size "
                                    "must be nonzero");
}

Counts
TrajectorySimulator::run(const Circuit& circuit, std::size_t shots)
{
    return run(circuit, shots, rng_);
}

std::unique_ptr<ShardedBackend>
TrajectorySimulator::clone() const
{
    return std::make_unique<TrajectorySimulator>(*this);
}

std::shared_ptr<const ShardedBackend::CompiledRun>
TrajectorySimulator::compile(const Circuit& circuit) const
{
    if (circuit.numQubits() > model_.numQubits())
        throw std::invalid_argument("TrajectorySimulator: circuit wider "
                                    "than the machine");
    if (!circuit.hasMeasurements())
        throw std::invalid_argument("TrajectorySimulator: circuit has "
                                    "no measurements");

    NoiseProgram program =
        NoiseProgram::lower(circuit, model_, options_);
    std::vector<std::pair<Qubit, Clbit>> outcomeMap;
    for (const Operation& op : circuit.ops()) {
        if (op.kind == GateKind::MEASURE)
            outcomeMap.emplace_back(op.qubits[0], op.cbit);
    }
    telemetry::count("trajectory.programs_lowered");
    return std::make_shared<CompiledTrajectoryRun>(
        std::move(program),
        options_.enableReadoutErrors ? model_.readoutShared()
                                     : nullptr,
        circuit.measuredQubits(), std::move(outcomeMap),
        circuit.numClbits(), options_);
}

Counts
TrajectorySimulator::run(const Circuit& circuit, std::size_t shots,
                         Rng& rng) const
{
    return compile(circuit)->run(shots, rng);
}

} // namespace qem

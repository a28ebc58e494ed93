/**
 * @file
 * The non-compiled artifact families of the service cache, plus
 * their key builders.
 *
 * A cache needs an agreed key discipline or two call sites will
 * key the same artifact differently and silently duplicate it.
 * This header is that discipline: every family's key derivation
 * lives here —
 *
 *  - CompiledProgram: (fingerprintCircuit, machine) — built
 *    internally by JobService::submit;
 *  - RbmsProfile: (fingerprintQubits of the measured register,
 *    machine, fingerprint of RbmsOptions) — the characterization
 *    is per (machine, register, technique knobs), not per circuit,
 *    which is exactly why it is worth sharing;
 *  - ConfusionCdf: (fingerprintQubits, machine, fingerprint of the
 *    calibration readout rates) — folding the rates into the key
 *    means a recalibrated machine misses cleanly instead of
 *    serving stale rows.
 */

#ifndef QEM_SERVICE_ARTIFACTS_HH
#define QEM_SERVICE_ARTIFACTS_HH

#include <memory>
#include <vector>

#include "machine/calibration.hh"
#include "mitigation/rbms.hh"
#include "qsim/circuit.hh"
#include "qsim/counts.hh"
#include "qsim/simulator.hh"
#include "qsim/types.hh"
#include "service/artifact_cache.hh"

namespace qem::svc
{

/**
 * Per-truth-state readout-confusion CDF rows, precomputed from a
 * machine's calibration: row s holds the cumulative distribution of
 * the observed outcome given true state s, under the calibrated
 * independent flip rates plus (if present) readout crosstalk.
 * Useful for O(log) sampling of confused outcomes and for exact
 * P(observed | truth) lookups without re-deriving products of flip
 * rates per shot.
 */
class ConfusionCdf
{
  public:
    /** Largest register the dense representation supports. */
    static constexpr unsigned kMaxBits = 10;

    /**
     * Build rows for the register @p qubits (clbit order) of a
     * machine with calibration @p cal. Throws std::invalid_argument
     * above kMaxBits.
     */
    ConfusionCdf(const Calibration& cal,
                 const std::vector<Qubit>& qubits);

    /**
     * Empirical rows from measured holdout histograms: row s is the
     * normalized frequency of @p per_truth[s] — the shape the
     * recalibration scheduler rebuilds from fresh re-profiling
     * shots, model-free. @p per_truth must hold one histogram per
     * truth state (2^num_bits of them) and every histogram must be
     * non-empty; outcomes wider than @p num_bits throw.
     */
    ConfusionCdf(unsigned num_bits,
                 const std::vector<Counts>& per_truth);

    unsigned numBits() const { return numBits_; }

    /** P(observed | truth), recovered from adjacent CDF entries. */
    double probability(BasisState truth, BasisState observed) const;

    /**
     * The observed outcome whose CDF bucket contains @p u (uniform
     * in [0,1)); binary search, O(numBits) time.
     */
    BasisState sample(BasisState truth, double u) const;

    /** Row @p truth: cumulative probability per observed outcome. */
    const std::vector<double>& row(BasisState truth) const;

    /** Estimated resident bytes (for cache cost accounting). */
    std::size_t bytes() const;

  private:
    unsigned numBits_;
    /** rows_[truth][observed] = P(outcome <= observed | truth). */
    std::vector<std::vector<double>> rows_;
};

/**
 * @p key with @p generation folded into its options fingerprint.
 * Generation 0 is the identity, so un-versioned call sites keep
 * their historical keys. The recalibration scheduler publishes each
 * refresh under the next generation and invalidates the previous
 * one: in-flight consumers keep their pinned shared_ptr, new
 * lookups miss cleanly onto the fresh artifact.
 */
ArtifactKey withGeneration(ArtifactKey key,
                           std::uint64_t generation);

/**
 * Cache key of a compiled program for (machine, circuit) under a
 * machine @p generation (bumped by JobService::replaceMachine so a
 * swapped backend never serves a previous backend's lowering).
 */
ArtifactKey compiledProgramKey(const std::string& machine,
                               const Circuit& circuit,
                               std::uint64_t generation = 0);

/** Cache key of the RBMS profile for (machine, register, knobs). */
ArtifactKey rbmsProfileKey(const std::string& machine,
                           const std::vector<Qubit>& qubits,
                           const RbmsOptions& options);

/** Cache key of the confusion CDF for (machine, register, rates). */
ArtifactKey confusionCdfKey(const std::string& machine,
                            const std::vector<Qubit>& qubits,
                            const Calibration& cal);

/**
 * The RBMS profile for @p qubits on @p machine, characterizing via
 * characterizeAuto on a miss. Single-flight: concurrent sessions
 * profiling the same machine run one characterization.
 */
std::shared_ptr<const RbmsEstimate> cachedRbmsProfile(
    ArtifactCache& cache, Backend& backend,
    const std::string& machine, const std::vector<Qubit>& qubits,
    const RbmsOptions& options = {}, bool* hit = nullptr);

/** The confusion CDF for @p qubits on @p machine, built from
 *  @p cal on a miss. */
std::shared_ptr<const ConfusionCdf> cachedConfusionCdf(
    ArtifactCache& cache, const Calibration& cal,
    const std::string& machine, const std::vector<Qubit>& qubits,
    bool* hit = nullptr);

} // namespace qem::svc

#endif // QEM_SERVICE_ARTIFACTS_HH

/**
 * @file
 * Histogram of measured classical outcomes ("the output log").
 *
 * The NISQ execution model of the paper repeats a program for
 * thousands of trials and logs the classical outcome of each trial;
 * Counts is that log in aggregated form. Every reliability metric
 * (PST, IST, ROCA) and every mitigation policy operates on Counts.
 *
 * The log is a flat array of (outcome, count) pairs sorted by
 * outcome: lookups are binary searches, merges are linear, and a
 * producer that logs one outcome per shot collects them and builds
 * the log once with fromOutcomes() instead of inserting per shot.
 */

#ifndef QEM_QSIM_COUNTS_HH
#define QEM_QSIM_COUNTS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "qsim/types.hh"

namespace qem
{

class Counts
{
  public:
    /** (outcome, count) pairs in ascending outcome order. */
    using Log = std::vector<std::pair<BasisState, std::uint64_t>>;

    /** @param num_bits Width of the classical outcomes being logged. */
    explicit Counts(unsigned num_bits = 0);

    /**
     * The log of @p outcomes, one entry per shot, in any order.
     * Sorts the outcomes once, so a per-shot producer pays
     * O(shots log shots) rather than an insert per shot.
     */
    static Counts fromOutcomes(unsigned num_bits,
                               std::vector<BasisState> outcomes);

    unsigned numBits() const { return numBits_; }

    /**
     * Record @p n occurrences of @p outcome. Appending in ascending
     * outcome order is O(1); an out-of-order outcome shifts the
     * entries above it.
     */
    void add(BasisState outcome, std::uint64_t n = 1);

    /** Occurrences of @p outcome (0 if never seen). */
    std::uint64_t get(BasisState outcome) const;

    /** Total number of logged trials. */
    std::uint64_t total() const { return total_; }

    /** Number of distinct outcomes observed. */
    std::size_t distinct() const { return counts_.size(); }

    /** Relative frequency of @p outcome; 0 if the log is empty. */
    double probability(BasisState outcome) const;

    /** All (outcome, count) pairs in ascending outcome order. */
    const Log& raw() const { return counts_; }

    /**
     * Outcomes sorted by descending count; ties broken by ascending
     * outcome value so ordering is deterministic.
     */
    std::vector<std::pair<BasisState, std::uint64_t>> sortedByCount()
        const;

    /** The most frequent outcome; throws if the log is empty. */
    BasisState mostFrequent() const;

    /** Merge another log into this one (bit widths must match);
     *  linear in the two logs' sizes. */
    void merge(const Counts& other);

    /**
     * New log with every outcome XORed with @p mask. This is the
     * classical post-correction step of Invert-and-Measure: outcomes
     * observed under an inversion string are flipped back.
     */
    Counts xorAll(BasisState mask) const;

    /**
     * New log keeping only classical bits selected by @p bits (bit i
     * of the result is bit bits[i] of the original outcome). Used to
     * marginalize out ancilla bits.
     */
    Counts marginalize(const std::vector<unsigned>& bits) const;

    /** Probability vector over all 2^numBits outcomes (numBits<=24). */
    std::vector<double> toProbabilityVector() const;

    /** Render the top @p k outcomes as a small ASCII table. */
    std::string toString(std::size_t k = 10) const;

  private:
    /** Sort @p entries by outcome, sum duplicates and install them
     *  as the log (which must be empty). */
    void assignUnsorted(Log entries);

    unsigned numBits_;
    std::uint64_t total_ = 0;
    Log counts_;
};

} // namespace qem

#endif // QEM_QSIM_COUNTS_HH

#include "qsim/counts.hh"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "qsim/bitstring.hh"

namespace qem
{

namespace
{

/** lower_bound order of log entries against an outcome. */
bool
entryBefore(const std::pair<BasisState, std::uint64_t>& entry,
            BasisState outcome)
{
    return entry.first < outcome;
}

} // namespace

Counts::Counts(unsigned num_bits)
    : numBits_(num_bits)
{
    if (num_bits > 64)
        throw std::invalid_argument("Counts: more than 64 bits");
}

Counts
Counts::fromOutcomes(unsigned num_bits, std::vector<BasisState> outcomes)
{
    Counts out(num_bits);
    if (outcomes.empty())
        return out;
    std::sort(outcomes.begin(), outcomes.end());
    if (num_bits < 64 && (outcomes.back() >> num_bits) != 0)
        throw std::out_of_range("Counts::fromOutcomes: outcome wider "
                                "than the classical register");
    for (BasisState outcome : outcomes) {
        if (!out.counts_.empty() && out.counts_.back().first == outcome)
            ++out.counts_.back().second;
        else
            out.counts_.emplace_back(outcome, 1);
    }
    out.total_ = outcomes.size();
    return out;
}

void
Counts::add(BasisState outcome, std::uint64_t n)
{
    if (numBits_ < 64 && (outcome >> numBits_) != 0)
        throw std::out_of_range("Counts::add: outcome wider than the "
                                "classical register");
    total_ += n;
    if (counts_.empty() || counts_.back().first < outcome) {
        counts_.emplace_back(outcome, n);
        return;
    }
    const auto it = std::lower_bound(counts_.begin(), counts_.end(),
                                     outcome, entryBefore);
    if (it->first == outcome)
        it->second += n;
    else
        counts_.insert(it, {outcome, n});
}

std::uint64_t
Counts::get(BasisState outcome) const
{
    const auto it = std::lower_bound(counts_.begin(), counts_.end(),
                                     outcome, entryBefore);
    return it == counts_.end() || it->first != outcome ? 0
                                                       : it->second;
}

void
Counts::assignUnsorted(Log entries)
{
    std::sort(entries.begin(), entries.end());
    for (const auto& [outcome, n] : entries) {
        if (!counts_.empty() && counts_.back().first == outcome)
            counts_.back().second += n;
        else
            counts_.emplace_back(outcome, n);
        total_ += n;
    }
}

double
Counts::probability(BasisState outcome) const
{
    if (total_ == 0)
        return 0.0;
    return static_cast<double>(get(outcome)) /
           static_cast<double>(total_);
}

std::vector<std::pair<BasisState, std::uint64_t>>
Counts::sortedByCount() const
{
    Log out = counts_;
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first;
              });
    return out;
}

BasisState
Counts::mostFrequent() const
{
    if (counts_.empty())
        throw std::logic_error("Counts::mostFrequent: empty log");
    return sortedByCount().front().first;
}

void
Counts::merge(const Counts& other)
{
    if (other.numBits_ != numBits_)
        throw std::invalid_argument("Counts::merge: bit width mismatch");
    Log merged;
    merged.reserve(counts_.size() + other.counts_.size());
    auto a = counts_.begin();
    auto b = other.counts_.begin();
    while (a != counts_.end() && b != other.counts_.end()) {
        if (a->first < b->first) {
            merged.push_back(*a++);
        } else if (b->first < a->first) {
            merged.push_back(*b++);
        } else {
            merged.emplace_back(a->first, a->second + b->second);
            ++a;
            ++b;
        }
    }
    merged.insert(merged.end(), a, counts_.end());
    merged.insert(merged.end(), b, other.counts_.end());
    counts_ = std::move(merged);
    total_ += other.total_;
}

Counts
Counts::xorAll(BasisState mask) const
{
    if (!counts_.empty() && numBits_ < 64 && (mask >> numBits_) != 0)
        throw std::out_of_range("Counts::xorAll: mask wider than the "
                                "classical register");
    Log flipped;
    flipped.reserve(counts_.size());
    for (const auto& [outcome, n] : counts_)
        flipped.emplace_back(outcome ^ mask, n);
    Counts out(numBits_);
    out.assignUnsorted(std::move(flipped));
    return out;
}

Counts
Counts::marginalize(const std::vector<unsigned>& bits) const
{
    for (unsigned b : bits) {
        if (b >= numBits_)
            throw std::out_of_range("Counts::marginalize: bit out of "
                                    "range");
    }
    Log reduced;
    reduced.reserve(counts_.size());
    for (const auto& [outcome, n] : counts_) {
        BasisState r = 0;
        for (std::size_t i = 0; i < bits.size(); ++i)
            r = setBit(r, static_cast<unsigned>(i),
                       getBit(outcome, bits[i]));
        reduced.emplace_back(r, n);
    }
    Counts out(static_cast<unsigned>(bits.size()));
    out.assignUnsorted(std::move(reduced));
    return out;
}

std::vector<double>
Counts::toProbabilityVector() const
{
    if (numBits_ > 24)
        throw std::logic_error("Counts::toProbabilityVector: register "
                               "too wide to densify");
    std::vector<double> probs(std::size_t{1} << numBits_, 0.0);
    if (total_ == 0)
        return probs;
    for (const auto& [outcome, n] : counts_)
        probs[outcome] = static_cast<double>(n) /
                         static_cast<double>(total_);
    return probs;
}

std::string
Counts::toString(std::size_t k) const
{
    std::ostringstream os;
    os << "counts(total=" << total_ << ")\n";
    std::size_t shown = 0;
    for (const auto& [outcome, n] : sortedByCount()) {
        if (shown++ >= k)
            break;
        os << "  " << toBitString(outcome, numBits_) << " : " << n
           << "  (" << probability(outcome) << ")\n";
    }
    return os.str();
}

} // namespace qem

#include "ledger.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench
{

namespace
{

std::size_t
rankOf(std::size_t n, double q)
{
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

void
accumulate(const qem::telemetry::SpanSnapshot& span,
           std::map<std::string, SpanTotals>& totals)
{
    std::vector<Interval> children;
    children.reserve(span.children.size());
    for (const qem::telemetry::SpanSnapshot& child : span.children) {
        children.push_back({child.startSeconds,
                            child.startSeconds +
                                child.durationSeconds});
        accumulate(child, totals);
    }
    SpanTotals& row = totals[span.name];
    ++row.calls;
    row.wallSeconds += span.durationSeconds;
    row.selfSeconds += selfSeconds(
        {span.startSeconds, span.startSeconds + span.durationSeconds},
        children);
}

} // namespace

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                  : 0.5 * (values[mid - 1] + values[mid]);
}

double
nearestRank(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    if (!(q > 0.0 && q <= 1.0))
        throw std::invalid_argument("nearestRank: q outside (0, 1]");
    const std::size_t rank = rankOf(samples.size(), q);
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    return samples[rank - 1];
}

std::size_t
samplesBeyond(std::size_t n, double q)
{
    return n == 0 ? 0 : n - rankOf(n, q);
}

Tail
tailPercentile(const std::vector<double>& samples,
               std::size_t min_beyond)
{
    static constexpr double kLadder[] = {0.99, 0.95, 0.90, 0.75};
    Tail tail;
    tail.samples = samples.size();
    tail.quantile = 0.50;
    for (const double q : kLadder) {
        if (samplesBeyond(samples.size(), q) >= min_beyond) {
            tail.quantile = q;
            break;
        }
    }
    tail.value = nearestRank(samples, tail.quantile);
    tail.beyond = samplesBeyond(samples.size(), tail.quantile);
    return tail;
}

double
windowedQuantile(const std::vector<double>& samples, double q,
                 std::size_t window_min)
{
    const std::size_t windows =
        std::max<std::size_t>(1, samples.size() /
                                     std::max<std::size_t>(1, window_min));
    std::vector<double> perWindow;
    for (std::size_t w = 0; w < windows; ++w) {
        const std::size_t begin = samples.size() * w / windows;
        const std::size_t end = samples.size() * (w + 1) / windows;
        perWindow.push_back(nearestRank(
            std::vector<double>(samples.begin() + begin,
                                samples.begin() + end),
            q));
    }
    return median(std::move(perWindow));
}

double
windowedRate(const std::vector<double>& times,
             const std::vector<double>& amounts, double start, double end,
             std::size_t windows)
{
    if (times.size() != amounts.size() || !(end > start) || windows == 0)
        throw std::invalid_argument("windowedRate: bad arguments");
    const double width = (end - start) / static_cast<double>(windows);
    std::vector<double> perWindow(windows, 0.0);
    for (std::size_t i = 0; i < times.size(); ++i) {
        if (times[i] < start || times[i] > end)
            continue;
        const auto w = std::min(
            windows - 1, static_cast<std::size_t>((times[i] - start) / width));
        perWindow[w] += amounts[i];
    }
    for (double& amount : perWindow)
        amount /= width;
    return median(std::move(perWindow));
}

double
dueLatency(double due, const std::vector<PartTiming>& parts)
{
    if (parts.empty())
        throw std::invalid_argument("dueLatency: request has no parts");
    double last = parts.front().submitStart + parts.front().wallSeconds;
    for (const PartTiming& part : parts)
        last = std::max(last, part.submitStart + part.wallSeconds);
    return last - due;
}

std::vector<double>
poissonSchedule(qem::Rng& rng, double rate, double seconds)
{
    if (!(rate > 0.0))
        throw std::invalid_argument("poissonSchedule: rate must be > 0");
    std::vector<double> due;
    double t = 0.0;
    for (;;) {
        // 1 - uniform() lies in (0, 1], so the log is finite.
        t += -std::log(1.0 - rng.uniform()) / rate;
        if (t >= seconds)
            return due;
        due.push_back(t);
    }
}

double
coveredSeconds(Interval parent, std::vector<Interval> children)
{
    for (Interval& child : children) {
        child.start = std::max(child.start, parent.start);
        child.end = std::min(child.end, parent.end);
    }
    std::sort(children.begin(), children.end(),
              [](const Interval& a, const Interval& b) {
                  return a.start < b.start;
              });
    double covered = 0.0;
    double reach = parent.start;
    for (const Interval& child : children) {
        const double from = std::max(child.start, reach);
        if (child.end > from) {
            covered += child.end - from;
            reach = child.end;
        }
    }
    return covered;
}

double
selfSeconds(Interval parent, const std::vector<Interval>& children)
{
    return (parent.end - parent.start) -
           coveredSeconds(parent, children);
}

std::map<std::string, SpanTotals>
spanTotals(const qem::telemetry::SpanSnapshot& root)
{
    std::map<std::string, SpanTotals> totals;
    for (const qem::telemetry::SpanSnapshot& child : root.children)
        accumulate(child, totals);
    return totals;
}

void
CountsDigest::mix(std::uint64_t word)
{
    for (int byte = 0; byte < 8; ++byte) {
        hash_ ^= (word >> (8 * byte)) & 0xffu;
        hash_ *= 0x100000001b3ULL;
    }
}

void
CountsDigest::add(const qem::Counts& counts)
{
    mix(counts.numBits());
    mix(counts.distinct());
    for (const auto& [outcome, n] : counts.raw()) {
        mix(outcome);
        mix(n);
    }
}

std::string
CountsDigest::hex() const
{
    char text[17];
    std::snprintf(text, sizeof text, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return text;
}

} // namespace perfbench

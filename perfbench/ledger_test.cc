/**
 * @file
 * Tests of the benchmark's own arithmetic (ledger.hh). run.py runs
 * this binary after every build and refuses to report numbers when
 * it fails.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "ledger.hh"

namespace perfbench
{
namespace
{

std::vector<double>
oneTo(std::size_t n)
{
    std::vector<double> samples(n);
    std::iota(samples.begin(), samples.end(), 1.0);
    return samples;
}

TEST(NearestRank, PicksTheSmallestSampleCoveringTheShare)
{
    const std::vector<double> samples = {5, 1, 4, 2, 3};
    EXPECT_EQ(nearestRank(samples, 0.5), 3);
    EXPECT_EQ(nearestRank(samples, 0.2), 1);
    EXPECT_EQ(nearestRank(samples, 0.21), 2);
    EXPECT_EQ(nearestRank(samples, 1.0), 5);
    EXPECT_EQ(nearestRank({}, 0.5), 0);
    // 99% of 1000 is exactly rank 990 despite rounding in q * n.
    EXPECT_EQ(nearestRank(oneTo(1000), 0.99), 990);
    EXPECT_THROW(nearestRank(samples, 0.0), std::invalid_argument);
}

TEST(TailPercentile, ReportsP99OnlyWithTenSamplesBeyondIt)
{
    const Tail full = tailPercentile(oneTo(1000));
    EXPECT_EQ(full.quantile, 0.99);
    EXPECT_EQ(full.value, 990);
    EXPECT_EQ(full.beyond, 10u);
    EXPECT_EQ(full.samples, 1000u);

    // 999 samples leave only 9 beyond p99: fall back to p95.
    const Tail short_run = tailPercentile(oneTo(999));
    EXPECT_EQ(short_run.quantile, 0.95);
    EXPECT_GE(short_run.beyond, 10u);

    const Tail tiny = tailPercentile(oneTo(30));
    EXPECT_EQ(tiny.quantile, 0.50);
    EXPECT_EQ(tiny.value, 15);

    EXPECT_EQ(samplesBeyond(200, 0.95), 10u);
    EXPECT_EQ(tailPercentile(oneTo(200)).quantile, 0.95);
}

TEST(WindowedQuantile, IsTheMedianOfPerWindowQuantiles)
{
    // Three windows of 1000; the middle one holds a stall that
    // pushes its worst 40 samples to 5000. The median window
    // ignores it.
    std::vector<double> samples;
    for (int w = 0; w < 3; ++w) {
        std::vector<double> window = oneTo(1000);
        if (w == 1)
            for (std::size_t i = 960; i < 1000; ++i)
                window[i] = 5000.0;
        samples.insert(samples.end(), window.begin(), window.end());
    }
    EXPECT_EQ(windowedQuantile(samples, 0.99, 1000), 990);
    // The whole-run p99 would have reported the stall.
    EXPECT_EQ(nearestRank(samples, 0.99), 5000.0);

    // Two windows: the mean of both window quantiles.
    std::vector<double> two = oneTo(1000);
    for (double x : oneTo(1000))
        two.push_back(2 * x);
    EXPECT_EQ(windowedQuantile(two, 0.99, 1000), (990 + 1980) / 2.0);
    EXPECT_EQ(windowedQuantile(two, 0.5, 1000), (500 + 1000) / 2.0);

    // 2500 samples make two windows of 1250, not a partial third;
    // fewer than one window's worth is one window.
    EXPECT_EQ(windowedQuantile(oneTo(2500), 0.5, 1000),
              (625 + 1875) / 2.0);
    EXPECT_EQ(windowedQuantile(oneTo(500), 0.9, 1000), 450);
}

TEST(WindowedRate, IsTheMedianOfPerWindowRates)
{
    // Ten 1-s windows at 100/s, except one stalled window at 10/s.
    std::vector<double> times, amounts;
    for (int w = 0; w < 10; ++w) {
        const int events = w == 3 ? 1 : 10;
        for (int e = 0; e < events; ++e) {
            times.push_back(w + (e + 0.5) / events);
            amounts.push_back(10.0);
        }
    }
    EXPECT_DOUBLE_EQ(windowedRate(times, amounts, 0.0, 10.0, 10), 100.0);
    // Events outside [start, end] do not count; one at the end does.
    EXPECT_DOUBLE_EQ(windowedRate(times, amounts, 0.0, 2.0, 2), 100.0);
    EXPECT_DOUBLE_EQ(windowedRate({0.5, 1.0}, {1.0, 1.0}, 0.0, 1.0, 1),
                     2.0);
    EXPECT_THROW(windowedRate(times, {}, 0.0, 1.0, 1),
                 std::invalid_argument);
}

TEST(DueLatency, CountsFromTheDueTimeToTheLastPart)
{
    // Two mode jobs submitted on time; the second finishes last.
    EXPECT_NEAR(dueLatency(1.0, {{1.0, 0.002}, {1.0, 0.005}}), 0.005,
                1e-12);
    EXPECT_THROW(dueLatency(1.0, {}), std::invalid_argument);
}

TEST(DueLatency, StalledGeneratorDelaysEveryHeldBackRequest)
{
    // Requests due every 10 ms; each takes 1 ms in the service. The
    // generator stalls 50 ms before request 2, then catches up by
    // submitting the backlog back to back.
    const std::vector<double> due = {0.00, 0.01, 0.02, 0.03, 0.04,
                                     0.05, 0.06, 0.07};
    const double stall_end = 0.07;
    std::vector<double> latency;
    for (std::size_t i = 0; i < due.size(); ++i) {
        const double submit = i < 2 ? due[i] : std::max(due[i], stall_end);
        latency.push_back(dueLatency(due[i], {{submit, 0.001}}));
    }
    EXPECT_NEAR(latency[0], 0.001, 1e-12);
    EXPECT_NEAR(latency[2], 0.051, 1e-12); // Waited out the stall.
    EXPECT_NEAR(latency[6], 0.011, 1e-12);
    EXPECT_NEAR(latency[7], 0.001, 1e-12); // Due after the stall.
    // Timing from the actual submit would hide the stall entirely.
    EXPECT_GT(nearestRank(latency, 0.5), 0.001);
}

TEST(PoissonSchedule, IsIncreasingBoundedAndSeeded)
{
    qem::Rng a(7), b(7), c(8);
    const std::vector<double> first = poissonSchedule(a, 500.0, 2.0);
    EXPECT_EQ(first, poissonSchedule(b, 500.0, 2.0));
    EXPECT_NE(first, poissonSchedule(c, 500.0, 2.0));
    ASSERT_FALSE(first.empty());
    for (std::size_t i = 1; i < first.size(); ++i)
        EXPECT_GT(first[i], first[i - 1]);
    EXPECT_LT(first.back(), 2.0);
    // ~1000 arrivals; 5 sigma is about 160.
    EXPECT_NEAR(static_cast<double>(first.size()), 1000.0, 160.0);
}

TEST(SelfTime, SubtractsTheUnionOfOverlappingChildren)
{
    const Interval parent{0.0, 10.0};
    // [1,4] and [3,6] overlap on [3,4]: union is [1,6], 5 s.
    EXPECT_DOUBLE_EQ(coveredSeconds(parent, {{1, 4}, {3, 6}}), 5.0);
    EXPECT_DOUBLE_EQ(selfSeconds(parent, {{3, 6}, {1, 4}}), 5.0);
    // A child nested inside another adds nothing.
    EXPECT_DOUBLE_EQ(selfSeconds(parent, {{1, 8}, {2, 3}}), 3.0);
    // Children are clipped to the parent.
    EXPECT_DOUBLE_EQ(selfSeconds(parent, {{-2, 1}, {9, 12}}), 8.0);
    // Disjoint children plus a fully covering one.
    EXPECT_DOUBLE_EQ(selfSeconds(parent, {{0, 1}, {2, 3}, {0, 10}}),
                     0.0);
    EXPECT_DOUBLE_EQ(selfSeconds(parent, {}), 10.0);
}

TEST(SelfTime, SpanTotalsSumSelfTimeByName)
{
    qem::telemetry::SpanSnapshot root;
    root.name = "session";
    qem::telemetry::SpanSnapshot timed;
    timed.name = "timed";
    timed.startSeconds = 0.0;
    timed.durationSeconds = 10.0;
    for (const double start : {1.0, 5.0}) {
        qem::telemetry::SpanSnapshot policy;
        policy.name = "policy";
        policy.startSeconds = start;
        policy.durationSeconds = 3.0;
        qem::telemetry::SpanSnapshot backend;
        backend.name = "backend";
        backend.startSeconds = start + 0.5;
        backend.durationSeconds = 2.0;
        policy.children.push_back(backend);
        timed.children.push_back(policy);
    }
    root.children.push_back(timed);

    const auto totals = spanTotals(root);
    EXPECT_EQ(totals.count("session"), 0u);
    EXPECT_EQ(totals.at("policy").calls, 2u);
    EXPECT_DOUBLE_EQ(totals.at("policy").wallSeconds, 6.0);
    EXPECT_DOUBLE_EQ(totals.at("policy").selfSeconds, 2.0);
    EXPECT_DOUBLE_EQ(totals.at("backend").selfSeconds, 4.0);
    EXPECT_DOUBLE_EQ(totals.at("timed").selfSeconds, 4.0);
}

TEST(CountsDigest, DependsOnEveryCountAndTheOrder)
{
    qem::Counts a(2), b(2);
    a.add(0, 10);
    a.add(3, 5);
    b.add(0, 10);
    b.add(3, 6);

    CountsDigest ab, ba, aa, same;
    ab.add(a);
    ab.add(b);
    ba.add(b);
    ba.add(a);
    aa.add(a);
    aa.add(a);
    same.add(a);
    same.add(b);
    EXPECT_EQ(ab.value(), same.value());
    EXPECT_NE(ab.value(), ba.value());
    EXPECT_NE(ab.value(), aa.value());
    EXPECT_EQ(ab.hex().size(), 16u);
}

} // namespace
} // namespace perfbench

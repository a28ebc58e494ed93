/**
 * @file
 * Unit tests for the Counts output log.
 */

#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "qsim/bitstring.hh"
#include "qsim/counts.hh"

namespace qem
{
namespace
{

TEST(Counts, AddGetTotalProbability)
{
    Counts c(3);
    c.add(0b101, 3);
    c.add(0b001);
    EXPECT_EQ(c.get(0b101), 3u);
    EXPECT_EQ(c.get(0b001), 1u);
    EXPECT_EQ(c.get(0b111), 0u);
    EXPECT_EQ(c.total(), 4u);
    EXPECT_EQ(c.distinct(), 2u);
    EXPECT_NEAR(c.probability(0b101), 0.75, 1e-12);
    EXPECT_NEAR(Counts(3).probability(0), 0.0, 1e-12);
}

TEST(Counts, AddRejectsWideOutcome)
{
    Counts c(2);
    EXPECT_THROW(c.add(4), std::out_of_range);
    EXPECT_THROW(Counts(65), std::invalid_argument);
}

TEST(Counts, SortedByCountBreaksTiesByValue)
{
    Counts c(3);
    c.add(5, 10);
    c.add(2, 10);
    c.add(1, 20);
    const auto sorted = c.sortedByCount();
    ASSERT_EQ(sorted.size(), 3u);
    EXPECT_EQ(sorted[0].first, 1u);
    EXPECT_EQ(sorted[1].first, 2u); // Tie with 5, lower value first.
    EXPECT_EQ(sorted[2].first, 5u);
    EXPECT_EQ(c.mostFrequent(), 1u);
    EXPECT_THROW(Counts(3).mostFrequent(), std::logic_error);
}

TEST(Counts, MergeAccumulates)
{
    Counts a(2), b(2);
    a.add(1, 5);
    b.add(1, 3);
    b.add(2, 7);
    a.merge(b);
    EXPECT_EQ(a.get(1), 8u);
    EXPECT_EQ(a.get(2), 7u);
    EXPECT_EQ(a.total(), 15u);
    Counts wide(3);
    EXPECT_THROW(a.merge(wide), std::invalid_argument);
}

TEST(Counts, XorAllRelabelsOutcomes)
{
    Counts c(3);
    c.add(0b101, 4);
    c.add(0b000, 2);
    const Counts flipped = c.xorAll(0b111);
    EXPECT_EQ(flipped.get(0b010), 4u);
    EXPECT_EQ(flipped.get(0b111), 2u);
    EXPECT_EQ(flipped.total(), 6u);
    // Double application is the identity.
    const Counts back = flipped.xorAll(0b111);
    EXPECT_EQ(back.get(0b101), 4u);
    EXPECT_EQ(back.get(0b000), 2u);
}

TEST(Counts, MarginalizeSelectsAndReordersBits)
{
    Counts c(3);
    c.add(fromBitString("110"), 5); // q0=1 q1=1 q2=0
    c.add(fromBitString("011"), 3); // q0=0 q1=1 q2=1
    // Keep bits {2, 0}: new bit0 = old bit2, new bit1 = old bit0.
    const Counts m = c.marginalize({2, 0});
    EXPECT_EQ(m.numBits(), 2u);
    EXPECT_EQ(m.get(0b10), 5u); // old: bit2=0, bit0=1 -> 0b10.
    EXPECT_EQ(m.get(0b01), 3u);
    EXPECT_THROW(c.marginalize({3}), std::out_of_range);
}

TEST(Counts, MarginalizeMergesCollidingOutcomes)
{
    Counts c(2);
    c.add(0b00, 1);
    c.add(0b10, 2); // Differ only in bit 1.
    const Counts m = c.marginalize({0});
    EXPECT_EQ(m.get(0), 3u);
}

TEST(Counts, ToProbabilityVector)
{
    Counts c(2);
    c.add(0, 1);
    c.add(3, 3);
    const auto probs = c.toProbabilityVector();
    ASSERT_EQ(probs.size(), 4u);
    EXPECT_NEAR(probs[0], 0.25, 1e-12);
    EXPECT_NEAR(probs[3], 0.75, 1e-12);
    EXPECT_NEAR(probs[1], 0.0, 1e-12);
    EXPECT_THROW(Counts(30).toProbabilityVector(), std::logic_error);
}

TEST(Counts, ToStringShowsTopOutcomes)
{
    Counts c(3);
    c.add(0b101, 4);
    const std::string text = c.toString();
    EXPECT_NE(text.find("101"), std::string::npos);
    EXPECT_NE(text.find("total=4"), std::string::npos);
}

/** True when raw() is strictly ascending in outcome. */
bool
ascending(const Counts& c)
{
    const Counts::Log& log = c.raw();
    for (std::size_t i = 1; i < log.size(); ++i) {
        if (!(log[i - 1].first < log[i].first))
            return false;
    }
    return true;
}

TEST(CountsLog, OutOfOrderAddKeepsAscendingLog)
{
    Counts c(4);
    for (BasisState s : {9u, 3u, 12u, 3u, 0u, 15u, 9u, 7u})
        c.add(s);
    c.add(5, 4);
    EXPECT_TRUE(ascending(c));
    const Counts::Log expected = {{0, 1}, {3, 2}, {5, 4}, {7, 1},
                                  {9, 2}, {12, 1}, {15, 1}};
    EXPECT_EQ(c.raw(), expected);
    EXPECT_EQ(c.total(), 12u);
    EXPECT_EQ(c.distinct(), 7u);
}

TEST(CountsLog, FromOutcomesMatchesPerShotAdds)
{
    const std::vector<BasisState> shots = {6, 1, 6, 6, 0, 31, 1, 17};
    Counts perShot(5);
    for (BasisState s : shots)
        perShot.add(s);
    const Counts built = Counts::fromOutcomes(5, shots);
    EXPECT_EQ(built.raw(), perShot.raw());
    EXPECT_EQ(built.total(), perShot.total());
    EXPECT_EQ(built.numBits(), 5u);
    EXPECT_EQ(Counts::fromOutcomes(5, {}).total(), 0u);
    EXPECT_THROW(Counts::fromOutcomes(2, {1, 4}), std::out_of_range);
}

TEST(CountsLog, MergeOfOverlappingLogsIsLinearAndExact)
{
    Counts a(4);
    for (BasisState s : {1u, 4u, 4u, 9u, 14u})
        a.add(s);
    Counts b(4);
    for (BasisState s : {0u, 4u, 9u, 9u, 15u})
        b.add(s);
    Counts merged = a;
    merged.merge(b);
    EXPECT_TRUE(ascending(merged));
    const Counts::Log expected = {{0, 1}, {1, 1}, {4, 3},
                                  {9, 3}, {14, 1}, {15, 1}};
    EXPECT_EQ(merged.raw(), expected);
    EXPECT_EQ(merged.total(), 10u);

    // Disjoint tail, empty operands and self-consistency.
    Counts tail(4);
    tail.add(15, 2);
    Counts head(4);
    head.add(2, 3);
    head.merge(tail);
    EXPECT_EQ(head.raw(), (Counts::Log{{2, 3}, {15, 2}}));
    head.merge(Counts(4));
    EXPECT_EQ(head.total(), 5u);
    Counts empty(4);
    empty.merge(head);
    EXPECT_EQ(empty.raw(), head.raw());
    EXPECT_THROW(empty.merge(Counts(3)), std::invalid_argument);
}

TEST(CountsLog, XorAllAndMarginalizeKeepAscendingOrder)
{
    Counts c(4);
    for (BasisState s = 0; s < 16; ++s)
        c.add(s, s + 1);
    for (BasisState mask : {0b0001u, 0b1010u, 0b1111u}) {
        const Counts flipped = c.xorAll(mask);
        EXPECT_TRUE(ascending(flipped)) << mask;
        EXPECT_EQ(flipped.total(), c.total());
        for (BasisState s = 0; s < 16; ++s)
            EXPECT_EQ(flipped.get(s ^ mask), c.get(s));
    }
    const Counts marg = c.marginalize({3, 0});
    EXPECT_TRUE(ascending(marg));
    EXPECT_EQ(marg.distinct(), 4u);
    EXPECT_EQ(marg.total(), c.total());
    std::uint64_t lowBitsZero = 0; // bit3 = 0, bit0 = 0.
    for (BasisState s = 0; s < 16; ++s) {
        if ((s & 0b1001u) == 0)
            lowBitsZero += s + 1;
    }
    EXPECT_EQ(marg.get(0), lowBitsZero);
}

TEST(CountsLog, GetOnAbsentOutcomesIsZero)
{
    Counts c(6);
    EXPECT_EQ(c.get(0), 0u);
    EXPECT_EQ(c.get(63), 0u);
    c.add(10);
    c.add(40, 3);
    EXPECT_EQ(c.get(9), 0u);  // Below an entry.
    EXPECT_EQ(c.get(11), 0u); // Between entries.
    EXPECT_EQ(c.get(41), 0u); // Past the last entry.
    EXPECT_EQ(c.get(1ULL << 40), 0u); // Wider than the register.
    EXPECT_EQ(c.get(40), 3u);
    EXPECT_DOUBLE_EQ(c.probability(11), 0.0);
}

} // namespace
} // namespace qem

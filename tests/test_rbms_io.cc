/**
 * @file
 * Unit tests for RBMS profile serialization.
 */

#include <sys/resource.h>

#include <gtest/gtest.h>

#include "mitigation/rbms_io.hh"
#include "noise/trajectory.hh"

namespace qem
{
namespace
{

TEST(RbmsIo, ExhaustiveRoundTrip)
{
    ExhaustiveRbms original({0.9, 0.4, 0.7, 0.25});
    const auto parsed = parseRbms(serializeRbms(original));
    ASSERT_NE(parsed, nullptr);
    EXPECT_EQ(parsed->numBits(), 2u);
    for (BasisState s = 0; s < 4; ++s)
        EXPECT_NEAR(parsed->strength(s), original.strength(s),
                    1e-15)
            << s;
    EXPECT_EQ(parsed->strongestState(),
              original.strongestState());
}

TEST(RbmsIo, WindowedRoundTrip)
{
    WindowedRbms original(
        5, {{0, {0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2}},
            {2, {0.95, 0.85, 0.75, 0.65, 0.55, 0.45, 0.35,
                 0.25}}});
    const auto parsed = parseRbms(serializeRbms(original));
    ASSERT_NE(parsed, nullptr);
    EXPECT_EQ(parsed->numBits(), 5u);
    EXPECT_NE(dynamic_cast<const WindowedRbms*>(parsed.get()),
              nullptr);
    for (BasisState s = 0; s < 32; ++s)
        EXPECT_NEAR(parsed->strength(s), original.strength(s),
                    1e-12)
            << s;
    EXPECT_EQ(parsed->strongestState(),
              original.strongestState());
}

TEST(RbmsIo, RoundTripOfMeasuredProfile)
{
    // End-to-end: characterize, save, load, and the loaded profile
    // drives AIM identically.
    NoiseModel model(3);
    model.setReadout(std::make_shared<AsymmetricReadout>(
        std::vector<double>{0.02, 0.05, 0.01},
        std::vector<double>{0.2, 0.1, 0.3}));
    TrajectorySimulator backend(std::move(model), 91);
    const ExhaustiveRbms measured =
        characterizeDirect(backend, {0, 1, 2}, 8192);
    const auto loaded = parseRbms(serializeRbms(measured));
    EXPECT_EQ(loaded->strongestState(),
              measured.strongestState());
    EXPECT_NEAR(loaded->strength(5), measured.strength(5), 1e-12);
}

TEST(RbmsIo, ParserDiagnosesGarbage)
{
    EXPECT_THROW(parseRbms(""), std::invalid_argument);
    EXPECT_THROW(parseRbms("bogus exhaustive 2\n1 1 1 1"),
                 std::invalid_argument);
    EXPECT_THROW(parseRbms("rbms exotic 2\n1 1 1 1"),
                 std::invalid_argument);
    EXPECT_THROW(parseRbms("rbms exhaustive 2\n1 1 1"),
                 std::invalid_argument);
    EXPECT_THROW(parseRbms("rbms exhaustive 2\n1 -1 1 1"),
                 std::invalid_argument);
    EXPECT_THROW(parseRbms("rbms exhaustive 0\n"),
                 std::invalid_argument);
    EXPECT_THROW(
        parseRbms("rbms windowed 5 1\nwidget 0 8\n1 1 1 1 1 1 1 1"),
        std::invalid_argument);
}

TEST(RbmsIo, ParserDiagnosesTruncatedInput)
{
    // Header with no table at all.
    EXPECT_THROW(parseRbms("rbms exhaustive 2\n"),
                 std::invalid_argument);
    // Header cut off before the bit count.
    EXPECT_THROW(parseRbms("rbms exhaustive"),
                 std::invalid_argument);
    // Dense tables above 24 bits would be multi-hundred-MB; the
    // parser refuses rather than allocating.
    EXPECT_THROW(parseRbms("rbms exhaustive 25\n1 1"),
                 std::invalid_argument);
    // Windowed: table shorter than its declared size.
    EXPECT_THROW(parseRbms("rbms windowed 5 1\nwindow 0 8\n"
                           "1 1 1 1"),
                 std::invalid_argument);
    // Windowed: second declared window missing entirely.
    EXPECT_THROW(parseRbms("rbms windowed 5 2\nwindow 0 8\n"
                           "1 1 1 1 1 1 1 1"),
                 std::invalid_argument);
    // Windowed: zero windows declared.
    EXPECT_THROW(parseRbms("rbms windowed 5 0\n"),
                 std::invalid_argument);
}

TEST(RbmsIo, ParserDiagnosesNonNumericStrengths)
{
    EXPECT_THROW(parseRbms("rbms exhaustive 2\n1 squid 1 1"),
                 std::invalid_argument);
    EXPECT_THROW(parseRbms("rbms windowed 5 1\nwindow zero 8\n"
                           "1 1 1 1 1 1 1 1"),
                 std::invalid_argument);
}

TEST(RbmsIo, DeclaredTableSizeIsCheckedBeforeAllocating)
{
    // An 18-byte header for a 2^24-entry table must fail without
    // allocating the 128 MiB table it declares: the peak resident
    // set may not grow by anything near that. (Checked first, while
    // this process's peak is still low.)
    rusage before{};
    ASSERT_EQ(getrusage(RUSAGE_SELF, &before), 0);
    EXPECT_THROW(parseRbms("rbms exhaustive 24"),
                 std::invalid_argument);
    rusage after{};
    ASSERT_EQ(getrusage(RUSAGE_SELF, &after), 0);
    EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 32 * 1024); // KiB

    // A window declaring 2^64 - 1 entries used to reach
    // std::vector's length_error; sizes that are not a power of two
    // up to 2^24 are refused from the header alone.
    EXPECT_THROW(parseRbms("rbms windowed 5 1\n"
                           "window 0 18446744073709551615\n"),
                 std::invalid_argument);
    EXPECT_THROW(parseRbms("rbms windowed 5 1\nwindow 0 33554432\n"),
                 std::invalid_argument);
    EXPECT_THROW(parseRbms("rbms windowed 2 1\nwindow 0 3\n1 1 1"),
                 std::invalid_argument);
}

TEST(RbmsIo, TrailingDataAfterTheLastTableIsRejected)
{
    EXPECT_THROW(parseRbms("rbms exhaustive 1\n1 0.5\nextra"),
                 std::invalid_argument);
    EXPECT_THROW(parseRbms("rbms exhaustive 1\n1 0.5 0.25"),
                 std::invalid_argument);
    EXPECT_THROW(parseRbms("rbms windowed 1 1\nwindow 0 2\n"
                           "1 0.5\nwindow 0 2\n1 0.5"),
                 std::invalid_argument);
    // Trailing whitespace is fine.
    EXPECT_NO_THROW(parseRbms("rbms exhaustive 1\n1 0.5\n \n\t"));
}

TEST(RbmsIo, TableWithNoPositiveStrengthIsRejected)
{
    EXPECT_THROW(parseRbms("rbms exhaustive 2\n0 0 0 0"),
                 std::invalid_argument);
    EXPECT_THROW(parseRbms("rbms windowed 2 2\nwindow 0 2\n1 0.5\n"
                           "window 1 2\n0 0"),
                 std::invalid_argument);
    // One positive entry is enough.
    EXPECT_NO_THROW(parseRbms("rbms exhaustive 2\n0 0 0.5 0"));
}

} // namespace
} // namespace qem

/**
 * @file
 * Integration tests for the MachineSession experiment pipeline.
 */

#include <gtest/gtest.h>

#include "harness/config.hh"
#include "harness/experiment.hh"
#include "harness/table.hh"
#include "kernels/basis.hh"
#include "qsim/bitstring.hh"

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace qem
{
namespace
{

TEST(Experiment, PrepareProducesRunnablePhysicalProgram)
{
    MachineSession session(makeIbmqx2(), 91);
    const auto suite = benchmarkSuiteQ5();
    const TranspiledProgram program =
        session.prepare(suite[0].circuit);
    EXPECT_EQ(program.circuit.numQubits(), 5u);
    EXPECT_EQ(measuredPhysicalQubits(program).size(), 4u);
    BaselinePolicy baseline;
    const Counts counts =
        session.runPolicy(program, baseline, 2000);
    EXPECT_EQ(counts.total(), 2000u);
}

TEST(Experiment, ProfileProgramCoversMeasuredBits)
{
    MachineSession session(makeIbmqx4(), 92);
    const auto suite = benchmarkSuiteQ5();
    const TranspiledProgram program =
        session.prepare(suite[1].circuit);
    const auto rbms = session.profileProgram(program);
    ASSERT_NE(rbms, nullptr);
    EXPECT_EQ(rbms->numBits(), 4u);
}

TEST(Experiment, ComparePoliciesOrderingOnBiasedMachine)
{
    // bv-4B reads the all-ones key: the weak state. On ibmqx4 both
    // mitigations must beat the baseline, and AIM must beat SIM.
    MachineSession session(makeIbmqx4(), 93);
    const auto suite = benchmarkSuiteQ5();
    const auto results = session.comparePolicies(suite[1], 16384);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].policy, "Baseline");
    EXPECT_EQ(results[1].policy, "SIM");
    EXPECT_EQ(results[2].policy, "AIM");
    EXPECT_GT(results[1].report.pst, results[0].report.pst);
    EXPECT_GT(results[2].report.pst, results[1].report.pst);
    EXPECT_GT(results[2].report.ist, results[0].report.ist);
}

TEST(Experiment, MelbourneBvBenefitsFromMitigation)
{
    MachineSession session(makeIbmqMelbourne(), 94);
    const auto suite = benchmarkSuiteQ14();
    const auto results = session.comparePolicies(suite[0], 8192);
    EXPECT_GT(results[1].report.pst, results[0].report.pst);
    EXPECT_GE(results[2].report.pst, results[1].report.pst * 0.9);
}

TEST(Experiment, ConfigEnvOverrides)
{
    unsetenv("INVERTQ_SHOTS");
    unsetenv("INVERTQ_SEED");
    EXPECT_EQ(configuredShots(123), 123u);
    EXPECT_EQ(configuredSeed(7), 7u);
    setenv("INVERTQ_SHOTS", "4096", 1);
    setenv("INVERTQ_SEED", "99", 1);
    EXPECT_EQ(configuredShots(123), 4096u);
    EXPECT_EQ(configuredSeed(7), 99u);
    // Anything but a whole in-range decimal number is refused, and
    // zero shots too; an empty variable keeps the default.
    for (const char* bad : {"garbage", "12abc", "-5", "0", "+7", " 7",
                            "18446744073709551616"}) {
        setenv("INVERTQ_SHOTS", bad, 1);
        EXPECT_THROW(configuredShots(123), std::invalid_argument)
            << bad;
    }
    setenv("INVERTQ_SHOTS", "", 1);
    EXPECT_EQ(configuredShots(123), 123u);
    setenv("INVERTQ_SEED", "-5", 1);
    EXPECT_THROW(configuredSeed(7), std::invalid_argument);
    setenv("INVERTQ_SEED", "0", 1);
    EXPECT_EQ(configuredSeed(7), 0u);
    unsetenv("INVERTQ_SHOTS");
    unsetenv("INVERTQ_SEED");

    // INVERTQ_THREADS=0 keeps meaning the serial backend; a count
    // past unsigned range is refused rather than truncated.
    setenv("INVERTQ_THREADS", "0", 1);
    EXPECT_EQ(configuredThreads(3), 0u);
    setenv("INVERTQ_THREADS", "4294967296", 1);
    EXPECT_THROW(configuredThreads(3), std::invalid_argument);
    setenv("INVERTQ_THREADS", "2x", 1);
    try {
        configuredThreads(3);
        ADD_FAILURE() << "INVERTQ_THREADS=2x was accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("INVERTQ_THREADS"),
                  std::string::npos);
    }
    unsetenv("INVERTQ_THREADS");
}

TEST(Experiment, AsciiTableRendersAlignedColumns)
{
    AsciiTable table({"name", "value"});
    table.addRow({"alpha", "1"});
    table.addRow({"b", "22"});
    const std::string text = table.toString();
    EXPECT_NE(text.find("name"), std::string::npos);
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("---"), std::string::npos);
    EXPECT_THROW(table.addRow({"too", "many", "cells"}),
                 std::invalid_argument);
    EXPECT_THROW(AsciiTable({}), std::invalid_argument);
}

TEST(Experiment, Formatters)
{
    EXPECT_EQ(fmt(1.23456, 2), "1.23");
    EXPECT_EQ(fmt(std::numeric_limits<double>::infinity()), "inf");
    EXPECT_EQ(fmtPercent(0.1234, 1), "12.3%");
    EXPECT_EQ(bar(0.5, 1.0, 10), "#####");
    EXPECT_EQ(bar(2.0, 1.0, 4), "####"); // Saturates.
    EXPECT_EQ(bar(1.0, 0.0, 4), "");
}

} // namespace
} // namespace qem

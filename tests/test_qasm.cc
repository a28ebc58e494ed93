/**
 * @file
 * Unit tests for OpenQASM 2.0 export/import.
 */

#include <string>

#include <gtest/gtest.h>

#include "kernels/bv.hh"
#include "qsim/bitstring.hh"
#include "qsim/qasm.hh"
#include "qsim/simulator.hh"

namespace qem
{
namespace
{

TEST(Qasm, EmitsHeaderAndRegisters)
{
    Circuit c(3, 2);
    const std::string text = toQasm(c);
    EXPECT_NE(text.find("OPENQASM 2.0;"), std::string::npos);
    EXPECT_NE(text.find("qreg q[3];"), std::string::npos);
    EXPECT_NE(text.find("creg c[2];"), std::string::npos);
}

TEST(Qasm, EmitsGatesMeasuresBarriers)
{
    Circuit c(2);
    c.h(0).rx(0.5, 1).cx(0, 1).barrier().measure(1, 0);
    const std::string text = toQasm(c);
    EXPECT_NE(text.find("h q[0];"), std::string::npos);
    EXPECT_NE(text.find("rx(0.5) q[1];"), std::string::npos);
    EXPECT_NE(text.find("cx q[0], q[1];"), std::string::npos);
    EXPECT_NE(text.find("barrier q;"), std::string::npos);
    EXPECT_NE(text.find("measure q[1] -> c[0];"),
              std::string::npos);
}

TEST(Qasm, RoundTripPreservesSemantics)
{
    const BasisState key = fromBitString("101");
    Circuit original = bernsteinVazirani(3, key);
    original.delay(120.5, 2);
    const Circuit parsed = fromQasm(toQasm(original));
    EXPECT_EQ(parsed.numQubits(), original.numQubits());
    EXPECT_EQ(parsed.numClbits(), original.numClbits());
    EXPECT_EQ(parsed.size(), original.size());
    IdealSimulator sim(4, 3);
    EXPECT_EQ(sim.run(parsed, 100).get(key), 100u);
}

TEST(Qasm, RoundTripEveryGateKind)
{
    Circuit c(3);
    c.id(0).x(0).y(1).z(2).h(0).s(1).sdg(2).t(0).tdg(1).sx(2);
    c.rx(0.25, 0).ry(-1.5, 1).rz(3.0, 2).p(0.125, 0);
    c.u2(0.1, 0.2, 1).u3(0.1, 0.2, 0.3, 2);
    c.cx(0, 1).cz(1, 2).swap(0, 2).ccx(0, 1, 2);
    c.measureAll();
    const Circuit parsed = fromQasm(toQasm(c));
    ASSERT_EQ(parsed.size(), c.size());
    for (std::size_t i = 0; i < c.size(); ++i) {
        EXPECT_EQ(parsed.ops()[i].kind, c.ops()[i].kind) << i;
        EXPECT_EQ(parsed.ops()[i].qubits, c.ops()[i].qubits) << i;
        ASSERT_EQ(parsed.ops()[i].params.size(),
                  c.ops()[i].params.size());
        for (std::size_t p = 0; p < c.ops()[i].params.size(); ++p)
            EXPECT_NEAR(parsed.ops()[i].params[p],
                        c.ops()[i].params[p], 1e-9);
    }
}

TEST(Qasm, ParserIgnoresCommentsAndBlankLines)
{
    const std::string text = R"(OPENQASM 2.0;
include "qelib1.inc";
// a comment
qreg q[1];

creg c[1];
h q[0]; // trailing comment
measure q[0] -> c[0];
)";
    const Circuit c = fromQasm(text);
    EXPECT_EQ(c.size(), 2u);
}

TEST(Qasm, ParserDiagnosesErrors)
{
    EXPECT_THROW(fromQasm("h q[0];"), std::invalid_argument);
    EXPECT_THROW(fromQasm("qreg q[1];\ncreg c[1];\nfrob q[0];"),
                 std::invalid_argument);
    EXPECT_THROW(fromQasm("qreg q[1];\ncreg c[1];\nh q[0]"),
                 std::invalid_argument);
    EXPECT_THROW(fromQasm("qreg q[1];\ncreg c[1];\nh q[5];"),
                 std::invalid_argument);
    EXPECT_THROW(fromQasm("qreg q[1];\ncreg c[1];\nrx() q[0];"),
                 std::invalid_argument);
    EXPECT_THROW(fromQasm(""), std::invalid_argument);
}

TEST(Qasm, RegistersOnlyProgramIsAnEmptyCircuit)
{
    // Declarations with no statements are legal QASM: the result is
    // a gate-free circuit of the declared shape.
    const Circuit c = fromQasm("OPENQASM 2.0;\n"
                               "include \"qelib1.inc\";\n"
                               "qreg q[3];\n"
                               "creg c[2];\n");
    EXPECT_EQ(c.numQubits(), 3u);
    EXPECT_EQ(c.numClbits(), 2u);
    EXPECT_EQ(c.size(), 0u);
    EXPECT_FALSE(c.hasMeasurements());
}

TEST(Qasm, CommentsOnlyProgramIsRejected)
{
    // A file of comments and blank lines never declares registers,
    // so the parser must refuse it rather than return a 0-qubit
    // circuit.
    EXPECT_THROW(fromQasm("// nothing here\n"
                          "\n"
                          "   // still nothing\n"),
                 std::invalid_argument);
    EXPECT_THROW(fromQasm("OPENQASM 2.0;\n// just a header\n"),
                 std::invalid_argument);
}

TEST(Qasm, UnknownGateNamesTheOffender)
{
    try {
        fromQasm("qreg q[2];\ncreg c[2];\nxyzzy q[0];");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("xyzzy"), std::string::npos) << what;
        EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    }
}

/**
 * Expect fromQasm(@p text) to fail with a parse error on @p line
 * whose message contains @p needle.
 */
void
expectParseError(const std::string& text, std::size_t line,
                 const std::string& needle)
{
    try {
        fromQasm(text);
        FAIL() << "expected std::invalid_argument for:\n" << text;
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("line " + std::to_string(line) + ":"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
}

TEST(QasmIndexRange, QregSizeBeyondUnsignedIsRejected)
{
    // Truncated to unsigned this is 1: a 1-qubit circuit.
    expectParseError("qreg q[4294967297];\ncreg c[1];\n", 1,
                     "q[4294967297]");
}

TEST(QasmIndexRange, QregSizeAboveSimulatorLimitIsRejected)
{
    expectParseError("qreg q[" +
                         std::to_string(maxSimulatedQubits + 1) +
                         "];\ncreg c[1];\n",
                     1, "exceeds");
    const Circuit widest = fromQasm(
        "qreg q[" + std::to_string(maxSimulatedQubits) +
        "];\ncreg c[1];\n");
    EXPECT_EQ(widest.numQubits(), maxSimulatedQubits);
}

TEST(QasmIndexRange, GateOperandBeyondUnsignedIsRejected)
{
    // Truncated to unsigned this is q[0].
    expectParseError("qreg q[2];\ncreg c[2];\nx q[4294967296];\n", 3,
                     "q[4294967296]");
}

TEST(QasmIndexRange, MeasureTargetBeyondUnsignedIsRejected)
{
    // Truncated to unsigned this is c[0].
    expectParseError("qreg q[2];\ncreg c[2];\n"
                     "measure q[0] -> c[4294967296];\n",
                     3, "c[4294967296]");
}

TEST(QasmIndexRange, NegativeCregSizeIsRejected)
{
    // stoul("-1") wraps to the largest value instead of failing.
    expectParseError("qreg q[2];\ncreg c[-1];\n", 2, "c[-1]");
}

TEST(QasmIndexRange, NegativeQregSizeIsRejected)
{
    // A wrapped -1 reads as "no qreg yet": the error must name the
    // bad token on line 1, not blame the creg.
    expectParseError("qreg q[-1];\ncreg c[1];\n", 1, "q[-1]");
}

TEST(QasmIndexRange, SignedAndHugeIndicesAreRejected)
{
    expectParseError("qreg q[+2];\n", 1, "q[+2]");
    expectParseError("qreg q[2];\ncreg c[65];\n", 2, "exceeds 64");
    expectParseError("qreg q[2];\ncreg c[2];\n"
                     "h q[99999999999999999999999];\n",
                     3, "exceeds");
    expectParseError("qreg q[2];\ncreg c[2];\nh q[0x1];\n", 3,
                     "bad register index");
}

} // namespace
} // namespace qem

/**
 * @file
 * Tests of the precompiled trajectory noise program: the fast-path
 * predicate (stochastic() must see model AND options), lowering
 * invariants, compile()/run() equivalence, and an exact-counts
 * golden pinning bit-identity of the precompiled hot loop across
 * thread counts on the paper machines.
 */

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "kernels/bv.hh"
#include "machine/machines.hh"
#include "noise/noise_program.hh"
#include "noise/trajectory.hh"
#include "qsim/bitstring.hh"
#include "runtime/parallel_backend.hh"
#include "telemetry/json.hh"
#include "transpile/transpiler.hh"
#include "verify/golden.hh"

namespace qem
{
namespace
{

Circuit
xDelayMeasure()
{
    Circuit c(1);
    c.x(0).delay(500.0, 0).measure(0, 0);
    return c;
}

TEST(NoiseProgram, CleanModelIsNotStochastic)
{
    const NoiseProgram p = NoiseProgram::lower(
        xDelayMeasure(), NoiseModel(1), TrajectoryOptions{});
    EXPECT_FALSE(p.stochastic());
}

TEST(NoiseProgram, ReadoutOnlyModelIsNotStochastic)
{
    // Readout confusion is applied per shot, outside the trajectory
    // evolution — it must not defeat the single-trajectory shortcut.
    NoiseModel model(1);
    model.setReadout(std::make_shared<AsymmetricReadout>(
        std::vector<double>{0.1}, std::vector<double>{0.2}));
    const NoiseProgram p = NoiseProgram::lower(
        xDelayMeasure(), model, TrajectoryOptions{});
    EXPECT_FALSE(p.stochastic());
}

TEST(NoiseProgram, StochasticPredicateSeesModelAndOptions)
{
    // The historical bug: eligibility checked model.hasGateNoise()
    // alone, so a model with gate noise but options disabling every
    // stochastic process still paid one trajectory per batch.
    NoiseModel noisy(1);
    noisy.setGate1q(0, {0.05, 120.0});
    noisy.setT1(0, 50000.0);
    noisy.setT2(0, 70000.0);
    const Circuit c = xDelayMeasure();

    EXPECT_TRUE(NoiseProgram::lower(c, noisy, TrajectoryOptions{})
                    .stochastic());

    TrajectoryOptions gateOff;
    gateOff.enableGateErrors = false;
    EXPECT_TRUE(NoiseProgram::lower(c, noisy, gateOff).stochastic())
        << "decay over finite T1 remains stochastic";

    TrajectoryOptions decayOff;
    decayOff.enableDecay = false;
    EXPECT_TRUE(NoiseProgram::lower(c, noisy, decayOff).stochastic())
        << "depolarizing gate errors remain stochastic";

    TrajectoryOptions bothOff;
    bothOff.enableGateErrors = false;
    bothOff.enableDecay = false;
    EXPECT_FALSE(
        NoiseProgram::lower(c, noisy, bothOff).stochastic())
        << "no effectively enabled stochastic process";
}

TEST(NoiseProgram, ZeroRatesLowerToNothingStochastic)
{
    // A model that nominally "has gate noise" but with zero
    // probability and zero duration contributes no stochastic step.
    NoiseModel model(1);
    model.setGate1q(0, {0.0, 0.0});
    const NoiseProgram p = NoiseProgram::lower(
        xDelayMeasure(), model, TrajectoryOptions{});
    EXPECT_FALSE(p.stochastic());
}

TEST(NoiseProgram, GateCountMatchesSourceOperations)
{
    // gatesPerTrajectory counts source unitaries (CCX once, not its
    // 15-gate decomposition), matching pre-lowering telemetry.
    Circuit c(3);
    c.h(0).cx(0, 1).ccx(0, 1, 2).measureAll();
    const NoiseProgram p = NoiseProgram::lower(
        c, NoiseModel(3), TrajectoryOptions{});
    EXPECT_EQ(p.gatesPerTrajectory(), 3u);
    EXPECT_FALSE(p.stochastic());
    EXPECT_GT(p.size(), 3u); // Decomposition emits real steps.
}

TEST(NoiseProgram, EvolveIsDrawIdenticalAcrossSharing)
{
    // One immutable program, two same-seeded streams: evolve() must
    // keep no internal state between trajectories.
    NoiseModel model(2);
    model.setGate1q(0, {0.2, 0.0});
    model.setGate1q(1, {0.2, 0.0});
    Circuit c(2);
    c.h(0).cx(0, 1).measureAll();
    const NoiseProgram p =
        NoiseProgram::lower(c, model, TrajectoryOptions{});
    ASSERT_TRUE(p.stochastic());

    Rng r1(91), r2(91);
    StateVector a(p.compactQubits()), b(p.compactQubits());
    for (int i = 0; i < 20; ++i) {
        a.resetTo(0);
        b.resetTo(0);
        p.evolve(a, r1);
        p.evolve(b, r2);
        for (BasisState s = 0; s < a.dim(); ++s)
            ASSERT_EQ(a.amplitude(s), b.amplitude(s))
                << "trajectory " << i << " state " << s;
    }
}

TEST(NoiseProgram, CompiledRunMatchesDirectRun)
{
    // run(circuit, shots, rng) is defined as compile()->run(); pin
    // that a reused compiled program consumes the stream the same
    // way as compile-per-call.
    const Machine machine = makeIbmqx2();
    const Transpiler transpiler(machine);
    const Circuit c =
        transpiler.transpile(bernsteinVazirani(3, 0b101)).circuit;
    const TrajectorySimulator sim(machine.noiseModel(), 1);
    const auto compiled = sim.compile(c);
    ASSERT_NE(compiled, nullptr);
    Rng direct(77), reused(77);
    for (int round = 0; round < 3; ++round) {
        EXPECT_EQ(sim.run(c, 512, direct).raw(),
                  compiled->run(512, reused).raw())
            << "round " << round;
    }
}

/**
 * Exact-counts golden for the precompiled hot loop (schema
 * invertq.trajectory-exact/v1, distinct from the statistical
 * invertq.golden/v1 store: these counts pin bit-identity, not
 * distributional agreement). Captured from the pre-lowering
 * interpreter; the lowered program must reproduce them exactly,
 * across thread counts. Regenerate with --update-golden.
 */
class TrajectoryExactGolden
{
  public:
    TrajectoryExactGolden()
        : path_(std::string(QEM_GOLDEN_DIR) +
                "/trajectory_program.json"),
          update_(verify::GoldenStore::updateRequested())
    {
    }

    void check(const std::string& name, const Counts& counts)
    {
        if (update_) {
            telemetry::JsonValue rec = telemetry::JsonValue::object();
            rec["bits"] = telemetry::JsonValue(counts.numBits());
            telemetry::JsonValue raw = telemetry::JsonValue::object();
            for (const auto& [state, n] : counts.raw())
                raw[std::to_string(state)] = telemetry::JsonValue(n);
            rec["counts"] = std::move(raw);
            fresh_["records"][name] = std::move(rec);
            return;
        }
        if (root_.isNull()) {
            std::ifstream in(path_);
            ASSERT_TRUE(in.good()) << "missing golden: " << path_;
            std::ostringstream text;
            text << in.rdbuf();
            root_ = telemetry::JsonValue::parse(text.str());
        }
        const telemetry::JsonValue* records = root_.find("records");
        ASSERT_NE(records, nullptr);
        const telemetry::JsonValue* rec = records->find(name);
        ASSERT_NE(rec, nullptr) << "no golden record " << name;
        ASSERT_EQ(rec->find("bits")->asUint(), counts.numBits());
        Counts::Log expected;
        for (const auto& [state, value] :
             rec->find("counts")->members())
            expected.emplace_back(std::stoull(state), value.asUint());
        // JSON keys sort as strings; the log sorts by outcome value.
        std::sort(expected.begin(), expected.end());
        EXPECT_EQ(counts.raw(), expected)
            << name << ": precompiled counts diverged bit-wise "
            << "from the recorded interpreter run";
    }

    ~TrajectoryExactGolden()
    {
        if (!update_)
            return;
        fresh_["schema"] = telemetry::JsonValue(
            "invertq.trajectory-exact/v1");
        std::ofstream out(path_);
        out << fresh_.dump(1) << "\n";
    }

  private:
    std::string path_;
    bool update_ = false;
    telemetry::JsonValue root_;
    telemetry::JsonValue fresh_;
};

TEST(NoiseProgram, PrecompiledCountsMatchInterpreterGolden)
{
    TrajectoryExactGolden golden;
    for (const char* name : {"ibmqx2", "ibmqx4"}) {
        const Machine machine = makeMachine(name);
        const Transpiler transpiler(machine);
        const Circuit c =
            transpiler.transpile(bernsteinVazirani(4, 0b0111))
                .circuit;
        for (unsigned threads : {1u, 4u, 8u}) {
            const TrajectorySimulator proto(machine.noiseModel(),
                                            11);
            ParallelBackend backend(
                proto, 2027,
                RuntimeOptions{.numThreads = threads,
                               .batchSize = 128});
            golden.check(std::string(name) + "/bv4/t" +
                             std::to_string(threads),
                         backend.run(c, 4096));
            if (HasFatalFailure())
                return;
        }
        TrajectorySimulator serial(machine.noiseModel(), 33);
        golden.check(std::string(name) + "/bv4/serial",
                     serial.run(c, 4096));
        if (HasFatalFailure())
            return;
    }
}

} // namespace
} // namespace qem

/**
 * @file
 * Tests of the precompiled trajectory noise program: the fast-path
 * predicate (stochastic() must see model AND options), lowering
 * invariants, compile()/run() equivalence, an exact-counts golden
 * pinning bit-identity of the precompiled hot loop across thread
 * counts on the paper machines, and the no-event path replay
 * against a step-by-step interpreter of the same lowered steps.
 */

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "kernels/benchmarks.hh"
#include "kernels/bv.hh"
#include "machine/machines.hh"
#include "noise/noise_program.hh"
#include "noise/trajectory.hh"
#include "qsim/bitstring.hh"
#include "runtime/parallel_backend.hh"
#include "telemetry/json.hh"
#include "telemetry/telemetry.hh"
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

/** What the step-by-step interpreter saw in one trajectory. */
struct ReferenceRun
{
    TrajectoryEvents events;
    /** Step index of the first noise event; size() if none. */
    std::size_t firstEvent = 0;
};

void
referencePauli(StateVector& state, Qubit q, unsigned pauli)
{
    static const Matrix2 kPauliY = gateMatrix1q(GateKind::Y, {});
    if (pauli == 1)
        state.applyX(q);
    else if (pauli == 2)
        state.applyMatrix1q(kPauliY, q);
    else if (pauli == 3)
        state.applyZ(q);
}

/**
 * Evolve @p p's lowered steps one by one, every decision drawn live
 * from @p rng: the evolution the no-event path replay must
 * reproduce draw for draw.
 */
ReferenceRun
referenceEvolve(const NoiseProgram& p, StateVector& state, Rng& rng)
{
    using K = NoiseStep::Kind;
    ReferenceRun run;
    run.firstEvent = p.size();
    const auto mark = [&](std::size_t i) {
        run.firstEvent = std::min(run.firstEvent, i);
    };
    for (std::size_t i = 0; i < p.size(); ++i) {
        const NoiseStep& s = p.steps()[i];
        switch (s.kind) {
          case K::X: state.applyX(s.q0); break;
          case K::Z: state.applyZ(s.q0); break;
          case K::H: state.applyH(s.q0); break;
          case K::CX: state.applyCX(s.q0, s.q1); break;
          case K::CZ: state.applyCZ(s.q0, s.q1); break;
          case K::SWAP: state.applySwap(s.q0, s.q1); break;
          case K::MATRIX_1Q:
            state.applyMatrix1q(p.matrix1q(s.matrix), s.q0);
            break;
          case K::MATRIX_2Q:
            state.applyMatrix2q(p.matrix2q(s.matrix), s.q0, s.q1);
            break;
          case K::GATE_ERROR_1Q:
            if (rng.bernoulli(s.a)) {
                ++run.events.gateErrors;
                mark(i);
                referencePauli(state, s.q0,
                               static_cast<unsigned>(rng.index(3)) + 1);
            }
            break;
          case K::GATE_ERROR_2Q:
            if (rng.bernoulli(s.a)) {
                ++run.events.gateErrors;
                mark(i);
                unsigned a = 0, b = 0;
                do {
                    a = static_cast<unsigned>(rng.index(4));
                    b = static_cast<unsigned>(rng.index(4));
                } while (a == 0 && b == 0);
                referencePauli(state, s.q0, a);
                referencePauli(state, s.q1, b);
            }
            break;
          case K::DECAY: {
            const DampingResult r =
                state.applyDecay(s.q0, s.a, s.b, rng);
            if (r.applied)
                ++run.events.decayEvents;
            if (r.jumped)
                mark(i);
            break;
          }
        }
    }
    return run;
}

/** Which first-event positions a replay comparison exercised. */
struct ReplayCoverage
{
    std::size_t trajectories = 0;
    std::size_t eventFree = 0;
    std::size_t atFirstDraw = 0;
    std::size_t atLastStep = 0;
};

/**
 * Run @p trajectories through evolve() and the reference from
 * same-seeded streams; require bitwise-equal amplitudes, equal
 * events, and the same next draw after every trajectory.
 */
ReplayCoverage
expectReplayMatchesReference(const NoiseProgram& p,
                             std::size_t trajectories,
                             std::uint64_t seed)
{
    // The first step that can draw: the first gate error, or the
    // first DECAY over a populated qubit (the reference reports it).
    std::size_t firstDrawStep = p.size();
    for (std::size_t i = 0; i < p.size(); ++i) {
        const NoiseStep::Kind k = p.steps()[i].kind;
        if (k == NoiseStep::Kind::GATE_ERROR_1Q ||
            k == NoiseStep::Kind::GATE_ERROR_2Q) {
            firstDrawStep = i;
            break;
        }
    }
    ReplayCoverage cov;
    Rng live(seed), ref(seed);
    StateVector a(p.compactQubits()), b(p.compactQubits());
    for (std::size_t t = 0; t < trajectories; ++t) {
        a.resetTo(0);
        b.resetTo(0);
        const TrajectoryEvents got = p.evolve(a, live);
        const ReferenceRun want = referenceEvolve(p, b, ref);
        EXPECT_EQ(got.gateErrors, want.events.gateErrors)
            << "trajectory " << t;
        EXPECT_EQ(got.decayEvents, want.events.decayEvents)
            << "trajectory " << t;
        EXPECT_EQ(got.eventFree, want.firstEvent == p.size())
            << "trajectory " << t;
        EXPECT_EQ(std::memcmp(a.amplitudes().data(),
                              b.amplitudes().data(),
                              a.dim() * sizeof(Amplitude)),
                  0)
            << "trajectory " << t << ": amplitudes differ bit-wise";
        EXPECT_EQ(live.bits(), ref.bits())
            << "trajectory " << t << ": streams diverged";
        if (::testing::Test::HasFailure())
            return cov;
        ++cov.trajectories;
        cov.eventFree += want.firstEvent == p.size() ? 1 : 0;
        cov.atFirstDraw += want.firstEvent == firstDrawStep ? 1 : 0;
        cov.atLastStep += want.firstEvent + 1 == p.size() ? 1 : 0;
    }
    return cov;
}

TEST(NoEventPathReplay, MatchesReferenceOnPaperMachines)
{
    struct Case
    {
        const char* machine;
        Circuit circuit;
    };
    const std::vector<NisqBenchmark> q14 = benchmarkSuiteQ14();
    std::vector<Case> cases;
    for (const NisqBenchmark& bench : q14)
        cases.push_back({"ibmq_melbourne", bench.circuit});
    for (const NisqBenchmark& bench : benchmarkSuiteQ5())
        cases.push_back({"ibmqx4", bench.circuit});
    std::size_t eventFree = 0;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const Machine machine = makeMachine(cases[i].machine);
        const Circuit circuit =
            Transpiler(machine).transpile(cases[i].circuit).circuit;
        const NoiseProgram p = NoiseProgram::lower(
            circuit, machine.noiseModel(), TrajectoryOptions{});
        ASSERT_TRUE(p.stochastic());
        const ReplayCoverage cov =
            expectReplayMatchesReference(p, 400, 1000 + i);
        ASSERT_FALSE(HasFailure()) << cases[i].machine << " case " << i;
        eventFree += cov.eventFree;
    }
    EXPECT_GT(eventFree, 0u) << "no event-free trajectory exercised";
}

/**
 * H(0) CX(0,1) X(1) with gate errors and idle decay on both qubits:
 * small enough that every first-event position turns up within a
 * few thousand trajectories.
 */
NoiseModel
twoQubitModel(double error_prob, double t1_ns)
{
    NoiseModel model(2);
    for (Qubit q : {0u, 1u}) {
        model.setGate1q(q, {error_prob, 50.0});
        model.setT1(q, t1_ns);
        model.setT2(q, t1_ns);
    }
    model.setGate2q(0, 1, {error_prob, 300.0});
    return model;
}

Circuit
twoQubitCircuit()
{
    Circuit c(2);
    c.h(0).cx(0, 1).x(1).delay(400.0, 0).measureAll();
    return c;
}

TEST(NoEventPathReplay, CoversFirstLastAndEventFreeTrajectories)
{
    const NoiseProgram p = NoiseProgram::lower(
        twoQubitCircuit(), twoQubitModel(0.05, 3000.0),
        TrajectoryOptions{});
    ASSERT_EQ(p.steps().back().kind, NoiseStep::Kind::DECAY);
    const ReplayCoverage cov = expectReplayMatchesReference(p, 4000, 7);
    ASSERT_FALSE(HasFailure());
    EXPECT_GT(cov.atFirstDraw, 0u) << "no event on the first draw";
    EXPECT_GT(cov.atLastStep, 0u) << "no event on the last step";
    EXPECT_GT(cov.eventFree, 0u) << "no event-free trajectory";
    EXPECT_LE(p.pathStates(), NoiseProgram::kMaxCheckpoints + 1);
}

TEST(NoEventPathReplay, DecayOverAnEmptyQubitDrawsNothing)
{
    // Qubit 1 idles in |0> before its first gate: those DECAY steps
    // see p1 = 0, apply nothing and draw nothing, on the path and in
    // the reference alike.
    NoiseModel model = twoQubitModel(0.02, 5000.0);
    Circuit c(2);
    c.delay(800.0, 1).delay(800.0, 0).h(0).cx(0, 1).delay(800.0, 1)
        .measureAll();
    const NoiseProgram p =
        NoiseProgram::lower(c, model, TrajectoryOptions{});
    ASSERT_EQ(p.steps().front().kind, NoiseStep::Kind::DECAY);
    const ReplayCoverage cov = expectReplayMatchesReference(p, 2000, 8);
    ASSERT_FALSE(HasFailure());
    EXPECT_GT(cov.eventFree, 0u);
}

TEST(NoEventPathReplay, CertainDampingEndsThePath)
{
    // T1 far below the delay makes gamma (and lambda) exactly 1.
    // After X the qubit is all |1>, so gamma * p1 = 1: every
    // trajectory that gets there jumps without a draw, and the path
    // stops at that step.
    NoiseModel model(1);
    model.setGate1q(0, {0.01, 0.0});
    model.setT1(0, 1.0);
    model.setT2(0, 1.0);
    Circuit certain(1);
    certain.x(0).delay(1e6, 0).h(0).measureAll();
    const NoiseProgram p =
        NoiseProgram::lower(certain, model, TrajectoryOptions{});
    // Steps: X, its gate error, DECAY. Nearly all first events
    // fall on the DECAY step, so every quantile checkpoint is the
    // state before it; a path that ends there keeps no final state.
    EXPECT_EQ(p.pathStates(), 1u);
    const ReplayCoverage certainCov =
        expectReplayMatchesReference(p, 1000, 9);
    ASSERT_FALSE(HasFailure());
    EXPECT_EQ(certainCov.eventFree, 0u);

    // After H (p1 = 1/2) the same step draws, and its no-jump
    // branch empties the |1> half, so the dephasing that follows
    // sees p1' = 0 and draws nothing.
    Circuit half(1);
    half.h(0).delay(1e6, 0).h(0).measureAll();
    const NoiseProgram q =
        NoiseProgram::lower(half, model, TrajectoryOptions{});
    const ReplayCoverage cov = expectReplayMatchesReference(q, 1000, 10);
    ASSERT_FALSE(HasFailure());
    EXPECT_GT(cov.eventFree, 0u);
    EXPECT_LT(cov.eventFree, cov.trajectories);
}

TEST(NoEventPathReplay, CertainGateErrorEndsThePath)
{
    // errorProb = 1: the gate error fires without a draw in every
    // trajectory, and the Pauli choice after it is drawn live.
    NoiseModel model = twoQubitModel(0.05, 3000.0);
    model.setGate2q(0, 1, {1.0, 300.0});
    const NoiseProgram p = NoiseProgram::lower(
        twoQubitCircuit(), model, TrajectoryOptions{});
    const ReplayCoverage cov = expectReplayMatchesReference(p, 2000, 11);
    ASSERT_FALSE(HasFailure());
    EXPECT_EQ(cov.eventFree, 0u);
}

TEST(NoEventPathReplay, NoiselessProgramCopiesItsFinalState)
{
    const NoiseProgram p = NoiseProgram::lower(
        twoQubitCircuit(), NoiseModel(2), TrajectoryOptions{});
    ASSERT_FALSE(p.stochastic());
    EXPECT_EQ(p.pathStates(), 1u);
    const ReplayCoverage cov = expectReplayMatchesReference(p, 3, 12);
    ASSERT_FALSE(HasFailure());
    EXPECT_EQ(cov.eventFree, 3u);
}

TEST(NoEventPathReplay, WideRegistersKeepFewerStates)
{
    // One 2^15 state is half the path budget: the final state and
    // one checkpoint fit. One 2^17 state exceeds it: nothing is
    // kept, and every trajectory re-applies its prefix from step 0.
    for (unsigned n : {15u, 17u}) {
        NoiseModel model(n);
        Circuit c(n);
        for (Qubit q = 0; q < n; ++q) {
            model.setGate1q(q, {0.01, 0.0});
            c.h(q);
        }
        c.measureAll();
        const NoiseProgram p =
            NoiseProgram::lower(c, model, TrajectoryOptions{});
        const std::size_t stateBytes =
            (std::size_t{1} << n) * sizeof(Amplitude);
        EXPECT_EQ(p.pathStates(), n == 15 ? 2u : 0u) << n;
        EXPECT_LE(p.pathStates() * stateBytes,
                  NoiseProgram::kMaxPathBytes);
        expectReplayMatchesReference(p, 12, 13 + n);
        ASSERT_FALSE(HasFailure()) << n << " qubits";
    }
}

TEST(NoEventPathReplay, CompiledSizeCoversTheCheckpointBuffer)
{
    // The service cache charges a compiled program what bytes()
    // reports, so that must include every state the path keeps.
    const Machine machine = makeIbmqMelbourne();
    const NisqBenchmark bench = benchmarkSuiteQ14().front();
    const Circuit circuit =
        Transpiler(machine).transpile(bench.circuit).circuit;
    const NoiseProgram p = NoiseProgram::lower(
        circuit, machine.noiseModel(), TrajectoryOptions{});
    const std::size_t stateBytes =
        (std::size_t{1} << p.compactQubits()) * sizeof(Amplitude);
    ASSERT_GT(p.pathStates(), 1u);
    EXPECT_LE(p.pathStates(), NoiseProgram::kMaxCheckpoints + 1);
    EXPECT_GE(p.bytes(), p.pathStates() * stateBytes +
                             p.size() * sizeof(NoiseStep));
    const TrajectorySimulator sim(machine.noiseModel(), 1);
    EXPECT_GE(sim.compile(circuit)->bytes(), p.bytes());
}

TEST(NoEventPathReplay, TelemetryCountsEventFreeAndReplayedSteps)
{
    const Machine machine = makeIbmqx4();
    const Circuit c = Transpiler(machine)
                          .transpile(bernsteinVazirani(4, 0b0111))
                          .circuit;
    const TrajectorySimulator sim(machine.noiseModel(), 5);
    const auto compiled = sim.compile(c);
    // reset() zeroes counters but keeps their names registered.
    const auto counter = [](const char* name) -> std::uint64_t {
        const telemetry::MetricsSnapshot snap =
            telemetry::metrics().snapshot();
        const auto it = snap.counters.find(name);
        return it == snap.counters.end() ? 0 : it->second;
    };
    telemetry::setEnabled(false);
    telemetry::metrics().reset();
    Rng quiet(3);
    compiled->run(2048, quiet);
    EXPECT_EQ(counter("trajectory.event_free"), 0u);
    EXPECT_EQ(counter("trajectory.replayed_steps"), 0u);

    telemetry::setEnabled(true);
    Rng loud(3);
    compiled->run(2048, loud);
    telemetry::setEnabled(false);
    const std::uint64_t trajectories =
        counter("trajectory.trajectories");
    const std::uint64_t eventFree = counter("trajectory.event_free");
    const std::uint64_t replayed = counter("trajectory.replayed_steps");
    EXPECT_EQ(trajectories, 2048u / 16u);
    EXPECT_GT(eventFree, 0u);
    EXPECT_LT(eventFree, trajectories);
    EXPECT_GE(replayed, eventFree * NoiseProgram::lower(
                                        c, machine.noiseModel(),
                                        TrajectoryOptions{})
                                        .size());
    telemetry::metrics().reset();
}

} // namespace
} // namespace qem

/**
 * @file
 * Unit tests for the dense state vector: gate application, fast
 * paths vs generic matrices, sampling, and trajectory channels.
 */

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "noise/channels.hh"
#include "qsim/bitstring.hh"
#include "qsim/statevector.hh"

namespace qem
{
namespace
{

TEST(StateVector, InitializesToRequestedBasisState)
{
    StateVector zero(3);
    EXPECT_NEAR(zero.probabilityOf(0), 1.0, 1e-12);
    StateVector five(3, 0b101);
    EXPECT_NEAR(five.probabilityOf(0b101), 1.0, 1e-12);
    EXPECT_EQ(five.dim(), 8u);
    EXPECT_THROW(StateVector(0), std::invalid_argument);
    EXPECT_THROW(StateVector(3, 8), std::out_of_range);
}

TEST(StateVector, XFlipsBasisState)
{
    StateVector s(3);
    s.applyX(1);
    EXPECT_NEAR(s.probabilityOf(0b010), 1.0, 1e-12);
    s.applyX(1);
    EXPECT_NEAR(s.probabilityOf(0), 1.0, 1e-12);
}

TEST(StateVector, HadamardCreatesUniformPair)
{
    StateVector s(1);
    s.applyH(0);
    EXPECT_NEAR(s.probabilityOf(0), 0.5, 1e-12);
    EXPECT_NEAR(s.probabilityOf(1), 0.5, 1e-12);
    s.applyH(0);
    EXPECT_NEAR(s.probabilityOf(0), 1.0, 1e-12);
}

TEST(StateVector, CxEntanglesBellPair)
{
    StateVector s(2);
    s.applyH(0);
    s.applyCX(0, 1);
    EXPECT_NEAR(s.probabilityOf(0b00), 0.5, 1e-12);
    EXPECT_NEAR(s.probabilityOf(0b11), 0.5, 1e-12);
    EXPECT_NEAR(s.probabilityOf(0b01), 0.0, 1e-12);
}

TEST(StateVector, FastPathsMatchGenericMatrices)
{
    // Prepare an arbitrary 3-qubit state, then compare each fast
    // path against applyMatrix1q / applyMatrix2q.
    auto prepare = [] {
        StateVector s(3);
        s.applyH(0);
        s.applyMatrix1q(gateMatrix1q(GateKind::U3, {0.7, 0.2, 1.1}),
                        1);
        s.applyCX(0, 2);
        s.applyMatrix1q(gateMatrix1q(GateKind::T, {}), 2);
        return s;
    };

    {
        StateVector fast = prepare(), slow = prepare();
        fast.applyX(1);
        slow.applyMatrix1q(gateMatrix1q(GateKind::X, {}), 1);
        EXPECT_NEAR(fast.fidelity(slow), 1.0, 1e-12);
    }
    {
        StateVector fast = prepare(), slow = prepare();
        fast.applyZ(2);
        slow.applyMatrix1q(gateMatrix1q(GateKind::Z, {}), 2);
        EXPECT_NEAR(fast.fidelity(slow), 1.0, 1e-12);
    }
    {
        StateVector fast = prepare(), slow = prepare();
        fast.applyH(0);
        slow.applyMatrix1q(gateMatrix1q(GateKind::H, {}), 0);
        EXPECT_NEAR(fast.fidelity(slow), 1.0, 1e-12);
    }
    {
        StateVector fast = prepare(), slow = prepare();
        fast.applyCX(2, 0);
        slow.applyMatrix2q(gateMatrix2q(GateKind::CX), 2, 0);
        EXPECT_NEAR(fast.fidelity(slow), 1.0, 1e-12);
    }
    {
        StateVector fast = prepare(), slow = prepare();
        fast.applyCZ(1, 2);
        slow.applyMatrix2q(gateMatrix2q(GateKind::CZ), 1, 2);
        EXPECT_NEAR(fast.fidelity(slow), 1.0, 1e-12);
    }
    {
        StateVector fast = prepare(), slow = prepare();
        fast.applySwap(0, 2);
        slow.applyMatrix2q(gateMatrix2q(GateKind::SWAP), 0, 2);
        EXPECT_NEAR(fast.fidelity(slow), 1.0, 1e-12);
    }
}

TEST(StateVector, ToffoliDecompositionActsAsCCX)
{
    for (BasisState input = 0; input < 8; ++input) {
        StateVector s(3, input);
        Operation ccx{GateKind::CCX, {0, 1, 2}, {}};
        s.applyOperation(ccx);
        BasisState expected = input;
        if (getBit(input, 0) && getBit(input, 1))
            expected ^= 0b100;
        EXPECT_NEAR(s.probabilityOf(expected), 1.0, 1e-9)
            << "input " << input;
    }
}

TEST(StateVector, ProbabilityOneOfSingleQubit)
{
    StateVector s(2);
    s.applyMatrix1q(gateMatrix1q(GateKind::RY, {2.0 * M_PI / 3}), 0);
    // RY(theta): P(1) = sin^2(theta/2) = sin^2(pi/3) = 3/4.
    EXPECT_NEAR(s.probabilityOne(0), 0.75, 1e-12);
    EXPECT_NEAR(s.probabilityOne(1), 0.0, 1e-12);
}

TEST(StateVector, NormalizeAndNormTracking)
{
    StateVector s(1);
    s.setAmplitude(0, {0.3, 0.0});
    s.setAmplitude(1, {0.0, 0.4});
    EXPECT_NEAR(s.norm(), 0.25, 1e-12);
    s.normalize();
    EXPECT_NEAR(s.norm(), 1.0, 1e-12);
    s.setAmplitude(0, 0);
    s.setAmplitude(1, 0);
    EXPECT_THROW(s.normalize(), std::logic_error);
}

TEST(StateVector, CollapseProjectsAndRenormalizes)
{
    StateVector s(2);
    s.applyH(0);
    s.applyCX(0, 1);
    s.collapseQubit(0, true);
    EXPECT_NEAR(s.probabilityOf(0b11), 1.0, 1e-12);
}

TEST(StateVector, MeasureQubitFollowsBornRule)
{
    Rng rng(5);
    int ones = 0;
    for (int i = 0; i < 4000; ++i) {
        StateVector s(1);
        s.applyMatrix1q(gateMatrix1q(GateKind::RY, {M_PI / 3}), 0);
        ones += s.measureQubit(0, rng);
    }
    // P(1) = sin^2(pi/6) = 0.25.
    EXPECT_NEAR(ones / 4000.0, 0.25, 0.03);
}

TEST(StateVector, SamplingMatchesDistribution)
{
    StateVector s(2);
    s.applyH(0);
    s.applyCX(0, 1);
    Rng rng(6);
    const auto samples = s.sample(rng, 20000);
    std::size_t zeros = 0, threes = 0;
    for (BasisState x : samples) {
        zeros += (x == 0b00);
        threes += (x == 0b11);
    }
    EXPECT_EQ(zeros + threes, samples.size());
    EXPECT_NEAR(zeros / 20000.0, 0.5, 0.02);
}

TEST(StateVector, InnerProductAndFidelity)
{
    StateVector a(2), b(2);
    a.applyH(0);
    EXPECT_NEAR(a.fidelity(b), 0.5, 1e-12);
    b.applyH(0);
    EXPECT_NEAR(a.fidelity(b), 1.0, 1e-12);
    StateVector wide(3);
    EXPECT_THROW(a.innerProduct(wide), std::invalid_argument);
}

TEST(StateVector, KrausAmplitudeDampingStatistics)
{
    // From |1>, the decay jump must fire with probability gamma.
    const double gamma = 0.3;
    const KrausChannel channel = amplitudeDamping(gamma);
    Rng rng(7);
    int jumps = 0;
    const int trials = 5000;
    for (int i = 0; i < trials; ++i) {
        StateVector s(1, 1);
        jumps += (s.applyKraus1q(channel, 0, rng) == 1);
    }
    EXPECT_NEAR(jumps / static_cast<double>(trials), gamma, 0.03);
}

TEST(StateVector, FastDampingMatchesGenericKraus)
{
    // Statistical comparison of P(final=1) after damping a
    // superposition, fast path vs generic Kraus path.
    const double gamma = 0.4;
    auto estimate = [&](bool fast) {
        Rng rng(fast ? 11 : 13);
        double p1 = 0.0;
        const int trials = 4000;
        for (int i = 0; i < trials; ++i) {
            StateVector s(1);
            s.applyMatrix1q(gateMatrix1q(GateKind::RY, {M_PI / 2}),
                            0);
            if (fast) {
                s.applyAmplitudeDamping(0, gamma, rng);
            } else {
                const KrausChannel ch = amplitudeDamping(gamma);
                s.applyKraus1q(ch, 0, rng);
            }
            p1 += s.probabilityOne(0);
        }
        return p1 / trials;
    };
    // Analytic: P(1) = 0.5 (1 - gamma) = 0.3.
    EXPECT_NEAR(estimate(true), 0.3, 0.02);
    EXPECT_NEAR(estimate(false), 0.3, 0.02);
}

TEST(StateVector, KrausConsumesExactlyOneUniform)
{
    // applyKraus1q folds branch selection into a single uniform
    // draw regardless of which branch wins, so channel application
    // is draw-for-draw stable — lowering and interpreter stay on
    // the same rng stream.
    const KrausChannel channel = amplitudeDamping(0.35);
    Rng used(23), reference(23);
    for (int i = 0; i < 64; ++i) {
        StateVector s(1);
        s.applyMatrix1q(gateMatrix1q(GateKind::RY, {1.3}), 0);
        s.applyKraus1q(channel, 0, used);
        reference.uniform(); // The one draw the channel made.
        ASSERT_EQ(used.uniform(), reference.uniform()) << i;
    }
}

TEST(StateVector, KrausUnitBranchSkipsRenormalization)
{
    // When the selected branch already has norm one (identity-like
    // Kraus op), the rescale is skipped: amplitudes stay bit-exact,
    // not merely close.
    const KrausChannel identity{gateMatrix1q(GateKind::ID, {})};
    Rng rng(29);
    StateVector s(2);
    s.applyH(0);
    s.applyMatrix1q(gateMatrix1q(GateKind::U3, {0.9, 0.4, 1.7}), 1);
    const StateVector before = s;
    s.applyKraus1q(identity, 1, rng);
    for (BasisState x = 0; x < s.dim(); ++x)
        ASSERT_EQ(s.amplitude(x), before.amplitude(x)) << x;
}

TEST(StateVector, FastPhaseDampingPreservesPopulations)
{
    const double lambda = 0.5;
    Rng rng(17);
    for (int i = 0; i < 50; ++i) {
        StateVector s(1);
        s.applyMatrix1q(gateMatrix1q(GateKind::RY, {1.1}), 0);
        const double before = s.probabilityOne(0);
        s.applyPhaseDamping(0, lambda, rng);
        // Phase damping never changes populations within a branch
        // on average; each branch is a valid normalized state.
        EXPECT_NEAR(s.norm(), 1.0, 1e-9);
        const double after = s.probabilityOne(0);
        EXPECT_TRUE(after == after); // Not NaN.
        (void)before;
    }
}

TEST(StateVector, DampingOnGroundStateIsIdentity)
{
    Rng rng(19);
    StateVector s(2);
    s.applyH(1); // Qubit 0 stays |0>.
    StateVector copy = s;
    EXPECT_FALSE(s.applyAmplitudeDamping(0, 0.9, rng).applied);
    EXPECT_FALSE(s.applyPhaseDamping(0, 0.9, rng).applied);
    EXPECT_NEAR(s.fidelity(copy), 1.0, 1e-12);
}

TEST(StateVector, ApplyOperationRejectsNonUnitary)
{
    StateVector s(1);
    Operation meas{GateKind::MEASURE, {0}, {}};
    EXPECT_THROW(s.applyOperation(meas), std::invalid_argument);
}

TEST(StateVector, SampleScalesDrawByNormOnSubNormalizedState)
{
    // Regression: sample(Rng&) used an unscaled uniform, so on a
    // sub-normalized state every draw past the total mass fell
    // through to the *last* basis state. With the mass concentrated
    // on |01> and total norm 0.25, the old sampler returned |11>
    // for ~75% of draws; the norm-scaled draw always hits |01>.
    StateVector s(2);
    s.setAmplitude(0, {0.0, 0.0});
    s.setAmplitude(1, {0.5, 0.0});
    Rng rng(101);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(s.sample(rng), 1u) << i;
}

TEST(StateVector, SampleUnbiasedWithinRenormalizeSkipWindow)
{
    // The realistic trigger: post-Kraus norm drift inside the 1e-12
    // renormalize-skip window leaves norm = 1 - eps; the sampler
    // must still distribute mass over the support only, never the
    // fall-through state.
    const double half = std::sqrt(0.5 * (1.0 - 1e-9));
    StateVector s(2);
    s.setAmplitude(0, {half, 0.0});
    s.setAmplitude(3, {half, 0.0});
    Rng rng(202);
    int seen[4] = {0, 0, 0, 0};
    for (int i = 0; i < 2000; ++i) {
        const BasisState x = s.sample(rng);
        ASSERT_TRUE(x == 0 || x == 3) << x;
        ++seen[x];
    }
    // Roughly even split over the support (5 sigma ~ 112).
    EXPECT_GT(seen[0], 800);
    EXPECT_GT(seen[3], 800);
}

TEST(StateVector, KrausFallThroughPicksLargestNormBranch)
{
    // Crafted sub-trace channel: branch norms sum to 0.3, so any
    // draw r >= 0.3 exhausts the cumulative scan. The old code
    // defaulted to the *last* branch — here a zero matrix, which
    // nulls the state and makes normalize() throw logic_error. The
    // fix falls back to the largest-norm branch.
    const double a = std::sqrt(0.3);
    const Matrix2 scaledId{Amplitude{a, 0.0}, Amplitude{0.0, 0.0},
                           Amplitude{0.0, 0.0}, Amplitude{a, 0.0}};
    const Matrix2 zero{Amplitude{0.0, 0.0}, Amplitude{0.0, 0.0},
                       Amplitude{0.0, 0.0}, Amplitude{0.0, 0.0}};
    const std::vector<Matrix2> channel{scaledId, zero};
    Rng rng(303);
    bool sawFallThrough = false;
    for (int i = 0; i < 64; ++i) {
        StateVector s(1);
        s.applyMatrix1q(gateMatrix1q(GateKind::RY, {0.8}), 0);
        // Peek whether this iteration's draw lands past the trace.
        Rng peek = rng;
        if (peek.uniform() >= 0.3)
            sawFallThrough = true;
        std::size_t chosen = 0;
        ASSERT_NO_THROW(chosen = s.applyKraus1q(channel, 0, rng));
        EXPECT_EQ(chosen, 0u) << i;
        EXPECT_NEAR(s.norm(), 1.0, 1e-9) << i;
    }
    // The loop must actually have exercised the fall-through path.
    ASSERT_TRUE(sawFallThrough);
}

TEST(StateVector, DampingNearCertainJumpNeverProducesInf)
{
    // gamma -> 1 on a (nearly) fully excited qubit drives the
    // no-jump rescale factor 1/sqrt(1 - p_jump) toward inf. The
    // degenerate case collapses deterministically instead; sweep
    // the boundary and assert finite, normalized output always.
    const double nearOne = std::nextafter(1.0, 0.0);
    Rng rng(404);
    for (const double gamma : {1.0, nearOne}) {
        for (int i = 0; i < 200; ++i) {
            StateVector s(1);
            s.applyX(0); // p1 == 1 exactly.
            const auto r = s.applyAmplitudeDamping(0, gamma, rng);
            EXPECT_TRUE(r.applied);
            const double n = s.norm();
            ASSERT_TRUE(std::isfinite(n));
            ASSERT_NEAR(n, 1.0, 1e-9);
            if (gamma == 1.0) {
                // Full damping on |1> must land on |0>.
                EXPECT_TRUE(r.jumped);
                EXPECT_NEAR(s.probabilityOf(0), 1.0, 1e-9);
            }
        }
        for (int i = 0; i < 200; ++i) {
            StateVector s(1);
            s.applyX(0);
            const auto r = s.applyPhaseDamping(0, gamma, rng);
            EXPECT_TRUE(r.applied);
            const double n = s.norm();
            ASSERT_TRUE(std::isfinite(n));
            ASSERT_NEAR(n, 1.0, 1e-9);
            if (gamma == 1.0) {
                // Full dephasing jump projects onto |1>.
                EXPECT_TRUE(r.jumped);
                EXPECT_NEAR(s.probabilityOne(0), 1.0, 1e-9);
            }
        }
    }
    // Superposition states at the boundary: the rescale factors are
    // large but must stay finite and re-normalize exactly.
    for (int i = 0; i < 200; ++i) {
        StateVector s(1);
        s.applyMatrix1q(gateMatrix1q(GateKind::RY, {2.7}), 0);
        s.applyAmplitudeDamping(0, nearOne, rng);
        ASSERT_TRUE(std::isfinite(s.norm()));
        ASSERT_NEAR(s.norm(), 1.0, 1e-9);
    }
}

/**
 * Reference for applyDecay(): the two damping channels applied in
 * sequence, amplitude damping then phase damping, each reading the
 * |1> population with its own serial sum and writing its own pass.
 */
DampingResult
referenceDamping(std::vector<Amplitude>& amps, Qubit q, double rate,
                 bool amplitude, Rng& rng)
{
    if (rate <= 0.0)
        return {};
    const std::size_t stride = std::size_t{1} << q;
    const std::size_t n = amps.size();
    double p1 = 0.0;
    for (std::size_t base = stride; base < n; base += 2 * stride) {
        for (std::size_t i = base; i < base + stride; ++i)
            p1 += std::norm(amps[i]);
    }
    if (p1 <= 0.0)
        return {};
    const double p_jump = rate * p1;
    if (rng.bernoulli(p_jump) || 1.0 - p_jump <= 0.0) {
        const double scale = 1.0 / std::sqrt(p1);
        for (std::size_t base = 0; base < n; base += 2 * stride) {
            for (std::size_t i = base; i < base + stride; ++i) {
                amps[i] = amplitude ? amps[i + stride] * scale
                                    : Amplitude{0.0, 0.0};
                amps[i + stride] =
                    amplitude ? Amplitude{0.0, 0.0}
                              : amps[i + stride] * scale;
            }
        }
        return {true, true};
    }
    const double inv = 1.0 / std::sqrt(1.0 - p_jump);
    const double keep = std::sqrt(1.0 - rate) * inv;
    for (std::size_t base = 0; base < n; base += 2 * stride) {
        for (std::size_t i = base; i < base + stride; ++i) {
            amps[i] *= inv;
            amps[i + stride] *= keep;
        }
    }
    return {true, false};
}

DampingResult
referenceDecay(std::vector<Amplitude>& amps, Qubit q, double gamma,
               double lambda, Rng& rng)
{
    const DampingResult amp =
        referenceDamping(amps, q, gamma, true, rng);
    const DampingResult phase =
        referenceDamping(amps, q, lambda, false, rng);
    return {amp.applied || phase.applied, amp.jumped || phase.jumped};
}

/** Seeded random normalized state; qubit @p zeroQubit (if any) is
 *  left exactly in |0>. */
StateVector
randomState(unsigned n, Rng& rng, int zeroQubit = -1)
{
    StateVector s(n);
    for (std::size_t i = 0; i < s.dim(); ++i) {
        const bool zeroed =
            zeroQubit >= 0 && ((i >> zeroQubit) & 1) != 0;
        s.setAmplitude(i, zeroed ? Amplitude{0.0, 0.0}
                                 : Amplitude{rng.uniform(-1.0, 1.0),
                                             rng.uniform(-1.0, 1.0)});
    }
    s.normalize();
    return s;
}

struct DecayCase
{
    const char* name;
    double gamma;
    double lambda;
    bool zeroPopulation;
};

TEST(StateVectorDecay, MatchesSequentialChannelsDrawForDraw)
{
    const DecayCase cases[] = {
        {"gamma only", 0.35, 0.0, false},
        {"lambda only", 0.0, 0.45, false},
        {"both", 0.3, 0.5, false},
        {"gamma = 1", 1.0, 0.4, false},
        {"p1 = 0", 0.6, 0.7, true},
    };
    Rng stateRng(2019);
    std::size_t jumps = 0;
    std::size_t stays = 0;
    for (const DecayCase& c : cases) {
        for (unsigned n = 1; n <= 9; ++n) {
            for (Qubit q = 0; q < n; ++q) {
                for (int trial = 0; trial < 8; ++trial) {
                    const StateVector start = randomState(
                        n, stateRng,
                        c.zeroPopulation ? static_cast<int>(q) : -1);
                    std::vector<Amplitude> expected(start.dim());
                    for (std::size_t i = 0; i < start.dim(); ++i)
                        expected[i] = start.amplitude(i);
                    const std::uint64_t seed =
                        1000003ULL * n + 1009ULL * q + trial;
                    Rng refRng(seed);
                    Rng rng(seed);
                    const DampingResult want = referenceDecay(
                        expected, q, c.gamma, c.lambda, refRng);
                    StateVector actual = start;
                    const DampingResult got =
                        actual.applyDecay(q, c.gamma, c.lambda, rng);

                    SCOPED_TRACE(::testing::Message()
                                 << c.name << " n=" << n << " q=" << q
                                 << " trial=" << trial);
                    // Same draws consumed: the streams stay aligned.
                    ASSERT_EQ(rng.uniform(), refRng.uniform());
                    ASSERT_EQ(got.applied, want.applied);
                    ASSERT_EQ(got.jumped, want.jumped);
                    for (std::size_t i = 0; i < actual.dim(); ++i) {
                        ASSERT_NEAR(actual.amplitude(i).real(),
                                    expected[i].real(), 1e-12);
                        ASSERT_NEAR(actual.amplitude(i).imag(),
                                    expected[i].imag(), 1e-12);
                    }
                    if (c.zeroPopulation)
                        EXPECT_FALSE(got.applied);
                    else
                        (got.jumped ? jumps : stays) += 1;
                }
            }
        }
    }
    // Both branches of the step were exercised.
    EXPECT_GT(jumps, 0u);
    EXPECT_GT(stays, 0u);
}

TEST(StateVectorDecay, SingleRateWrappersAreDecaySteps)
{
    Rng stateRng(77);
    for (unsigned n = 1; n <= 5; ++n) {
        const StateVector start = randomState(n, stateRng);
        StateVector a = start;
        StateVector b = start;
        Rng ra(5);
        Rng rb(5);
        const DampingResult wa = a.applyAmplitudeDamping(n - 1, 0.4, ra);
        const DampingResult wb = b.applyDecay(n - 1, 0.4, 0.0, rb);
        EXPECT_EQ(wa.applied, wb.applied);
        EXPECT_EQ(wa.jumped, wb.jumped);
        EXPECT_EQ(ra.uniform(), rb.uniform());
        for (std::size_t i = 0; i < a.dim(); ++i)
            EXPECT_EQ(a.amplitude(i), b.amplitude(i));

        StateVector c = start;
        StateVector d = start;
        Rng rc(6);
        Rng rd(6);
        const DampingResult wc = c.applyPhaseDamping(0, 0.4, rc);
        const DampingResult wd = d.applyDecay(0, 0.0, 0.4, rd);
        EXPECT_EQ(wc.applied, wd.applied);
        EXPECT_EQ(wc.jumped, wd.jumped);
        EXPECT_EQ(rc.uniform(), rd.uniform());
        for (std::size_t i = 0; i < c.dim(); ++i)
            EXPECT_EQ(c.amplitude(i), d.amplitude(i));
    }
}

TEST(StateVectorDecay, ProbabilityOneMatchesSerialSum)
{
    Rng stateRng(11);
    for (unsigned n = 1; n <= 9; ++n) {
        const StateVector s = randomState(n, stateRng);
        for (Qubit q = 0; q < n; ++q) {
            double serial = 0.0;
            for (std::size_t i = 0; i < s.dim(); ++i) {
                if ((i >> q) & 1)
                    serial += std::norm(s.amplitude(i));
            }
            EXPECT_NEAR(s.probabilityOne(q), serial, 1e-14)
                << "n=" << n << " q=" << q;
        }
    }
}

} // namespace
} // namespace qem

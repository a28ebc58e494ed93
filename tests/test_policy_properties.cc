/**
 * @file
 * Property tests that hold for EVERY mitigation policy: on a
 * noise-free backend the policy is semantically transparent (the
 * circuit's exact answer comes out unchanged), the trial budget is
 * spent exactly, and runs are reproducible per seed.
 */

#include <cmath>
#include <functional>
#include <memory>
#include <ostream>

#include <gtest/gtest.h>

#include "kernels/bv.hh"
#include "metrics/observables.hh"
#include "metrics/reliability.hh"
#include "mitigation/aim_policy.hh"
#include "mitigation/bfa_policy.hh"
#include "mitigation/matrix_correction.hh"
#include "mitigation/rebalance_policy.hh"
#include "mitigation/sim_policy.hh"
#include "noise/trajectory.hh"
#include "qsim/bitstring.hh"
#include "verify/assertions.hh"
#include "verify/oracle.hh"

namespace qem
{
namespace
{

/** Factory so each test gets a fresh policy instance. */
using PolicyFactory =
    std::function<std::unique_ptr<MitigationPolicy>(unsigned bits)>;

std::unique_ptr<MitigationPolicy>
makeAim(unsigned bits)
{
    // A flat RBMS profile (no preference) keeps AIM well-defined
    // without a characterization pass.
    std::vector<double> flat(std::size_t{1} << bits, 1.0);
    return std::make_unique<AdaptiveInvertAndMeasure>(
        std::make_shared<ExhaustiveRbms>(std::move(flat)));
}

std::shared_ptr<const RbmsEstimate>
flatRbms(unsigned bits)
{
    return std::make_shared<ExhaustiveRbms>(
        std::vector<double>(std::size_t{1} << bits, 1.0));
}

struct NamedFactory
{
    const char* name;
    PolicyFactory make;
    /**
     * Sampling policies log every trial verbatim; the matrix filter
     * rewrites the histogram and may lose a shot to rounding.
     */
    bool exactTotal = true;
};

/**
 * Print a parameter as its policy name. Without this gtest prints
 * the struct's raw bytes, pointers included, and the listed test
 * names would change with every build and every address layout.
 */
void
PrintTo(const NamedFactory& factory, std::ostream* os)
{
    *os << factory.name;
}

class PolicyProperties
    : public ::testing::TestWithParam<NamedFactory>
{
};

TEST_P(PolicyProperties, TransparentOnNoiselessBackend)
{
    const BasisState key = fromBitString("0110");
    const Circuit circuit = bernsteinVazirani(4, key);
    TrajectorySimulator backend(NoiseModel(5), 311);
    auto policy = GetParam().make(4);
    const Counts counts = policy->run(circuit, backend, 4096);
    EXPECT_EQ(counts.total(), 4096u);
    EXPECT_NEAR(pst(counts, key), 1.0, 1e-9) << GetParam().name;
}

TEST_P(PolicyProperties, SpendsExactTrialBudget)
{
    NoiseModel model(4);
    model.setReadout(std::make_shared<AsymmetricReadout>(
        std::vector<double>(4, 0.02),
        std::vector<double>(4, 0.15)));
    TrajectorySimulator backend(std::move(model), 312);
    Circuit circuit(4);
    circuit.h(0).cx(0, 1).measureAll();
    auto policy = GetParam().make(4);
    for (std::size_t shots : {100u, 1000u, 4097u}) {
        const std::uint64_t total =
            policy->run(circuit, backend, shots).total();
        if (GetParam().exactTotal) {
            EXPECT_EQ(total, shots) << GetParam().name;
        } else {
            EXPECT_NEAR(static_cast<double>(total),
                        static_cast<double>(shots), 4.0)
                << GetParam().name;
        }
    }
}

TEST_P(PolicyProperties, AgreesWithExactOracleOnRealizedPlan)
{
    // A fourth policy-wide property: conditional on the realized
    // mode plan, the merged log is a multinomial sample from the
    // ExactOracle's mixture. Readout-only noise keeps the backend
    // iid (no trajectory batching), so the G-test's assumptions
    // hold and alpha is the exact false-positive rate.
    NoiseModel model(4);
    model.setReadout(std::make_shared<AsymmetricReadout>(
        std::vector<double>(4, 0.03),
        std::vector<double>(4, 0.12)));
    TrajectorySimulator backend(model, 314);
    const Circuit circuit = bernsteinVazirani(3, 0b110);
    auto policy = GetParam().make(3);
    const Counts counts = policy->run(circuit, backend, 20000);
    const ModePlan plan = policy->lastPlan();
    if (plan.empty()) {
        // The matrix filter rewrites the histogram rather than
        // running inversion modes; there is no plan to condition
        // on, so the oracle property does not apply.
        GTEST_SKIP() << GetParam().name
                     << " records no mode plan";
    }
    const verify::ExactOracle oracle(model);
    const verify::CheckResult fit = verify::checkDistribution(
        counts, oracle.planDistribution(circuit, plan), 1e-6);
    EXPECT_TRUE(fit) << GetParam().name << ": " << fit.message;
}

TEST_P(PolicyProperties, ReproduciblePerSeed)
{
    NoiseModel model(4);
    model.setGate1q(0, {0.02, 0.0});
    model.setReadout(std::make_shared<AsymmetricReadout>(
        std::vector<double>(4, 0.02),
        std::vector<double>(4, 0.15)));
    const Circuit circuit = bernsteinVazirani(3, 0b101);

    TrajectorySimulator b1(model, 313);
    TrajectorySimulator b2(model, 313);
    auto p1 = GetParam().make(3);
    auto p2 = GetParam().make(3);
    EXPECT_EQ(p1->run(circuit, b1, 2000).raw(),
              p2->run(circuit, b2, 2000).raw())
        << GetParam().name;
}

// --- Family-specific properties -----------------------------------

TEST(PolicyFamily, BfaZeroTwirlGroupsEqualsBaseline)
{
    // numGroups == 0 collapses BFA to a single identity-string
    // group with no unfolding, which must be bit-for-bit the
    // baseline run on an identically seeded backend — the twirl
    // machinery adds exactly nothing when it draws nothing.
    NoiseModel model(4);
    model.setReadout(std::make_shared<AsymmetricReadout>(
        std::vector<double>(4, 0.03),
        std::vector<double>(4, 0.12)));
    const Circuit circuit = bernsteinVazirani(3, 0b101);

    TrajectorySimulator b1(model, 411);
    TrajectorySimulator b2(model, 411);
    BaselinePolicy baseline;
    BitFlipAveragePolicy bfa(BfaOptions{.numGroups = 0});
    const Counts reference = baseline.run(circuit, b1, 6000);
    const Counts twirled = bfa.run(circuit, b2, 6000);
    EXPECT_EQ(twirled.raw(), reference.raw());
    const ModePlan plan = bfa.lastPlan();
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0].inversion, 0u);
    EXPECT_EQ(plan[0].shots, 6000u);
}

TEST(PolicyFamily, RebalanceIdentityPrefixEqualsBaseline)
{
    // A flat RBMS has strongest state 0; predicting outcome 0 then
    // yields the identity prefix, and the run must be bit-for-bit
    // the baseline on an identically seeded backend.
    NoiseModel model(4);
    model.setReadout(std::make_shared<AsymmetricReadout>(
        std::vector<double>(4, 0.03),
        std::vector<double>(4, 0.12)));
    const Circuit circuit = bernsteinVazirani(3, 0b011);

    RebalanceOptions options;
    options.predictFromIdeal = false;
    options.predictedOutcome = 0;
    TrajectorySimulator b1(model, 412);
    TrajectorySimulator b2(model, 412);
    BaselinePolicy baseline;
    RebalancePolicy rebalance(flatRbms(3), options);
    const Counts reference = baseline.run(circuit, b1, 6000);
    const Counts steered = rebalance.run(circuit, b2, 6000);
    EXPECT_EQ(steered.raw(), reference.raw());
    ASSERT_EQ(rebalance.lastPlan().size(), 1u);
    EXPECT_EQ(rebalance.lastPlan()[0].inversion, 0u);
}

TEST(PolicyFamily, RebalancePlanReportsPhysicalPrefix)
{
    // The lastPlan() contract (mitigation/policy.hh): plans record
    // the *physical* preparation — the applied X-prefix — not the
    // logical identity the post-corrected log exhibits. With
    // strongest state S and prediction P the recorded inversion
    // must be P XOR S, and holdout replay through that plan
    // prepares the basis states the hardware actually read.
    std::vector<double> table(16, 1.0);
    table[0b0101] = 9.0; // Strongest readout state S = 0101.
    const auto rbms =
        std::make_shared<ExhaustiveRbms>(std::move(table));
    const BasisState key = fromBitString("0110");
    const Circuit circuit = bernsteinVazirani(4, key);

    TrajectorySimulator backend(NoiseModel(5), 413);
    RebalancePolicy rebalance(rbms); // predictFromIdeal
    const Counts counts = rebalance.run(circuit, backend, 2048);

    EXPECT_EQ(rebalance.lastPredicted(), key);
    EXPECT_EQ(RebalancePolicy::prefixFor(key, *rbms),
              key ^ BasisState{0b0101});
    ASSERT_EQ(rebalance.lastPlan().size(), 1u);
    EXPECT_EQ(rebalance.lastPlan()[0].inversion,
              key ^ BasisState{0b0101});
    EXPECT_EQ(rebalance.lastPlan()[0].shots, 2048u);
    // The steering is transparent: post-correction recovers the
    // noiseless answer even though the hardware read 0101.
    EXPECT_NEAR(pst(counts, key), 1.0, 1e-9);
}

/** Share-weighted fraction of @p plan's trials whose twirl string
 *  sets bit @p bit — the realized "half the shots are flipped"
 *  fraction the BFA symmetrization argument is about. */
double
twirledFraction(const ModePlan& plan, unsigned bit)
{
    std::uint64_t total = 0;
    std::uint64_t set = 0;
    for (const ModeShare& mode : plan) {
        total += mode.shots;
        if (getBit(mode.inversion, bit))
            set += mode.shots;
    }
    return total == 0 ? 0.0
                      : static_cast<double>(set) /
                            static_cast<double>(total);
}

TEST(PolicyFamily, BfaExpectationInvariantUnderTwirlSeed)
{
    // BFA's whole point: with the exact symmetrized rates the
    // unfolded <Z_i> do not depend on which twirl strings were
    // drawn. A *finite* twirl set symmetrizes only approximately —
    // when a fraction f of the trials flip bit i, the residual
    // per-bit bias after unfolding is (1 - 2f)(p10 - p01)/(1 - 2p),
    // exactly zero at f = 1/2 and seed-dependent otherwise. So the
    // tolerance is combined shot noise plus the analytic bias bound
    // from the two realized twirl plans (the strings are a pure
    // function of the seed, so the bound is deterministic).
    const double p01 = 0.03;
    const double p10 = 0.12;
    const double symmetrized = 0.5 * (p01 + p10);
    NoiseModel model(3);
    model.setReadout(std::make_shared<AsymmetricReadout>(
        std::vector<double>(3, p01), std::vector<double>(3, p10)));
    // GHZ-3: every <Z_i> sits at 0, far from the clipping region
    // of the tensored unfolding.
    Circuit circuit(3);
    circuit.h(0).cx(0, 1).cx(1, 2).measureAll();

    BfaOptions a;
    a.symmetrizedRates = std::vector<double>(3, symmetrized);
    BfaOptions b = a;
    b.twirlSeed = 987654321;
    ASSERT_NE(BitFlipAveragePolicy::twirlStrings(3, a),
              BitFlipAveragePolicy::twirlStrings(3, b));

    TrajectorySimulator backend_a(model, 414);
    TrajectorySimulator backend_b(model, 414);
    BitFlipAveragePolicy bfa_a(a);
    BitFlipAveragePolicy bfa_b(b);
    const std::size_t shots = 40000;
    const auto za =
        singleQubitZWithErrors(bfa_a.run(circuit, backend_a, shots));
    const auto zb =
        singleQubitZWithErrors(bfa_b.run(circuit, backend_b, shots));
    ASSERT_EQ(za.size(), zb.size());
    for (std::size_t i = 0; i < za.size(); ++i) {
        const unsigned bit = static_cast<unsigned>(i);
        const double sigma =
            std::sqrt(za[i].standardError * za[i].standardError +
                      zb[i].standardError * zb[i].standardError);
        const double bias_bound =
            2.0 *
            std::abs(twirledFraction(bfa_a.lastTwirlPlan(), bit) -
                     twirledFraction(bfa_b.lastTwirlPlan(), bit)) *
            (p10 - p01) / (1.0 - 2.0 * symmetrized);
        EXPECT_NEAR(za[i].value, zb[i].value,
                    5.0 * sigma + bias_bound + 0.01)
            << "bit " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyProperties,
    ::testing::Values(
        NamedFactory{"baseline",
                     [](unsigned) {
                         return std::make_unique<BaselinePolicy>();
                     }},
        NamedFactory{"sim2",
                     [](unsigned bits) {
                         return std::make_unique<
                             StaticInvertAndMeasure>(
                             twoModeStrings(bits));
                     }},
        NamedFactory{"sim4",
                     [](unsigned bits) {
                         return std::make_unique<
                             StaticInvertAndMeasure>(
                             fourModeStrings(bits));
                     }},
        NamedFactory{"sim8",
                     [](unsigned bits) {
                         return std::make_unique<
                             StaticInvertAndMeasure>(
                             multiModeStrings(bits, 3));
                     }},
        NamedFactory{"aim", makeAim},
        NamedFactory{"rebalance",
                     [](unsigned bits) {
                         return std::make_unique<RebalancePolicy>(
                             flatRbms(bits));
                     }},
        NamedFactory{"bfa",
                     [](unsigned) {
                         return std::make_unique<
                             BitFlipAveragePolicy>();
                     }},
        NamedFactory{"matrixinv",
                     [](unsigned) {
                         return std::make_unique<
                             MatrixInversionCorrection>(2048);
                     },
                     /*exactTotal=*/false}),
    [](const ::testing::TestParamInfo<NamedFactory>& info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace qem

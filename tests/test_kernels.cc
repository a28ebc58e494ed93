/**
 * @file
 * Fuzz suite for the statevector kernel implementations.
 *
 * The scalar table is the semantic reference; every other compiled
 * implementation (AVX2 when QEM_SIMD found -mavx2) must reproduce it
 * BIT-FOR-BIT — not approximately — because exact-counts goldens
 * sample from these amplitudes and must not care which kernel ran
 * (kernels.hh documents the no-FMA contract making this possible).
 * Random circuits over every stride combination are replayed under
 * each implementation and the amplitude arrays compared with
 * operator== on the raw doubles.
 */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/bv.hh"
#include "machine/machines.hh"
#include "noise/noise_program.hh"
#include "qsim/kernels/kernels.hh"
#include "qsim/rng.hh"
#include "qsim/statevector.hh"
#include "transpile/transpiler.hh"

namespace qem
{
namespace
{

/** Restore the dispatch table the suite found, whatever a test did. */
class KernelGuard
{
  public:
    KernelGuard()
        : saved_(kernels::active())
    {
    }
    ~KernelGuard() { kernels::setActive(saved_); }

  private:
    kernels::Impl saved_;
};

/** A haar-ish random 1q unitary from three random angles. */
Matrix2
randomUnitary1q(Rng& rng)
{
    return gateMatrix1q(GateKind::U3,
                        {rng.uniform() * 3.0, rng.uniform() * 6.0,
                         rng.uniform() * 6.0});
}

/** Random normalized state over n qubits. */
StateVector
randomState(unsigned n, Rng& rng)
{
    StateVector s(n);
    for (BasisState x = 0; x < s.dim(); ++x)
        s.setAmplitude(x, {rng.uniform() - 0.5,
                           rng.uniform() - 0.5});
    s.normalize();
    return s;
}

/** One random layer of every kernel entry point. */
void
applyRandomLayer(StateVector& s, unsigned n, Rng& rng)
{
    const Qubit q = static_cast<Qubit>(rng.index(n));
    Qubit p = static_cast<Qubit>(rng.index(n));
    if (p == q)
        p = (p + 1) % n;
    if (n == 1) {
        // No distinct partner exists; only 1q entry points apply.
        switch (rng.index(4)) {
          case 0:
            s.applyMatrix1q(randomUnitary1q(rng), q);
            return;
          case 1:
            s.applyH(q);
            return;
          case 2:
            s.applyX(q);
            return;
          default:
            s.applyZ(q);
            return;
        }
    }
    switch (rng.index(8)) {
      case 0:
        s.applyMatrix1q(randomUnitary1q(rng), q);
        break;
      case 1: {
        // Random 2q unitary: CX conjugated by random 1q gates.
        s.applyMatrix1q(randomUnitary1q(rng), q);
        s.applyCX(q, p);
        s.applyMatrix1q(randomUnitary1q(rng), p);
        break;
      }
      case 2:
        s.applyH(q);
        break;
      case 3:
        s.applyX(q);
        break;
      case 4:
        s.applyZ(q);
        break;
      case 5:
        s.applyCX(q, p);
        break;
      case 6:
        s.applyCZ(q, p);
        break;
      default:
        s.applySwap(q, p);
        break;
    }
}

TEST(Kernels, ScalarTableAlwaysAvailable)
{
    EXPECT_TRUE(kernels::available(kernels::Impl::Scalar));
    EXPECT_FALSE(kernels::availableImpls().empty());
    EXPECT_EQ(kernels::availableImpls().front(),
              kernels::Impl::Scalar);
    EXPECT_STREQ(kernels::name(kernels::Impl::Scalar), "scalar");
    EXPECT_STREQ(kernels::name(kernels::Impl::Avx2), "avx2");
}

TEST(Kernels, SetActiveRejectsUnavailableImpl)
{
    KernelGuard guard;
    if (!kernels::available(kernels::Impl::Avx2)) {
        const kernels::Impl before = kernels::active();
        EXPECT_FALSE(kernels::setActive(kernels::Impl::Avx2));
        EXPECT_EQ(kernels::active(), before);
    } else {
        EXPECT_TRUE(kernels::setActive(kernels::Impl::Avx2));
        EXPECT_EQ(kernels::active(), kernels::Impl::Avx2);
    }
    EXPECT_TRUE(kernels::setActive(kernels::Impl::Scalar));
    EXPECT_EQ(kernels::active(), kernels::Impl::Scalar);
}

TEST(Kernels, EveryImplMatchesScalarBitForBit)
{
    // The load-bearing contract: random circuits replayed under
    // every implementation end in the SAME doubles. Qubit counts
    // cover stride 1 (interleaved pairs), the vector width boundary,
    // and large cache-blocked strides.
    KernelGuard guard;
    for (const unsigned n : {1u, 2u, 3u, 5u, 8u}) {
        for (int round = 0; round < 8; ++round) {
            const std::uint64_t seed =
                1000 + n * 100 + static_cast<std::uint64_t>(round);
            Rng init(seed);
            const StateVector start = randomState(n, init);

            ASSERT_TRUE(kernels::setActive(kernels::Impl::Scalar));
            StateVector ref = start;
            {
                Rng ops(seed + 1);
                for (int layer = 0; layer < 24; ++layer)
                    applyRandomLayer(ref, n, ops);
            }
            for (const kernels::Impl impl :
                 kernels::availableImpls()) {
                if (impl == kernels::Impl::Scalar)
                    continue;
                ASSERT_TRUE(kernels::setActive(impl));
                StateVector got = start;
                Rng ops(seed + 1);
                for (int layer = 0; layer < 24; ++layer)
                    applyRandomLayer(got, n, ops);
                for (BasisState x = 0; x < ref.dim(); ++x)
                    ASSERT_EQ(got.amplitude(x), ref.amplitude(x))
                        << kernels::name(impl) << " n=" << n
                        << " round=" << round << " state=" << x;
            }
        }
    }
}

TEST(Kernels, TranspiledPaperCircuitsMatchBitForBit)
{
    // Same contract on the real workload shape: transpiled BV on the
    // paper machines, evolved noiselessly under each implementation.
    KernelGuard guard;
    for (const char* name : {"ibmqx2", "ibmqx4"}) {
        const Machine machine = makeMachine(name);
        const Transpiler transpiler(machine);
        const Circuit c =
            transpiler.transpile(bernsteinVazirani(4, 0b1011))
                .circuit;
        const NoiseModel clean(machine.noiseModel().numQubits());
        const NoiseProgram p =
            NoiseProgram::lower(c, clean, TrajectoryOptions{});

        ASSERT_TRUE(kernels::setActive(kernels::Impl::Scalar));
        StateVector ref(p.compactQubits());
        Rng r1(5);
        p.evolve(ref, r1);
        for (const kernels::Impl impl : kernels::availableImpls()) {
            if (impl == kernels::Impl::Scalar)
                continue;
            ASSERT_TRUE(kernels::setActive(impl));
            StateVector got(p.compactQubits());
            Rng r2(5);
            p.evolve(got, r2);
            for (BasisState x = 0; x < ref.dim(); ++x)
                ASSERT_EQ(got.amplitude(x), ref.amplitude(x))
                    << kernels::name(impl) << " " << name << " "
                    << x;
        }
    }
}

} // namespace
} // namespace qem

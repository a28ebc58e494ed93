#include "qsim/statevector.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "qsim/kernels/kernels.hh"

namespace qem
{

namespace
{

/**
 * Sum of |amps[i]|^2 over the n/2 indices i with bit @p stride set,
 * in one pass. The k-th such index (ascending) feeds accumulator
 * k % 4 and the four partial sums combine as (s0 + s1) + (s2 + s3):
 * four independent add chains instead of one serial chain, in an
 * order fixed by the state alone.
 */
double
populationOne(const Amplitude* amps, std::size_t n, std::size_t stride)
{
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    if (stride >= 4) {
        for (std::size_t base = stride; base < n; base += 2 * stride) {
            for (std::size_t i = base; i < base + stride; i += 4) {
                s0 += std::norm(amps[i]);
                s1 += std::norm(amps[i + 1]);
                s2 += std::norm(amps[i + 2]);
                s3 += std::norm(amps[i + 3]);
            }
        }
        return (s0 + s1) + (s2 + s3);
    }
    // Narrow strides: the k-th index is k with a set bit inserted
    // at the stride position.
    const std::size_t low = stride - 1;
    const auto one = [&](std::size_t k) -> const Amplitude& {
        return amps[((k & ~low) << 1) | stride | (k & low)];
    };
    const std::size_t half = n / 2;
    std::size_t k = 0;
    for (; k + 4 <= half; k += 4) {
        s0 += std::norm(one(k));
        s1 += std::norm(one(k + 1));
        s2 += std::norm(one(k + 2));
        s3 += std::norm(one(k + 3));
    }
    // Registers of one or two qubits: fewer than four indices.
    if (k < half)
        s0 += std::norm(one(k));
    if (k + 1 < half)
        s1 += std::norm(one(k + 1));
    return (s0 + s1) + (s2 + s3);
}

} // namespace

StateVector::StateVector(unsigned num_qubits)
    : StateVector(num_qubits, 0)
{
}

StateVector::StateVector(unsigned num_qubits, BasisState s)
    : numQubits_(num_qubits)
{
    if (num_qubits == 0 || num_qubits > maxSimulatedQubits)
        throw std::invalid_argument("StateVector: qubit count out of "
                                    "supported range");
    amps_.assign(std::size_t{1} << num_qubits, Amplitude{0.0, 0.0});
    if (s >= amps_.size())
        throw std::out_of_range("StateVector: initial basis state out "
                                "of range");
    amps_[s] = 1.0;
}

void
StateVector::resetTo(BasisState s)
{
    if (s >= amps_.size())
        throw std::out_of_range("StateVector::resetTo: state out of "
                                "range");
    std::fill(amps_.begin(), amps_.end(), Amplitude{0.0, 0.0});
    amps_[s] = 1.0;
}

void
StateVector::assign(std::span<const Amplitude> amps)
{
    if (amps.size() != amps_.size())
        throw std::invalid_argument("StateVector::assign: size "
                                    "mismatch");
    std::copy(amps.begin(), amps.end(), amps_.begin());
}

void
StateVector::applyMatrix1q(const Matrix2& m, Qubit q)
{
    kernels::apply1q(amps_.data(), amps_.size(),
                     std::size_t{1} << q, m);
}

void
StateVector::applyMatrix2q(const Matrix4& m, Qubit q0, Qubit q1)
{
    kernels::apply2q(amps_.data(), amps_.size(),
                     std::size_t{1} << q0, std::size_t{1} << q1, m);
}

void
StateVector::applyX(Qubit q)
{
    kernels::applyX(amps_.data(), amps_.size(), std::size_t{1} << q);
}

void
StateVector::applyZ(Qubit q)
{
    kernels::applyZ(amps_.data(), amps_.size(), std::size_t{1} << q);
}

void
StateVector::applyH(Qubit q)
{
    kernels::applyH(amps_.data(), amps_.size(), std::size_t{1} << q);
}

void
StateVector::applyCX(Qubit control, Qubit target)
{
    kernels::applyCX(amps_.data(), amps_.size(),
                     std::size_t{1} << control,
                     std::size_t{1} << target);
}

void
StateVector::applyCZ(Qubit a, Qubit b)
{
    kernels::applyCZ(amps_.data(), amps_.size(),
                     (std::size_t{1} << a) | (std::size_t{1} << b));
}

void
StateVector::applySwap(Qubit a, Qubit b)
{
    kernels::applySwap(amps_.data(), amps_.size(),
                       std::size_t{1} << a, std::size_t{1} << b);
}

void
StateVector::applyOperation(const Operation& op)
{
    switch (op.kind) {
      case GateKind::ID:
        return;
      case GateKind::X:
        applyX(op.qubits[0]);
        return;
      case GateKind::Z:
        applyZ(op.qubits[0]);
        return;
      case GateKind::H:
        applyH(op.qubits[0]);
        return;
      case GateKind::CX:
        applyCX(op.qubits[0], op.qubits[1]);
        return;
      case GateKind::CZ:
        applyCZ(op.qubits[0], op.qubits[1]);
        return;
      case GateKind::SWAP:
        applySwap(op.qubits[0], op.qubits[1]);
        return;
      case GateKind::CCX: {
        // Standard Toffoli decomposition into H/T/CX.
        const Qubit a = op.qubits[0];
        const Qubit b = op.qubits[1];
        const Qubit c = op.qubits[2];
        applyH(c);
        applyCX(b, c);
        applyMatrix1q(gateMatrix1q(GateKind::TDG, {}), c);
        applyCX(a, c);
        applyMatrix1q(gateMatrix1q(GateKind::T, {}), c);
        applyCX(b, c);
        applyMatrix1q(gateMatrix1q(GateKind::TDG, {}), c);
        applyCX(a, c);
        applyMatrix1q(gateMatrix1q(GateKind::T, {}), b);
        applyMatrix1q(gateMatrix1q(GateKind::T, {}), c);
        applyH(c);
        applyCX(a, b);
        applyMatrix1q(gateMatrix1q(GateKind::T, {}), a);
        applyMatrix1q(gateMatrix1q(GateKind::TDG, {}), b);
        applyCX(a, b);
        return;
      }
      default:
        break;
    }
    if (!isUnitary(op.kind))
        throw std::invalid_argument("StateVector::applyOperation: "
                                    "non-unitary operation");
    applyMatrix1q(gateMatrix1q(op.kind, op.params), op.qubits[0]);
}

std::size_t
StateVector::applyKraus1q(std::span<const Matrix2> kraus, Qubit q,
                          Rng& rng)
{
    if (kraus.empty())
        throw std::invalid_argument("applyKraus1q: empty channel");

    // Probability of branch k is || K_k |psi> ||^2, computed in a
    // streaming pass without materializing the branch state. For a
    // trace-preserving channel on a normalized state the branch
    // norms sum to 1, so the branch draw is a single uniform and
    // norms are only evaluated until the cumulative covers it — a
    // weak channel (identity-dominated first branch) pays one pass,
    // not kraus.size() passes.
    const std::size_t stride = std::size_t{1} << q;
    const std::size_t n = amps_.size();
    const double r = rng.uniform();
    double cumulative = 0.0;
    std::size_t chosen = kraus.size();
    double chosenNorm = 0.0;
    std::size_t bestK = 0;
    double bestNorm = -1.0;
    for (std::size_t k = 0; k < kraus.size(); ++k) {
        const Matrix2& m = kraus[k];
        double p = 0.0;
        for (std::size_t base = 0; base < n; base += 2 * stride) {
            for (std::size_t i = base; i < base + stride; ++i) {
                const Amplitude a0 = amps_[i];
                const Amplitude a1 = amps_[i + stride];
                p += std::norm(m[0] * a0 + m[1] * a1);
                p += std::norm(m[2] * a0 + m[3] * a1);
            }
        }
        cumulative += p;
        if (p > bestNorm) {
            bestNorm = p;
            bestK = k;
        }
        if (cumulative > r) {
            chosen = k;
            chosenNorm = p;
            break;
        }
    }
    if (chosen == kraus.size()) {
        // Round-off fall-through: the cumulative branch norms summed
        // to < r (sub-unit trace, or FP drift on a nominally
        // trace-preserving channel). The old behavior defaulted to
        // the *last* branch, which can have ~0 norm and leave a null
        // state; pick the largest-norm branch instead — every branch
        // was already evaluated to get here, so this is free.
        chosen = bestK;
        chosenNorm = bestNorm;
    }

    applyMatrix1q(kraus[chosen], q);
    // The post-apply norm equals the chosen branch norm, so rescale
    // directly instead of re-measuring it — and skip the pass
    // entirely for a branch that preserved the norm (the identity
    // Kraus fast case).
    if (chosenNorm <= 0.0)
        normalize(); // All branches annihilate: preserve the throw.
    else if (std::abs(chosenNorm - 1.0) > 1e-12) {
        const double scale = 1.0 / std::sqrt(chosenNorm);
        for (Amplitude& a : amps_)
            a *= scale;
    }
    return chosen;
}

DampingResult
StateVector::applyAmplitudeDamping(Qubit q, double gamma, Rng& rng)
{
    return applyDecay(q, gamma, 0.0, rng);
}

DampingResult
StateVector::applyPhaseDamping(Qubit q, double lambda, Rng& rng)
{
    return applyDecay(q, 0.0, lambda, rng);
}

DampingResult
StateVector::applyDecay(Qubit q, double gamma, double lambda,
                        DecayDecisions& decisions)
{
    if (gamma <= 0.0 && lambda <= 0.0)
        return {};
    const std::size_t stride = std::size_t{1} << q;
    const std::size_t n = amps_.size();
    // |1> population of the target; every later value is derived
    // from it analytically, so the state is read exactly once.
    double p1 = populationOne(amps_.data(), n, stride);
    if (p1 <= 0.0)
        return {}; // Both channels act trivially on |0>.
    DampingResult result;
    // The whole step is the diagonal scale diag(d0, d1) on the
    // target qubit, except after a decay jump.
    double d0 = 1.0;
    double d1 = 1.0;
    if (gamma > 0.0) {
        result.applied = true;
        const double p_jump = gamma * p1;
        // The degenerate no-jump branch (1 - p_jump rounded to 0;
        // unreachable with Rng::bernoulli, which short-circuits
        // p >= 1) has zero norm, so it collapses into the jump too
        // rather than rescaling by 1/sqrt(0).
        if (decisions.decide(p_jump) || 1.0 - p_jump <= 0.0) {
            // Jump K1 = [[0, sqrt(g)], [0, 0]]: move the |1>
            // component to |0>; the branch norm p_jump folds into
            // the scale. No |1> population is left, so the phase
            // channel that follows is a no-op and draws nothing.
            const double scale = 1.0 / std::sqrt(p1);
            for (std::size_t base = 0; base < n; base += 2 * stride) {
                for (std::size_t i = base; i < base + stride; ++i) {
                    amps_[i] = amps_[i + stride] * scale;
                    amps_[i + stride] = 0.0;
                }
            }
            result.jumped = true;
            return result;
        }
        // No-jump K0 = diag(1, sqrt(1-g)); branch norm 1 - p_jump.
        d0 = 1.0 / std::sqrt(1.0 - p_jump);
        d1 = std::sqrt(1.0 - gamma) * d0;
        p1 *= d1 * d1;
    }
    if (lambda > 0.0 && p1 > 0.0) {
        result.applied = true;
        const double p_jump = lambda * p1;
        if (decisions.decide(p_jump) || 1.0 - p_jump <= 0.0) {
            // Jump K1 = diag(0, sqrt(lambda)): project onto |1>.
            d0 = 0.0;
            d1 *= 1.0 / std::sqrt(p1);
            result.jumped = true;
        } else {
            // No-jump K0 = diag(1, sqrt(1-lambda)).
            const double inv = 1.0 / std::sqrt(1.0 - p_jump);
            d0 *= inv;
            d1 *= std::sqrt(1.0 - lambda) * inv;
        }
    }
    for (std::size_t base = 0; base < n; base += 2 * stride) {
        for (std::size_t i = base; i < base + stride; ++i) {
            amps_[i] *= d0;
            amps_[i + stride] *= d1;
        }
    }
    return result;
}

bool
StateVector::measureQubit(Qubit q, Rng& rng)
{
    const double p1 = probabilityOne(q);
    const bool outcome = rng.bernoulli(p1);
    collapseQubit(q, outcome);
    return outcome;
}

void
StateVector::collapseQubit(Qubit q, bool value)
{
    const std::size_t stride = std::size_t{1} << q;
    const std::size_t n = amps_.size();
    for (std::size_t i = 0; i < n; ++i) {
        const bool bit = (i & stride) != 0;
        if (bit != value)
            amps_[i] = 0.0;
    }
    normalize();
}

double
StateVector::norm() const
{
    double total = 0.0;
    for (const Amplitude& a : amps_)
        total += std::norm(a);
    return total;
}

void
StateVector::normalize()
{
    const double total = norm();
    if (total <= 0.0)
        throw std::logic_error("StateVector::normalize: null state");
    const double scale = 1.0 / std::sqrt(total);
    for (Amplitude& a : amps_)
        a *= scale;
}

double
StateVector::probabilityOf(BasisState s) const
{
    if (s >= amps_.size())
        return 0.0;
    return std::norm(amps_[s]);
}

double
StateVector::probabilityOne(Qubit q) const
{
    return populationOne(amps_.data(), amps_.size(),
                         std::size_t{1} << q);
}

std::vector<double>
StateVector::probabilities() const
{
    std::vector<double> probs(amps_.size());
    for (std::size_t i = 0; i < amps_.size(); ++i)
        probs[i] = std::norm(amps_[i]);
    return probs;
}

BasisState
StateVector::sample(Rng& rng) const
{
    // Scale the draw by the total norm (as sampleInto does): on a
    // sub-normalized state an unscaled uniform over-runs the
    // probability mass and biases toward the fall-through last basis
    // state.
    double r = rng.uniform() * norm();
    for (std::size_t i = 0; i < amps_.size(); ++i) {
        r -= std::norm(amps_[i]);
        if (r < 0.0)
            return i;
    }
    return amps_.size() - 1;
}

std::vector<BasisState>
StateVector::sample(Rng& rng, std::size_t shots) const
{
    std::vector<double> cdf;
    std::vector<BasisState> out;
    sampleInto(rng, shots, cdf, out);
    return out;
}

void
StateVector::sampleInto(Rng& rng, std::size_t shots,
                        std::vector<double>& cdf,
                        std::vector<BasisState>& out) const
{
    // Build the cumulative distribution once; binary-search per shot.
    cdf.resize(amps_.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < amps_.size(); ++i) {
        acc += std::norm(amps_[i]);
        cdf[i] = acc;
    }
    out.clear();
    out.reserve(shots);
    for (std::size_t s = 0; s < shots; ++s) {
        const double r = rng.uniform() * acc;
        const auto it = std::upper_bound(cdf.begin(), cdf.end(), r);
        out.push_back(static_cast<BasisState>(
            std::min<std::size_t>(it - cdf.begin(), cdf.size() - 1)));
    }
}

Amplitude
StateVector::innerProduct(const StateVector& other) const
{
    if (other.numQubits_ != numQubits_)
        throw std::invalid_argument("innerProduct: size mismatch");
    Amplitude acc{0.0, 0.0};
    for (std::size_t i = 0; i < amps_.size(); ++i)
        acc += std::conj(amps_[i]) * other.amps_[i];
    return acc;
}

double
StateVector::fidelity(const StateVector& other) const
{
    return std::norm(innerProduct(other));
}

} // namespace qem

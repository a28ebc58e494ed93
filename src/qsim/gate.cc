#include "qsim/gate.hh"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace qem
{

namespace
{

constexpr Amplitude I{0.0, 1.0};

Amplitude
expi(double theta)
{
    return {std::cos(theta), std::sin(theta)};
}

} // namespace

const char*
gateName(GateKind kind)
{
    switch (kind) {
      case GateKind::ID: return "id";
      case GateKind::X: return "x";
      case GateKind::Y: return "y";
      case GateKind::Z: return "z";
      case GateKind::H: return "h";
      case GateKind::S: return "s";
      case GateKind::SDG: return "sdg";
      case GateKind::T: return "t";
      case GateKind::TDG: return "tdg";
      case GateKind::SX: return "sx";
      case GateKind::RX: return "rx";
      case GateKind::RY: return "ry";
      case GateKind::RZ: return "rz";
      case GateKind::P: return "p";
      case GateKind::U2: return "u2";
      case GateKind::U3: return "u3";
      case GateKind::CX: return "cx";
      case GateKind::CZ: return "cz";
      case GateKind::SWAP: return "swap";
      case GateKind::CCX: return "ccx";
      case GateKind::MEASURE: return "measure";
      case GateKind::RESET: return "reset";
      case GateKind::BARRIER: return "barrier";
      case GateKind::DELAY: return "delay";
    }
    return "?";
}

unsigned
gateArity(GateKind kind)
{
    switch (kind) {
      case GateKind::CX:
      case GateKind::CZ:
      case GateKind::SWAP:
        return 2;
      case GateKind::CCX:
        return 3;
      case GateKind::BARRIER:
        return 0;
      default:
        return 1;
    }
}

unsigned
gateParamCount(GateKind kind)
{
    switch (kind) {
      case GateKind::RX:
      case GateKind::RY:
      case GateKind::RZ:
      case GateKind::P:
      case GateKind::DELAY:
        return 1;
      case GateKind::U2:
        return 2;
      case GateKind::U3:
        return 3;
      default:
        return 0;
    }
}

bool
isUnitary(GateKind kind)
{
    switch (kind) {
      case GateKind::MEASURE:
      case GateKind::RESET:
      case GateKind::BARRIER:
      case GateKind::DELAY:
        return false;
      default:
        return true;
    }
}

Matrix2
gateMatrix1q(GateKind kind, const std::vector<double>& params)
{
    if (params.size() != gateParamCount(kind))
        throw std::invalid_argument("gateMatrix1q: wrong parameter count "
                                    "for gate " + std::string(gateName(kind)));
    const double s2 = 1.0 / std::sqrt(2.0);
    switch (kind) {
      case GateKind::ID:
        return {1, 0, 0, 1};
      case GateKind::X:
        return {0, 1, 1, 0};
      case GateKind::Y:
        return {0, -I, I, 0};
      case GateKind::Z:
        return {1, 0, 0, -1};
      case GateKind::H:
        return {s2, s2, s2, -s2};
      case GateKind::S:
        return {1, 0, 0, I};
      case GateKind::SDG:
        return {1, 0, 0, -I};
      case GateKind::T:
        return {1, 0, 0, expi(M_PI / 4)};
      case GateKind::TDG:
        return {1, 0, 0, expi(-M_PI / 4)};
      case GateKind::SX:
        return {Amplitude(0.5, 0.5), Amplitude(0.5, -0.5),
                Amplitude(0.5, -0.5), Amplitude(0.5, 0.5)};
      case GateKind::RX: {
        const double t = params[0] / 2;
        return {std::cos(t), -I * std::sin(t),
                -I * std::sin(t), std::cos(t)};
      }
      case GateKind::RY: {
        const double t = params[0] / 2;
        return {std::cos(t), -std::sin(t), std::sin(t), std::cos(t)};
      }
      case GateKind::RZ: {
        const double t = params[0] / 2;
        return {expi(-t), 0, 0, expi(t)};
      }
      case GateKind::P:
        return {1, 0, 0, expi(params[0])};
      case GateKind::U2: {
        const double phi = params[0];
        const double lam = params[1];
        return {s2, -s2 * expi(lam), s2 * expi(phi),
                s2 * expi(phi + lam)};
      }
      case GateKind::U3: {
        const double t = params[0] / 2;
        const double phi = params[1];
        const double lam = params[2];
        return {std::cos(t), -expi(lam) * std::sin(t),
                expi(phi) * std::sin(t), expi(phi + lam) * std::cos(t)};
      }
      default:
        throw std::invalid_argument("gateMatrix1q: not a single-qubit "
                                    "unitary: " +
                                    std::string(gateName(kind)));
    }
}

Matrix4
gateMatrix2q(GateKind kind)
{
    // Basis ordering: |q1 q0> = |00>, |01>, |10>, |11> where the first
    // operand of the Operation maps to q0. For CX the control is the
    // first operand, i.e. bit 0 of the index.
    switch (kind) {
      case GateKind::CX:
        return {1, 0, 0, 0,
                0, 0, 0, 1,
                0, 0, 1, 0,
                0, 1, 0, 0};
      case GateKind::CZ:
        return {1, 0, 0, 0,
                0, 1, 0, 0,
                0, 0, 1, 0,
                0, 0, 0, -1};
      case GateKind::SWAP:
        return {1, 0, 0, 0,
                0, 0, 1, 0,
                0, 1, 0, 0,
                0, 0, 0, 1};
      default:
        throw std::invalid_argument("gateMatrix2q: not a two-qubit "
                                    "unitary: " +
                                    std::string(gateName(kind)));
    }
}

Matrix2
dagger(const Matrix2& m)
{
    return {std::conj(m[0]), std::conj(m[2]),
            std::conj(m[1]), std::conj(m[3])};
}

Matrix2
matmul(const Matrix2& a, const Matrix2& b)
{
    return {a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3]};
}

bool
Operation::touches(Qubit q) const
{
    for (Qubit mine : qubits) {
        if (mine == q)
            return true;
    }
    return false;
}

std::string
Operation::toString() const
{
    std::ostringstream os;
    os << gateName(kind);
    if (!params.empty()) {
        os << "(";
        for (std::size_t i = 0; i < params.size(); ++i) {
            if (i)
                os << ", ";
            os << params[i];
        }
        os << ")";
    }
    for (std::size_t i = 0; i < qubits.size(); ++i)
        os << (i ? ", q" : " q") << qubits[i];
    if (kind == GateKind::MEASURE)
        os << " -> c" << cbit;
    return os.str();
}

GateKind
inverseKind(GateKind kind)
{
    switch (kind) {
      case GateKind::S: return GateKind::SDG;
      case GateKind::SDG: return GateKind::S;
      case GateKind::T: return GateKind::TDG;
      case GateKind::TDG: return GateKind::T;
      default: return kind;
    }
}

} // namespace qem

/**
 * @file
 * Gate set and operation record for the circuit IR.
 *
 * The gate set mirrors the physical basis of the 2019-era IBM
 * machines the paper evaluates (u1/u2/u3 single-qubit rotations and
 * CX) plus the usual named aliases (X, H, ...). Matrices are
 * generated on demand from the gate kind and parameters.
 */

#ifndef QEM_QSIM_GATE_HH
#define QEM_QSIM_GATE_HH

#include <array>
#include <string>
#include <vector>

#include "qsim/types.hh"

namespace qem
{

/** Row-major 2x2 complex matrix: {m00, m01, m10, m11}. */
using Matrix2 = std::array<Amplitude, 4>;

/** Row-major 4x4 complex matrix acting on (q1 q0) ordered pairs. */
using Matrix4 = std::array<Amplitude, 16>;

/** Every operation the circuit IR can carry. */
enum class GateKind
{
    // Single-qubit unitaries.
    ID, X, Y, Z, H, S, SDG, T, TDG, SX,
    RX, RY, RZ, P, U2, U3,
    // Two-qubit unitaries.
    CX, CZ, SWAP,
    // Three-qubit unitary.
    CCX,
    // Non-unitary / structural operations.
    MEASURE, RESET, BARRIER, DELAY,
};

/** Human-readable lower-case mnemonic ("cx", "u3", ...). */
const char* gateName(GateKind kind);

/** Number of qubit operands the gate kind requires (0 for BARRIER). */
unsigned gateArity(GateKind kind);

/** Number of real parameters the gate kind requires. */
unsigned gateParamCount(GateKind kind);

/** True for gates with a unitary matrix (i.e. not measure/reset/...). */
bool isUnitary(GateKind kind);

/**
 * Matrix of a single-qubit unitary gate.
 *
 * @param kind A single-qubit unitary GateKind.
 * @param params Gate parameters (angle(s)); size must match
 *               gateParamCount().
 */
Matrix2 gateMatrix1q(GateKind kind, const std::vector<double>& params);

/** Matrix of a two-qubit unitary gate (CX control = operand 0). */
Matrix4 gateMatrix2q(GateKind kind);

/** Hermitian conjugate of a 2x2 matrix. */
Matrix2 dagger(const Matrix2& m);

/** Matrix product a * b of 2x2 matrices. */
Matrix2 matmul(const Matrix2& a, const Matrix2& b);

/**
 * One operation in a circuit: a gate kind, its qubit operands, real
 * parameters, and bookkeeping for measurement and timing.
 */
struct Operation
{
    GateKind kind = GateKind::ID;
    /** Qubit operands; for CX the first entry is the control. */
    std::vector<Qubit> qubits;
    /** Rotation angles or, for DELAY, the duration in nanoseconds. */
    std::vector<double> params;
    /** Destination classical bit for MEASURE; unused otherwise. */
    Clbit cbit = 0;

    /** True if this operation is @p kind acting on qubit @p q. */
    bool touches(Qubit q) const;

    /** Render as e.g. "cx q1, q4" or "measure q0 -> c0". */
    std::string toString() const;
};

/**
 * Name of the inverse gate kind, for Circuit::inverse(). Parameterized
 * rotations invert by negating angles; this helper returns the kind
 * whose matrix is the dagger for the fixed gates (S -> SDG etc.).
 */
GateKind inverseKind(GateKind kind);

} // namespace qem

#endif // QEM_QSIM_GATE_HH

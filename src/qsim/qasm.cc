#include "qsim/qasm.hh"

#include <cctype>
#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>

namespace qem
{

namespace
{

/** Gates emitted/accepted by name with plain operand lists. */
const std::map<std::string, GateKind> namedGates = {
    {"id", GateKind::ID},   {"x", GateKind::X},
    {"y", GateKind::Y},     {"z", GateKind::Z},
    {"h", GateKind::H},     {"s", GateKind::S},
    {"sdg", GateKind::SDG}, {"t", GateKind::T},
    {"tdg", GateKind::TDG}, {"sx", GateKind::SX},
    {"rx", GateKind::RX},   {"ry", GateKind::RY},
    {"rz", GateKind::RZ},   {"p", GateKind::P},
    {"u2", GateKind::U2},   {"u3", GateKind::U3},
    {"cx", GateKind::CX},   {"cz", GateKind::CZ},
    {"swap", GateKind::SWAP}, {"ccx", GateKind::CCX},
    {"delay", GateKind::DELAY},
};

[[noreturn]] void
parseError(std::size_t line_no, const std::string& what)
{
    std::ostringstream os;
    os << "fromQasm: line " << line_no << ": " << what;
    throw std::invalid_argument(os.str());
}

/**
 * Parse "q[3]" -> 3 (register name validated by caller). The index
 * must be plain decimal digits no larger than @p max: a sign, an
 * empty index or an out-of-range value is a parse error, never a
 * truncated or wrapped number.
 */
unsigned
parseIndex(const std::string& token, const std::string& reg,
           unsigned max, std::size_t line_no)
{
    const std::string prefix = reg + "[";
    if (token.size() < prefix.size() + 2 ||
        token.compare(0, prefix.size(), prefix) != 0 ||
        token.back() != ']') {
        parseError(line_no, "expected " + reg + "[i], got '" + token +
                            "'");
    }
    const std::string digits =
        token.substr(prefix.size(), token.size() - prefix.size() - 1);
    std::uint64_t value = 0;
    for (char c : digits) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            parseError(line_no, "bad register index in '" + token +
                                "'");
        value = value * 10 + static_cast<unsigned>(c - '0');
        if (value > max) {
            parseError(line_no, "register index in '" + token +
                                "' exceeds " + std::to_string(max));
        }
    }
    return static_cast<unsigned>(value);
}

/** Largest index accepted in a q[...] / c[...] token. */
constexpr unsigned kMaxQubitIndex = maxSimulatedQubits;
constexpr unsigned kMaxClbitIndex = 64;

/** Split "a, b ,c" on commas and trim whitespace. */
std::vector<std::string>
splitArgs(const std::string& text)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : text) {
        if (c == ',') {
            out.push_back(cur);
            cur.clear();
        } else if (!std::isspace(static_cast<unsigned char>(c))) {
            cur += c;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

} // namespace

std::string
toQasm(const Circuit& circuit)
{
    std::ostringstream os;
    os << "OPENQASM 2.0;\n";
    os << "include \"qelib1.inc\";\n";
    os << "qreg q[" << circuit.numQubits() << "];\n";
    os << "creg c[" << circuit.numClbits() << "];\n";
    for (const Operation& op : circuit.ops()) {
        switch (op.kind) {
          case GateKind::BARRIER:
            os << "barrier q;\n";
            continue;
          case GateKind::MEASURE:
            os << "measure q[" << op.qubits[0] << "] -> c["
               << op.cbit << "];\n";
            continue;
          case GateKind::RESET:
            os << "reset q[" << op.qubits[0] << "];\n";
            continue;
          default:
            break;
        }
        os << gateName(op.kind);
        if (!op.params.empty()) {
            os << "(";
            for (std::size_t i = 0; i < op.params.size(); ++i)
                os << (i ? "," : "") << op.params[i];
            os << ")";
        }
        for (std::size_t i = 0; i < op.qubits.size(); ++i)
            os << (i ? ", q[" : " q[") << op.qubits[i] << "]";
        os << ";\n";
    }
    return os.str();
}

Circuit
fromQasm(const std::string& text)
{
    std::istringstream in(text);
    std::string line;
    std::size_t line_no = 0;
    int num_qubits = -1;
    int num_clbits = -1;
    std::vector<Circuit> holder; // Deferred construction.

    auto circuit = [&]() -> Circuit& {
        if (holder.empty())
            parseError(line_no, "statement before qreg declaration");
        return holder.front();
    };

    while (std::getline(in, line)) {
        ++line_no;
        // Strip comments and surrounding whitespace.
        const std::size_t comment = line.find("//");
        if (comment != std::string::npos)
            line.erase(comment);
        std::size_t begin = line.find_first_not_of(" \t\r");
        if (begin == std::string::npos)
            continue;
        std::size_t end = line.find_last_not_of(" \t\r");
        line = line.substr(begin, end - begin + 1);
        if (line.empty())
            continue;
        if (line.back() != ';')
            parseError(line_no, "missing ';'");
        line.pop_back();

        if (line.rfind("OPENQASM", 0) == 0 ||
            line.rfind("include", 0) == 0) {
            continue;
        }
        if (line.rfind("qreg", 0) == 0) {
            num_qubits = static_cast<int>(parseIndex(
                line.substr(5), "q", kMaxQubitIndex, line_no));
            if (num_clbits >= 0 || !holder.empty())
                parseError(line_no, "qreg after creg/statements");
            continue;
        }
        if (line.rfind("creg", 0) == 0) {
            if (num_qubits < 0)
                parseError(line_no, "creg before qreg");
            num_clbits = static_cast<int>(parseIndex(
                line.substr(5), "c", kMaxClbitIndex, line_no));
            holder.emplace_back(static_cast<unsigned>(num_qubits),
                                num_clbits);
            continue;
        }
        if (line.rfind("barrier", 0) == 0) {
            circuit().barrier();
            continue;
        }
        if (line.rfind("measure", 0) == 0) {
            const std::size_t arrow = line.find("->");
            if (arrow == std::string::npos)
                parseError(line_no, "measure without '->'");
            const auto lhs = splitArgs(line.substr(7,
                                                   arrow - 7));
            const auto rhs = splitArgs(line.substr(arrow + 2));
            if (lhs.size() != 1 || rhs.size() != 1)
                parseError(line_no, "measure takes one qubit and "
                                    "one clbit");
            circuit().measure(
                parseIndex(lhs[0], "q", kMaxQubitIndex, line_no),
                parseIndex(rhs[0], "c", kMaxClbitIndex, line_no));
            continue;
        }
        if (line.rfind("reset", 0) == 0) {
            circuit().reset(parseIndex(splitArgs(line.substr(5)).at(0),
                                       "q", kMaxQubitIndex, line_no));
            continue;
        }

        // Generic gate call: name[(params)] operands.
        std::size_t name_end = 0;
        while (name_end < line.size() &&
               (std::isalnum(static_cast<unsigned char>(
                    line[name_end])) ||
                line[name_end] == '_')) {
            ++name_end;
        }
        const std::string name = line.substr(0, name_end);
        auto it = namedGates.find(name);
        if (it == namedGates.end())
            parseError(line_no, "unknown gate '" + name + "'");

        std::vector<double> params;
        std::size_t rest = name_end;
        if (rest < line.size() && line[rest] == '(') {
            const std::size_t close = line.find(')', rest);
            if (close == std::string::npos)
                parseError(line_no, "unterminated parameter list");
            for (const std::string& p : splitArgs(
                     line.substr(rest + 1, close - rest - 1))) {
                try {
                    params.push_back(std::stod(p));
                } catch (...) {
                    parseError(line_no, "bad parameter '" + p + "'");
                }
            }
            rest = close + 1;
        }

        Operation op;
        op.kind = it->second;
        op.params = std::move(params);
        for (const std::string& q : splitArgs(line.substr(rest)))
            op.qubits.push_back(
                parseIndex(q, "q", kMaxQubitIndex, line_no));
        try {
            circuit().append(std::move(op));
        } catch (const std::exception& e) {
            parseError(line_no, e.what());
        }
    }

    if (holder.empty())
        throw std::invalid_argument("fromQasm: no qreg/creg "
                                    "declarations found");
    return holder.front();
}

} // namespace qem

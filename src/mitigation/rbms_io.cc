#include "mitigation/rbms_io.hh"

#include <bit>
#include <sstream>
#include <stdexcept>

namespace qem
{

namespace
{

[[noreturn]] void
parseFail(const std::string& what)
{
    throw std::invalid_argument("parseRbms: " + what);
}

/** Largest table the format admits: 2^24 strengths, the dense
 *  exhaustive bound. */
constexpr std::size_t kMaxTableSize = std::size_t{1} << 24;

/**
 * Read a declared @p count -entry strength table. The size is
 * checked before any value is read and the table grows only as
 * values arrive, so a short file cannot make the parser allocate
 * what its header claims.
 */
std::vector<double>
readValues(std::istream& in, std::size_t count)
{
    if (count > kMaxTableSize || !std::has_single_bit(count))
        parseFail("table size must be a power of two up to 2^24");
    std::vector<double> values;
    bool positive = false;
    for (std::size_t i = 0; i < count; ++i) {
        double v = 0.0;
        if (!(in >> v))
            parseFail("truncated strength table");
        if (v < 0.0)
            parseFail("negative strength");
        positive = positive || v > 0.0;
        values.push_back(v);
    }
    if (!positive)
        parseFail("strength table has no positive entry");
    return values;
}

/** Reject anything but whitespace after the last table. */
void
expectEnd(std::istream& in)
{
    if (!(in >> std::ws).eof())
        parseFail("trailing data after the last table");
}

} // namespace

std::string
serializeRbms(const RbmsEstimate& rbms)
{
    std::ostringstream os;
    os.precision(17);
    if (const auto* windowed =
            dynamic_cast<const WindowedRbms*>(&rbms)) {
        os << "rbms windowed " << windowed->numBits() << " "
           << windowed->windows().size() << "\n";
        for (const WindowedRbms::Window& w :
             windowed->windows()) {
            os << "window " << w.offset << " " << w.table.size()
               << "\n";
            for (double v : w.table)
                os << v << "\n";
        }
        return os.str();
    }
    // Any other estimate serializes through its dense curve.
    os << "rbms exhaustive " << rbms.numBits() << "\n";
    const std::size_t dim = std::size_t{1} << rbms.numBits();
    for (BasisState s = 0; s < dim; ++s)
        os << rbms.strength(s) << "\n";
    return os.str();
}

std::shared_ptr<const RbmsEstimate>
parseRbms(const std::string& text)
{
    std::istringstream in(text);
    std::string magic, kind;
    if (!(in >> magic >> kind) || magic != "rbms")
        parseFail("missing 'rbms' header");

    if (kind == "exhaustive") {
        unsigned bits = 0;
        if (!(in >> bits) || bits == 0 || bits > 24)
            parseFail("bad bit count");
        std::vector<double> table =
            readValues(in, std::size_t{1} << bits);
        expectEnd(in);
        return std::make_shared<ExhaustiveRbms>(std::move(table));
    }
    if (kind == "windowed") {
        unsigned bits = 0;
        std::size_t window_count = 0;
        if (!(in >> bits >> window_count) || bits == 0 ||
            window_count == 0) {
            parseFail("bad windowed header");
        }
        std::vector<WindowedRbms::Window> windows;
        for (std::size_t w = 0; w < window_count; ++w) {
            std::string tag;
            unsigned offset = 0;
            std::size_t table_size = 0;
            if (!(in >> tag >> offset >> table_size) ||
                tag != "window") {
                parseFail("bad window header");
            }
            WindowedRbms::Window window;
            window.offset = offset;
            window.table = readValues(in, table_size);
            windows.push_back(std::move(window));
        }
        expectEnd(in);
        return std::make_shared<WindowedRbms>(bits,
                                              std::move(windows));
    }
    parseFail("unknown profile kind '" + kind + "'");
}

} // namespace qem

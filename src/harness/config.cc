#include "harness/config.hh"

#include <charconv>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

namespace qem
{

namespace
{

/**
 * Parse env var @p name as a whole decimal number in [@p min,
 * @p max]. Unset or empty keeps @p fallback; anything else (a sign,
 * a suffix, an out-of-range value) throws std::invalid_argument
 * naming the variable.
 */
std::uint64_t
envUint(const char* name, std::uint64_t fallback, std::uint64_t min,
        std::uint64_t max)
{
    const char* raw = std::getenv(name);
    if (!raw || *raw == '\0')
        return fallback;
    const std::string text(raw);
    std::uint64_t v = 0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec != std::errc() || end != text.data() + text.size() ||
        v < min || v > max) {
        throw std::invalid_argument(
            std::string(name) + "='" + text +
            "' is not a whole number in [" + std::to_string(min) +
            ", " + std::to_string(max) + "]");
    }
    return v;
}

} // namespace

std::size_t
configuredShots(std::size_t fallback)
{
    return static_cast<std::size_t>(envUint(
        "INVERTQ_SHOTS", fallback, 1,
        std::numeric_limits<std::size_t>::max()));
}

std::uint64_t
configuredSeed(std::uint64_t fallback)
{
    return envUint("INVERTQ_SEED", fallback, 0,
                   std::numeric_limits<std::uint64_t>::max());
}

unsigned
configuredThreads(unsigned fallback)
{
    return static_cast<unsigned>(
        envUint("INVERTQ_THREADS", fallback, 0,
                std::numeric_limits<unsigned>::max()));
}

bool
configuredOracle()
{
    const char* raw = std::getenv("INVERTQ_ORACLE");
    return raw != nullptr && *raw != '\0';
}

} // namespace qem

#include "runtime/fault_injection.hh"

#include <cstdlib>
#include <stdexcept>

namespace qem
{

namespace
{

/** splitmix64: the decision hash for rate faults. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

std::uint64_t
parseUint(const std::string& value, const std::string& key)
{
    std::size_t used = 0;
    const unsigned long long v = std::stoull(value, &used);
    if (used != value.size()) {
        throw std::invalid_argument("INVERTQ_FAULTS: trailing "
                                    "junk in '" +
                                    key + "=" + value + "'");
    }
    return v;
}

} // namespace

FaultOptions
FaultOptions::parse(const std::string& spec)
{
    FaultOptions options;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t end = spec.find(',', pos);
        if (end == std::string::npos)
            end = spec.size();
        const std::string item = spec.substr(pos, end - pos);
        pos = end + 1;
        if (item.empty())
            continue;
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos) {
            throw std::invalid_argument(
                "INVERTQ_FAULTS: expected key=value, got '" +
                item + "'");
        }
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);
        try {
            if (key == "rate") {
                options.failureRate = std::stod(value);
            } else if (key == "kind") {
                if (value == "transient")
                    options.kind = FaultKind::Transient;
                else if (value == "fatal")
                    options.kind = FaultKind::Fatal;
                else
                    throw std::invalid_argument(
                        "INVERTQ_FAULTS: unknown kind '" + value +
                        "'");
            } else if (key == "after") {
                options.failAfter = static_cast<std::int64_t>(
                    parseUint(value, key));
            } else if (key == "count") {
                options.failCount = parseUint(value, key);
            } else if (key == "seed") {
                options.seed = parseUint(value, key);
            } else {
                throw std::invalid_argument(
                    "INVERTQ_FAULTS: unknown key '" + key + "'");
            }
        } catch (const std::invalid_argument&) {
            throw;
        } catch (const std::exception&) {
            throw std::invalid_argument(
                "INVERTQ_FAULTS: malformed value in '" + item +
                "'");
        }
    }
    if (options.failureRate < 0.0 || options.failureRate > 1.0) {
        throw std::invalid_argument("INVERTQ_FAULTS: rate must be "
                                    "in [0, 1]");
    }
    return options;
}

std::optional<FaultOptions>
FaultOptions::fromEnv()
{
    const char* env = std::getenv("INVERTQ_FAULTS");
    if (env == nullptr || *env == '\0')
        return std::nullopt;
    return parse(env);
}

FaultInjectingBackend::FaultInjectingBackend(
    std::unique_ptr<ShardedBackend> inner, FaultOptions options)
    : inner_(std::move(inner)), options_(options)
{
    if (!inner_)
        throw std::invalid_argument("FaultInjectingBackend: null "
                                    "inner backend");
}

void
FaultInjectingBackend::maybeFail(std::uint64_t index) const
{
    bool fail = false;
    if (options_.failAfter >= 0 &&
        index >= static_cast<std::uint64_t>(options_.failAfter) &&
        index - static_cast<std::uint64_t>(options_.failAfter) <
            options_.failCount) {
        fail = true;
    }
    if (!fail && options_.failureRate > 0.0) {
        // Hash-keyed decision: independent of the caller's shot
        // stream, so retried work replays identical counts.
        const double u =
            static_cast<double>(mix64(options_.seed ^ index) >>
                                11) *
            0x1.0p-53;
        fail = u < options_.failureRate;
    }
    if (!fail)
        return;
    failures_.fetch_add(1, std::memory_order_relaxed);
    const std::string what =
        "injected fault at call " + std::to_string(index);
    if (options_.kind == FaultKind::Fatal)
        throw FatalError(what);
    throw TransientError(what);
}

Counts
FaultInjectingBackend::run(const Circuit& circuit,
                           std::size_t shots)
{
    maybeFail(calls_.fetch_add(1, std::memory_order_relaxed));
    return inner_->run(circuit, shots);
}

Counts
FaultInjectingBackend::run(const Circuit& circuit,
                           std::size_t shots, Rng& rng) const
{
    maybeFail(calls_.fetch_add(1, std::memory_order_relaxed));
    return inner_->run(circuit, shots, rng);
}

std::unique_ptr<ShardedBackend>
FaultInjectingBackend::clone() const
{
    return std::make_unique<FaultInjectingBackend>(inner_->clone(),
                                                   options_);
}

std::vector<std::unique_ptr<ShardedBackend>>
cloneWorkers(const ShardedBackend& prototype, std::size_t count)
{
    const std::optional<FaultOptions> faults = FaultOptions::fromEnv();
    std::vector<std::unique_ptr<ShardedBackend>> workers;
    workers.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        std::unique_ptr<ShardedBackend> worker = prototype.clone();
        if (faults) {
            FaultOptions perWorker = *faults;
            perWorker.seed +=
                0x9E3779B97F4A7C15ULL * (i + 1); // Decorrelate.
            worker = std::make_unique<FaultInjectingBackend>(
                std::move(worker), perWorker);
        }
        workers.push_back(std::move(worker));
    }
    return workers;
}

} // namespace qem

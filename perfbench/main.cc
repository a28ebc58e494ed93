/**
 * @file
 * The perfbench binary. Usage:
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--out-dir <dir>] [--source-id <id>]
 *
 * Runs one workload, prints the fingerprint, the run details and the
 * output checks, and writes the result record
 * <out-dir>/result-<workload>-seed<n>-trace<t>.json: fingerprint,
 * correctness, request counts and every metric the run measured.
 * run.py prints the metrics BENCHMARK.json lists from that record;
 * compare.py compares records.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "qsim/kernels/kernels.hh"

namespace
{

using namespace perfbench;
using qem::telemetry::JsonValue;

Options
parseArgs(int argc, char** argv)
{
    Options options;
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            options.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            options.seed = std::stoull(value);
            haveSeed = true;
        } else if (flag == "--seconds") {
            options.seconds = std::stod(value);
            haveSeconds = options.seconds > 0.0;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                throw std::invalid_argument("--trace takes 0 or 1");
            options.trace = value == "1";
            haveTrace = true;
        } else if (flag == "--out-dir") {
            options.outDir = value;
        } else if (flag == "--source-id") {
            options.sourceId = value;
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
    }
    if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace)
        throw std::invalid_argument(
            "need --workload, --seed, --seconds (> 0) and --trace");
    return options;
}

/** First value of "<key> : value" in /proc/cpuinfo, or "". */
std::string
cpuinfoField(const std::string& key)
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, key.size(), key) != 0)
            continue;
        const auto colon = line.find(':');
        if (colon != std::string::npos)
            return line.substr(line.find_first_not_of(' ', colon + 1));
    }
    return "";
}

JsonValue
fingerprint(const Options& options, const Report& report)
{
    JsonValue fp = JsonValue::object();
    fp["nproc"] = std::thread::hardware_concurrency();
    fp["cpu_model"] = cpuinfoField("model name");
    std::istringstream words(cpuinfoField("flags"));
    const std::set<std::string> flags{
        std::istream_iterator<std::string>(words),
        std::istream_iterator<std::string>()};
    std::string isa;
    for (const char* flag : {"sse4_2", "avx", "avx2", "fma", "avx512f"}) {
        if (flags.count(flag) == 0)
            continue;
        if (!isa.empty())
            isa += ',';
        isa += flag;
    }
    fp["isa"] = isa;
    fp["kernels"] = qem::kernels::name(qem::kernels::active());
    fp["build_type"] = PERFBENCH_BUILD_TYPE;
    fp["compiler"] = __VERSION__;
    fp["source_id"] = options.sourceId;
    for (const char* key : {"workers", "caller_threads", "generator_threads",
                            "client_threads", "maintenance_threads"}) {
        if (const JsonValue* value = report.details.find(key))
            fp[key] = *value;
    }
    return fp;
}

} // namespace

int
main(int argc, char** argv)
{
    const double processStart = now();
    Options options;
    try {
        options = parseArgs(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }

    Report report;
    try {
        if (options.workload == "q14-session-sweep")
            report = runSessionSweep(options, processStart);
        else if (options.workload == "q5-service-open")
            report = runServiceTraffic(options, false, processStart);
        else if (options.workload == "q5-service-drift")
            report = runServiceTraffic(options, true, processStart);
        else
            throw std::invalid_argument("unknown workload " +
                                        options.workload);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    JsonValue metrics = JsonValue::object();
    for (const auto* values : {&report.endToEnd, &report.perLayer}) {
        for (const auto& [name, value] : *values) {
            if (!std::isfinite(value))
                report.fail("metric " + name + " is not finite");
            metrics[name] = std::isfinite(value) ? value : 0.0;
        }
    }
    const bool correct = report.checkFailures.empty();

    const JsonValue fp = fingerprint(options, report);
    std::printf("== perfbench %s seed %llu, %g s, trace %s ==\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? "on" : "off");
    std::printf("fingerprint: %s\n", fp.dump().c_str());
    std::printf("details: %s\n", report.details.dump().c_str());
    std::printf("requests: attempted %llu, failed %llu\n",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));
    // End-to-end figures outside BENCHMARK.json's bounded set: the
    // latency tails swing with the host's load, recalibration lag
    // exists only under drift, and failed_frac is 0 on a healthy run.
    std::printf("also measured (not bounded):\n");
    const auto figure = [&](const char* name, const char* unit,
                            const std::string& note) {
        if (const JsonValue* value = report.details.find(name))
            std::printf("  %-36s %16.6g %s%s\n", name, value->asDouble(),
                        unit, note.c_str());
    };
    figure("request_latency_p90_s", "s", "  (median of windowed p90s)");
    if (const JsonValue* q =
            report.details.find("request_latency_tail_quantile")) {
        char note[96];
        std::snprintf(
            note, sizeof note, "  (nearest-rank p%g of %llu requests)",
            100.0 * q->asDouble(),
            static_cast<unsigned long long>(
                report.details.find("request_latency_samples")->asUint()));
        figure("request_latency_p99_s", "s", note);
    }
    figure("recal_lag_p50_s", "s", "");
    std::printf("  %-36s %16.6g ratio\n", "failed_frac",
                report.attempted > 0
                    ? static_cast<double>(report.failed) /
                          static_cast<double>(report.attempted)
                    : 0.0);
    std::printf("checks: %s\n", correct ? "passed" : "FAILED");
    for (const std::string& failure : report.checkFailures)
        std::printf("  %s\n", failure.c_str());

    JsonValue record = JsonValue::object();
    record["schema"] = "invertq.perfbench/v1";
    record["workload"] = options.workload;
    record["seed"] = options.seed;
    record["seconds"] = options.seconds;
    record["trace"] = options.trace;
    record["fingerprint"] = fp;
    record["correct"] = correct;
    record["attempted"] = report.attempted;
    record["failed"] = report.failed;
    JsonValue failures = JsonValue::array();
    for (const std::string& failure : report.checkFailures)
        failures.push(failure);
    record["check_failures"] = std::move(failures);
    record["metrics"] = std::move(metrics);
    record["details"] = report.details;
    const std::string path = options.outDir + "/result-" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             "-trace" + (options.trace ? "1" : "0") + ".json";
    std::ofstream out(path);
    out << record.dump(2) << "\n";
    if (!out) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return 1;
    }
    return 0;
}

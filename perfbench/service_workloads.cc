/**
 * @file
 * q5-service-open and q5-service-drift: open-loop tenant traffic
 * through one JobService.
 *
 * Requests arrive on a Poisson schedule drawn from the workload
 * seed, at one fixed rate, from three tenants with mixed
 * priorities. Each request is a Q5 benchmark on ibmqx2 or ibmqx4,
 * run as Baseline (one job) or SIM (four jobs built with
 * fourModeStrings + applyInversion, un-inverted and merged by the
 * client). A shot costs about half a microsecond here, so queue
 * wait, dispatch, admission and client post-processing own the
 * latency: this is where service and mitigation changes show and
 * kernel changes barely register.
 *
 * The drift workload replays the same traffic while each machine
 * follows a DriftSchedule: at fixed request indices the generator
 * swaps in the next drifted day with replaceMachine, and a
 * maintenance thread runs one RecalibrationScheduler::checkNow()
 * pass, whose Background re-profiling shares the pool with tenant
 * reads and whose generation bump forces compile misses.
 */

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>

#include "bench.hh"
#include "harness/experiment.hh"
#include "machine/drift.hh"
#include "service/job_service.hh"
#include "service/recalibration.hh"
#include "telemetry/trace.hh"

namespace perfbench
{

namespace
{

using namespace qem;

/**
 * Offered load and request size, fixed once: 400 requests/s of 1024
 * shots keeps two pool workers about 15% busy on a 4-vCPU Xeon, well
 * under capacity (SIM requests of 4096 shots ran without rejection
 * at 600-800 req/s on three workers), and gives each run thousands
 * of requests for a steady tail. No run re-derives them.
 */
constexpr double kRatePerSecond = 400.0;
constexpr std::size_t kShotsPerRequest = 1024;
/** Set-ups per run; setup_s is their median. */
constexpr unsigned kSetupReps = 7;
/** Requests per window of the windowed latency quantiles. */
constexpr std::size_t kLatencyWindow = 1000;
/** Requests replayed by the determinism check. */
constexpr std::size_t kReplayRequests = 400;
/** Drift: the first swap and the spacing of later swaps, in
 *  request indices (machines alternate). */
constexpr std::size_t kFirstSwap = 150;
constexpr std::size_t kSwapEvery = 1000;
/** Drift: per-day lognormal sigma (a recalibration-scale jump, so
 *  the staleness probe trips on every swap). */
constexpr double kDriftSigma = 0.5;

constexpr const char* kMachines[] = {"ibmqx2", "ibmqx4"};

struct Tenant
{
    const char* name;
    svc::JobPriority priority;
};
constexpr Tenant kTenants[] = {
    {"alice", svc::JobPriority::Interactive},
    {"bob", svc::JobPriority::Batch},
    {"carol", svc::JobPriority::Batch},
};

/** One benchmark transpiled for one machine, with its SIM modes. */
struct Program
{
    unsigned machine = 0;
    std::string name;
    std::vector<InversionString> strings;
    /** modes[k] = physical circuit under strings[k]; modes[0] is
     *  the uninverted circuit Baseline runs. */
    std::vector<Circuit> modes;
};

/** A request as generated from the seed. */
struct RequestSpec
{
    double due = 0.0;
    unsigned tenant = 0;
    std::size_t program = 0;
    bool sim = false;
};

/** Everything the traffic needs, built by setUp(). */
struct Traffic
{
    std::vector<Machine> machines;
    /** days[m][d] = machine m on drift day d (day 0 = nominal). */
    std::vector<std::vector<Machine>> days;
    std::vector<Program> programs;
    std::unique_ptr<svc::JobService> service;
    std::unique_ptr<svc::RecalibrationScheduler> scheduler;
    double machineBuildSeconds = 0.0;
    double suiteBuildSeconds = 0.0;
    std::size_t transpiles = 0;
    double transpileSeconds = 0.0;
};

/** Days each machine needs for @p requests requests. */
std::size_t
daysNeeded(std::size_t requests)
{
    const std::size_t swaps =
        requests > kFirstSwap ? (requests - kFirstSwap) / kSwapEvery + 1
                              : 0;
    return swaps / 2 + 2;
}

bool
isSwap(std::size_t index)
{
    return index >= kFirstSwap && (index - kFirstSwap) % kSwapEvery == 0;
}

std::unique_ptr<svc::JobService>
makeService(unsigned workers, std::uint64_t seed,
            const std::vector<Machine>& machines)
{
    svc::ServiceOptions options;
    options.numThreads = workers;
    auto service = std::make_unique<svc::JobService>(options, seed);
    for (const Machine& machine : machines)
        service->registerMachine(
            machine.name(), TrajectorySimulator(machine.noiseModel(), seed));
    return service;
}

Traffic
setUp(std::uint64_t seed, unsigned workers, bool drift,
      std::size_t requests)
{
    Traffic traffic;
    double start = now();
    const std::size_t days = drift ? daysNeeded(requests) : 1;
    for (const char* name : kMachines) {
        traffic.machines.push_back(makeMachine(name));
        const DriftSchedule schedule(traffic.machines.back(), kDriftSigma);
        traffic.days.emplace_back();
        for (std::size_t d = 0; d < days; ++d)
            traffic.days.back().push_back(schedule.at(d));
    }
    traffic.machineBuildSeconds = now() - start;

    start = now();
    const std::vector<NisqBenchmark> suite = benchmarkSuiteQ5();
    traffic.suiteBuildSeconds = now() - start;

    start = now();
    for (unsigned m = 0; m < traffic.machines.size(); ++m) {
        const Transpiler transpiler(traffic.machines[m]);
        for (const NisqBenchmark& bench : suite) {
            Program program;
            program.machine = m;
            program.name = traffic.machines[m].name() + "/" + bench.name;
            const Circuit physical =
                transpiler.transpile(bench.circuit).circuit;
            ++traffic.transpiles;
            program.strings = fourModeStrings(physical.numClbits());
            for (const InversionString s : program.strings)
                program.modes.push_back(applyInversion(physical, s));
            traffic.programs.push_back(std::move(program));
        }
    }
    traffic.transpileSeconds = now() - start;

    traffic.service = makeService(workers, seed, traffic.machines);
    // Warm-up: compile every mode circuit into the shared cache.
    svc::JobOptions warmup;
    warmup.tenant = "__warmup";
    for (const Program& program : traffic.programs)
        for (const Circuit& circuit : program.modes)
            (void)traffic.service->submit(
                kMachines[program.machine], circuit, 256, warmup);
    traffic.service->drain();

    if (drift) {
        svc::RecalOptions recal;
        recal.staleness.shotsPerState = 4096;
        recal.profileShotsPerState = 8192;
        traffic.scheduler = std::make_unique<svc::RecalibrationScheduler>(
            *traffic.service, recal);
        for (unsigned m = 0; m < traffic.machines.size(); ++m) {
            // Watch the register the first Q5 benchmark reads.
            const Circuit& watched =
                traffic.programs[m * suite.size()].modes[0];
            traffic.scheduler->watchMachine(
                kMachines[m], traffic.machines[m].numQubits(),
                watched.measuredQubits());
        }
    }
    return traffic;
}

/**
 * The request stream of a seed: Poisson arrival times, and a mix
 * drawn in shuffled blocks of every (tenant, program, policy)
 * combination, so every run offers the same mix and seeds differ
 * in order and timing only.
 */
std::vector<RequestSpec>
generate(std::uint64_t seed, double seconds, std::size_t programs)
{
    Rng rng = Rng(seed).splitAt(0x0BE7);
    const std::vector<double> due =
        poissonSchedule(rng, kRatePerSecond, seconds);
    std::vector<RequestSpec> block;
    for (unsigned tenant = 0; tenant < std::size(kTenants); ++tenant)
        for (std::size_t program = 0; program < programs; ++program)
            for (const bool sim : {false, true})
                block.push_back({0.0, tenant, program, sim});
    std::vector<RequestSpec> requests;
    for (std::size_t i = 0; i < due.size(); ++i) {
        const std::size_t slot = i % block.size();
        if (slot == 0)
            for (std::size_t k = block.size(); k > 1; --k)
                std::swap(block[k - 1], block[rng.index(k)]);
        requests.push_back(block[slot]);
        requests.back().due = due[i];
    }
    return requests;
}

/**
 * Sleep until @p due, then spin the last stretch: a plain sleep
 * wakes up to a scheduler tick late, which would show up as
 * generator lag in every request's latency.
 */
void
waitUntil(double due)
{
    constexpr double kSpinSeconds = 200e-6;
    const double sleepTo = due - kSpinSeconds;
    if (now() < sleepTo)
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(sleepTo))));
    while (now() < due) {
    }
}

/** A request as it ran. */
struct Request
{
    double due = 0.0;
    /** Drift day of its machine when it was submitted. */
    std::size_t day = 0;
    std::vector<svc::JobHandle> handles;
    std::vector<PartTiming> parts;
    bool rejected = false;
    bool ok = false;
    double latency = 0.0;
    Counts merged;
};

/** Per-phase measurements. */
struct Phase
{
    std::vector<Request> requests;
    double wallSeconds = 0.0;
    std::uint64_t deliveredShots = 0;
    std::vector<double> submitSeconds;
    std::vector<double> generatorLag;
    std::vector<double> correctSeconds;
    std::vector<double> queueWait;
    std::vector<double> exec;
    std::size_t queueDepthMax = 0;
    svc::ServiceSummary before, after;
    std::uint64_t firstJobId = UINT64_MAX;
    /** Drift bookkeeping. */
    std::vector<double> recalLag;
    double checkSeconds = 0.0;
    std::uint64_t tripsBefore = 0, tripsAfter = 0;
    std::uint64_t refreshesBefore = 0, refreshesAfter = 0;
    std::uint64_t errorsBefore = 0, errorsAfter = 0;
};

/**
 * Runs checkNow() after each machine swap on its own thread, and
 * records the lag from the swap to the refreshed generation.
 */
class Maintenance
{
  public:
    Maintenance(svc::RecalibrationScheduler& scheduler, Tracer& tracer,
                Phase& phase)
        : scheduler_(scheduler), tracer_(tracer), phase_(phase),
          thread_([this] { loop(); })
    {
    }

    ~Maintenance()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

    Maintenance(const Maintenance&) = delete;
    Maintenance& operator=(const Maintenance&) = delete;

    void swapped(const std::string& machine, double when)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            pending_.push_back({machine, when});
        }
        cv_.notify_all();
    }

  private:
    struct Swap
    {
        std::string machine;
        double when = 0.0;
    };

    void loop()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            cv_.wait(lock, [&] { return stopping_ || !pending_.empty(); });
            if (pending_.empty())
                return;
            std::vector<Swap> swaps(pending_.begin(), pending_.end());
            pending_.clear();
            lock.unlock();
            std::vector<std::uint64_t> generations;
            for (const Swap& swap : swaps)
                generations.push_back(scheduler_.generation(swap.machine));
            const double start = now();
            {
                telemetry::SpanTracer::Scope s = tracer_.span("recal.check");
                try {
                    (void)scheduler_.checkNow();
                } catch (const std::exception& e) {
                    std::fprintf(stderr, "checkNow failed: %s\n", e.what());
                }
            }
            const double end = now();
            lock.lock();
            phase_.checkSeconds += end - start;
            for (std::size_t i = 0; i < swaps.size(); ++i) {
                if (scheduler_.generation(swaps[i].machine) > generations[i])
                    phase_.recalLag.push_back(end - swaps[i].when);
            }
        }
    }

    svc::RecalibrationScheduler& scheduler_;
    Tracer& tracer_;
    Phase& phase_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<Swap> pending_;
    bool stopping_ = false;
    std::thread thread_; // Last: starts after the members it uses.
};

/** Submit the jobs of @p spec; false when the service refused one. */
bool
submitRequest(Traffic& traffic, const RequestSpec& spec, std::size_t index,
              Request& request, Tracer& tracer, Phase* phase)
{
    const Program& program = traffic.programs[spec.program];
    const std::size_t modes = spec.sim ? program.modes.size() : 1;
    svc::JobOptions options;
    options.tenant = kTenants[spec.tenant].name;
    options.priority = kTenants[spec.tenant].priority;
    for (std::size_t k = 0; k < modes; ++k) {
        options.jobKey = 4 * index + k;
        const double start = now();
        try {
            telemetry::SpanTracer::Scope s = tracer.span("service.submit");
            request.handles.push_back(traffic.service->submit(
                kMachines[program.machine], program.modes[k],
                kShotsPerRequest / modes, options));
        } catch (const std::exception&) {
            // Admission (BudgetExhausted) or any other refusal: the
            // request counts as failed; the generator never retries.
            return false;
        }
        request.parts.push_back({start, 0.0});
        if (phase != nullptr) {
            phase->submitSeconds.push_back(now() - start);
            phase->firstJobId =
                std::min(phase->firstJobId, request.handles.back().id());
        }
    }
    return true;
}

/** Wait for @p request's jobs, un-invert and merge the modes. */
void
completeRequest(Traffic& traffic, const RequestSpec& spec,
                Request& request, Tracer& tracer, Phase* phase)
{
    const Program& program = traffic.programs[spec.program];
    request.ok = !request.rejected;
    std::vector<Counts> logs;
    for (std::size_t k = 0; k < request.handles.size(); ++k) {
        const svc::JobHandle& handle = request.handles[k];
        const svc::JobRecord& record = handle.record();
        request.parts[k].wallSeconds = record.wallSeconds;
        if (phase != nullptr) {
            phase->queueWait.push_back(record.queueWaitSeconds);
            phase->exec.push_back(record.execSeconds);
        }
        try {
            logs.push_back(handle.get());
        } catch (const std::exception&) {
            request.ok = false;
        }
        if (record.shotsCompleted != record.shotsRequested)
            request.ok = false;
    }
    // Release the jobs' state: the bench keeps only what it reports.
    request.handles = {};
    if (!request.ok)
        return;
    const double start = now();
    {
        telemetry::SpanTracer::Scope s = tracer.span("mitigation.correct");
        request.merged = Counts(logs.front().numBits());
        for (std::size_t k = 0; k < logs.size(); ++k)
            request.merged.merge(
                correctInversion(logs[k], program.strings[k]));
    }
    if (phase != nullptr)
        phase->correctSeconds.push_back(now() - start);
    request.latency = dueLatency(request.due, request.parts);
}

/**
 * One open-loop phase over @p specs[first, last): the calling thread
 * generates on schedule, a client thread completes requests in
 * order. Swaps (drift) happen at fixed global request indices.
 */
Phase
runPhase(Traffic& traffic, Tracer& tracer,
         const std::vector<RequestSpec>& specs, std::size_t first,
         std::size_t last, std::uint64_t seed, std::vector<std::size_t>& day)
{
    Phase phase;
    phase.requests.resize(last - first);
    phase.before = traffic.service->summary();
    const double offset = first < specs.size() ? specs[first].due : 0.0;

    std::mutex mutex;
    std::condition_variable cv;
    std::size_t submitted = 0; // Requests handed to the client.
    std::thread client([&] {
        for (std::size_t i = 0; i < last - first; ++i) {
            {
                std::unique_lock<std::mutex> lock(mutex);
                cv.wait(lock, [&] { return submitted > i; });
            }
            completeRequest(traffic, specs[first + i], phase.requests[i],
                            tracer, &phase);
        }
    });

    std::optional<Maintenance> maintenance;
    if (traffic.scheduler) {
        phase.tripsBefore = traffic.scheduler->trips();
        phase.refreshesBefore = traffic.scheduler->refreshes();
        phase.errorsBefore = traffic.scheduler->errors();
        maintenance.emplace(*traffic.scheduler, tracer, phase);
    }

    const double start = now();
    {
        telemetry::SpanTracer::Scope timed = tracer.span("bench.timed");
        for (std::size_t i = first; i < last; ++i) {
            const RequestSpec& spec = specs[i];
            Request& request = phase.requests[i - first];
            request.due = start + (spec.due - offset);
            waitUntil(request.due);
            if (maintenance && isSwap(i)) {
                const unsigned m = ((i - kFirstSwap) / kSwapEvery) % 2;
                const Machine& next = traffic.days[m].at(++day[m]);
                telemetry::SpanTracer::Scope s =
                    tracer.span("service.replace_machine");
                traffic.service->replaceMachine(
                    kMachines[m],
                    TrajectorySimulator(next.noiseModel(), seed));
                maintenance->swapped(kMachines[m], now());
            }
            request.day = day[traffic.programs[spec.program].machine];
            phase.generatorLag.push_back(now() - request.due);
            request.rejected =
                !submitRequest(traffic, spec, i, request, tracer, &phase);
            phase.queueDepthMax =
                std::max(phase.queueDepthMax, traffic.service->queueDepth());
            {
                std::lock_guard<std::mutex> lock(mutex);
                ++submitted;
            }
            cv.notify_one();
        }
    }
    client.join();
    maintenance.reset();
    phase.wallSeconds = now() - start;
    if (traffic.scheduler) {
        phase.tripsAfter = traffic.scheduler->trips();
        phase.refreshesAfter = traffic.scheduler->refreshes();
        phase.errorsAfter = traffic.scheduler->errors();
    }
    phase.after = traffic.service->summary();
    for (const Request& request : phase.requests)
        if (request.ok)
            phase.deliveredShots += request.merged.total();
    return phase;
}

std::string
digestOf(const std::vector<Request>& requests, std::size_t count)
{
    CountsDigest digest;
    for (std::size_t i = 0; i < std::min(count, requests.size()); ++i)
        digest.add(requests[i].merged);
    return digest.hex();
}

} // namespace

Report
runServiceTraffic(const Options& options, bool drift, double process_start)
{
    // Bench threads: the generator and the client (plus, in drift,
    // the maintenance thread, which sleeps on job handles).
    const unsigned workers = threadBudget(2);
    Report report;

    const std::vector<RequestSpec> specs =
        generate(options.seed, options.seconds, 8);
    Traffic traffic = setUp(options.seed, workers, drift, specs.size());
    std::vector<double> setupSeconds = {now() - process_start};

    Tracer tracer;
    std::vector<std::size_t> day(std::size(kMachines), 0);
    // A traced run measures the first half of the schedule untraced
    // and the second half traced, for telemetry.overhead_frac.
    std::size_t split = specs.size();
    if (options.trace)
        split = static_cast<std::size_t>(
            std::lower_bound(specs.begin(), specs.end(), options.seconds / 2,
                             [](const RequestSpec& s, double t) {
                                 return s.due < t;
                             }) -
            specs.begin());
    Phase untraced =
        runPhase(traffic, tracer, specs, 0, split, options.seed, day);
    const double rss = peakRssMb();
    Phase traced;
    if (options.trace) {
        tracer.setEnabled(true);
        traced = runPhase(traffic, tracer, specs, split, specs.size(),
                          options.seed, day);
        tracer.setEnabled(false);
    }
    const Phase& measured = options.trace ? traced : untraced;
    // More set-ups, after the timed phase so they cannot disturb it,
    // for a median that one slow moment of the host cannot move.
    for (unsigned rep = 1; rep < kSetupReps; ++rep) {
        const double start = now();
        Traffic again = setUp(options.seed, workers, drift, specs.size());
        setupSeconds.push_back(now() - start);
        again.scheduler.reset(); // Before the service it watches.
    }

    // -- End-to-end metrics (from the untraced phase).
    std::vector<double> latency;
    for (const Phase* phase : {&untraced, &traced}) {
        for (const Request& request : phase->requests) {
            ++report.attempted;
            if (!request.ok)
                ++report.failed;
            else if (phase == &untraced)
                latency.push_back(request.latency);
        }
    }
    if (drift)
        report.details["recal_lag_p50_s"] =
            nearestRank(untraced.recalLag, 0.5);
    report.endToEnd["mitigated_shots_per_s"] =
        static_cast<double>(untraced.deliveredShots) / untraced.wallSeconds;
    report.endToEnd["peak_rss_mb"] = rss;
    report.details["workers"] = workers;
    report.details["generator_threads"] = 1u;
    report.details["client_threads"] = 1u;
    report.details["maintenance_threads"] = drift ? 1u : 0u;
    report.details["rate_per_s"] = kRatePerSecond;
    report.details["shots_per_request"] =
        static_cast<std::uint64_t>(kShotsPerRequest);
    reportSetupAndLatency(report, setupSeconds, latency, kLatencyWindow);

    // -- Output checks (untimed). (a) Determinism: replay the first
    // requests, which always ran untraced, through a fresh service
    // with another worker count and tracing on, swapping machines
    // at the same indices; the digests must match.
    {
        const std::size_t count = std::min(kReplayRequests, specs.size());
        auto replay = makeService(workers > 1 ? 1 : 2, options.seed,
                                  traffic.machines);
        Tracer replayTracer;
        replayTracer.setEnabled(true);
        std::vector<std::size_t> replayDay(std::size(kMachines), 0);
        Traffic view;
        view.programs = traffic.programs;
        view.service = std::move(replay);
        std::vector<Request> again(count);
        std::size_t completed = 0;
        for (std::size_t i = 0; i < count; ++i) {
            if (drift && isSwap(i)) {
                const unsigned m = ((i - kFirstSwap) / kSwapEvery) % 2;
                const Machine& next = traffic.days[m].at(++replayDay[m]);
                view.service->replaceMachine(
                    kMachines[m],
                    TrajectorySimulator(next.noiseModel(), options.seed));
            }
            again[i].rejected = !submitRequest(view, specs[i], i, again[i],
                                               replayTracer, nullptr);
            if (i + 1 == count || (i + 1) % 64 == 0) {
                for (; completed <= i; ++completed)
                    completeRequest(view, specs[completed], again[completed],
                                    replayTracer, nullptr);
            }
        }
        const std::string first = digestOf(untraced.requests, count);
        report.details["digest"] = first;
        report.details["digest_requests"] = static_cast<std::uint64_t>(count);
        if (untraced.requests.size() < count)
            report.fail("determinism: the untraced phase ran fewer than " +
                        std::to_string(count) + " requests");
        else if (digestOf(again, count) != first)
            report.fail("determinism: replay digest differs");
    }
    // (b) Every corrected log against the oracle of its plan, on
    // the drift day its machine served when it was submitted.
    {
        std::map<std::pair<unsigned, std::size_t>, verify::ExactOracle>
            oracles;
        OracleCheck check(16.0, 1e-6, report.attempted);
        const auto keyOf = [&](const Program& program, const Request& r) {
            return program.name + "/day" + std::to_string(r.day);
        };
        std::size_t index = 0;
        for (const Phase* phase : {&untraced, &traced}) {
            for (const Request& request : phase->requests) {
                const Program& program =
                    traffic.programs[specs[index++].program];
                const auto day = std::make_pair(program.machine, request.day);
                auto it = oracles.find(day);
                if (it == oracles.end())
                    it = oracles
                             .emplace(day, verify::ExactOracle(
                                               traffic.days[program.machine]
                                                           [request.day]))
                             .first;
                for (const InversionString s : program.strings)
                    check.require(keyOf(program, request), it->second,
                                  program.modes[0], s);
            }
        }
        check.evaluate(std::max(1u, std::thread::hardware_concurrency()));
        index = 0;
        for (const Phase* phase : {&untraced, &traced}) {
            for (const Request& request : phase->requests) {
                const RequestSpec& spec = specs[index++];
                if (!request.ok)
                    continue;
                const Program& program = traffic.programs[spec.program];
                ModePlan plan;
                const std::size_t modes = request.parts.size();
                for (std::size_t k = 0; k < modes; ++k)
                    plan.push_back(
                        {program.strings[k], kShotsPerRequest / modes});
                if (!check.check(keyOf(program, request), plan,
                                 request.merged))
                    report.fail("oracle: " + program.name +
                                (spec.sim ? "/SIM" : "/Baseline") +
                                " outside its TVD radius");
            }
        }
        report.perLayer["verify.oracle_tvd_max"] = check.maxTvd();
        report.details["oracle_checked"] =
            static_cast<std::uint64_t>(check.checked());
        report.details["oracle_modes"] =
            static_cast<std::uint64_t>(check.modes());
        report.details["oracle_max_tvd_over_radius"] = check.maxRatio();
    }
    if (!options.trace)
        return report;

    // -- Per-layer ledger from the traced phase.
    const telemetry::SpanSnapshot spans = tracer.snapshot();
    const telemetry::SpanSnapshot* timed = spans.find("bench.timed");
    if (timed == nullptr)
        throw std::logic_error("service: traced phase recorded no spans");
    double attributed = 0.0;
    for (const auto& [name, row] : spanTotals(*timed))
        attributed += row.selfSeconds;
    if (!telemetry::writeTrace(options.outDir + "/trace-" +
                                   options.workload + "-seed" +
                                   std::to_string(options.seed) + ".json",
                               spans))
        report.fail("trace: could not write the trace file");

    std::vector<std::unique_ptr<TrajectorySimulator>> backends;
    for (const Machine& machine : traffic.machines)
        backends.push_back(std::make_unique<TrajectorySimulator>(
            machine.noiseModel(), options.seed));
    std::vector<std::pair<const ShardedBackend*, Circuit>> runs;
    for (const Program& program : traffic.programs)
        for (const Circuit& circuit : program.modes)
            runs.emplace_back(backends[program.machine].get(), circuit);
    const LayerProbe probe = probeLayers(runs, options.seed);

    std::uint64_t backgroundShots = 0;
    for (const svc::JobRecord& record : traffic.service->auditLog())
        if (record.tenant == "__recal" && record.id >= traced.firstJobId)
            backgroundShots += record.shotsCompleted;
    const svc::ServiceSummary& a = traced.before;
    const svc::ServiceSummary& b = traced.after;
    const double lookups = static_cast<double>(
        (b.cache.hits - a.cache.hits) + (b.cache.misses - a.cache.misses));

    auto& L = report.perLayer;
    L["kernels.suite_build_s"] = traffic.suiteBuildSeconds;
    L["machine.build_s"] = traffic.machineBuildSeconds;
    L["transpile.calls"] = static_cast<double>(traffic.transpiles);
    L["transpile.busy_s"] = traffic.transpileSeconds;
    L["noise.compile_calls"] = static_cast<double>(probe.compileCalls);
    L["noise.compile_p50_s"] = probe.compileP50;
    L["noise.shots_per_s_1t"] = probe.shotsPerSecond1t;
    L["qsim.kernel_amps_per_s"] = probe.kernelAmpsPerSecond;
    L["mitigation.correct_p50_s"] = nearestRank(measured.correctSeconds, 0.5);
    L["service.submit_p50_s"] = nearestRank(measured.submitSeconds, 0.5);
    L["service.submit_p99_s"] = nearestRank(measured.submitSeconds, 0.99);
    L["service.queue_wait_p50_s"] = nearestRank(measured.queueWait, 0.5);
    L["service.queue_wait_p99_s"] = nearestRank(measured.queueWait, 0.99);
    L["service.exec_p50_s"] = nearestRank(measured.exec, 0.5);
    L["service.exec_p99_s"] = nearestRank(measured.exec, 0.99);
    L["service.queue_depth_max"] = static_cast<double>(measured.queueDepthMax);
    L["service.cache_hit_rate"] =
        lookups > 0.0
            ? static_cast<double>(b.cache.hits - a.cache.hits) / lookups
            : 0.0;
    L["service.rejected"] = static_cast<double>(b.rejected - a.rejected);
    L["service.retries"] = static_cast<double>(b.retries - a.retries);
    L["service.dropped_batches"] =
        static_cast<double>(b.droppedBatches - a.droppedBatches);
    L["service.background_shots"] = static_cast<double>(backgroundShots);
    if (traffic.scheduler) {
        L["recal.trips"] =
            static_cast<double>(measured.tripsAfter - measured.tripsBefore);
        L["recal.refreshes"] = static_cast<double>(
            measured.refreshesAfter - measured.refreshesBefore);
        L["recal.errors"] =
            static_cast<double>(measured.errorsAfter - measured.errorsBefore);
        L["recal.check_s"] = measured.checkSeconds;
        L["recal.lag_p50_s"] = nearestRank(measured.recalLag, 0.5);
    }
    std::vector<double> tracedLatency;
    for (const Request& request : traced.requests)
        if (request.ok)
            tracedLatency.push_back(request.latency);
    L["telemetry.overhead_frac"] =
        nearestRank(tracedLatency, 0.5) / nearestRank(latency, 0.5) - 1.0;
    L["bench.generator_lag_p99_s"] = nearestRank(measured.generatorLag, 0.99);
    L["bench.unattributed_s"] = timed->durationSeconds - attributed;
    report.details["kernel_qubits"] = probe.kernelQubits;
    return report;
}

} // namespace perfbench

/**
 * @file
 * Unit tests for the telemetry subsystem: registry thread safety,
 * histogram bucketing, span nesting/ordering, JSON round-trips,
 * and the disabled-is-a-no-op contract.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "telemetry/manifest.hh"
#include "telemetry/metrics.hh"
#include "telemetry/sink.hh"
#include "telemetry/span.hh"
#include "telemetry/telemetry.hh"

namespace qem::telemetry
{
namespace
{

/** Every test starts and ends with pristine global telemetry. */
class TelemetryTest : public ::testing::Test
{
  protected:
    void SetUp() override { resetAll(); }
    void TearDown() override
    {
        setEnabled(false);
        resetAll();
    }
};

TEST_F(TelemetryTest, CounterConcurrentAddsLoseNothing)
{
    MetricsRegistry registry;
    constexpr unsigned kThreads = 8;
    constexpr std::uint64_t kAdds = 10000;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&registry] {
            // Half the threads re-resolve the handle every
            // iteration to also exercise concurrent registration.
            Counter& c = registry.counter("shared");
            for (std::uint64_t i = 0; i < kAdds; ++i)
                c.add();
        });
    }
    for (std::thread& t : threads)
        t.join();
    EXPECT_EQ(registry.counter("shared").value(),
              kThreads * kAdds);
}

TEST_F(TelemetryTest, HistogramConcurrentRecordsLoseNothing)
{
    MetricsRegistry registry;
    Histogram& h =
        registry.histogram("lat", {0.25, 0.5, 0.75, 1.0});
    constexpr unsigned kThreads = 8;
    constexpr int kRecords = 5000;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&h, t] {
            for (int i = 0; i < kRecords; ++i) {
                h.record(static_cast<double>((i + t) % 5) *
                         0.25);
            }
        });
    }
    for (std::thread& t : threads)
        t.join();

    EXPECT_EQ(h.count(), kThreads * kRecords);
    std::uint64_t bucket_total = 0;
    for (std::uint64_t b : h.bucketCounts())
        bucket_total += b;
    EXPECT_EQ(bucket_total, h.count());
    EXPECT_EQ(h.min(), 0.0);
    EXPECT_EQ(h.max(), 1.0);
    EXPECT_GT(h.sum(), 0.0);
}

TEST_F(TelemetryTest, HistogramBucketPlacement)
{
    Histogram h({1.0, 2.0, 3.0});
    h.record(0.5); // <= 1.0
    h.record(1.0); // <= 1.0 (inclusive upper bound)
    h.record(1.5); // <= 2.0
    h.record(2.5); // <= 3.0
    h.record(99.0); // overflow
    const std::vector<std::uint64_t> buckets = h.bucketCounts();
    ASSERT_EQ(buckets.size(), 4u);
    EXPECT_EQ(buckets[0], 2u);
    EXPECT_EQ(buckets[1], 1u);
    EXPECT_EQ(buckets[2], 1u);
    EXPECT_EQ(buckets[3], 1u);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.min(), 0.5);
    EXPECT_DOUBLE_EQ(h.max(), 99.0);
}

TEST_F(TelemetryTest, HistogramRejectsBadBounds)
{
    EXPECT_THROW(Histogram({}), std::invalid_argument);
    EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST_F(TelemetryTest, RegistryHandlesAreStable)
{
    MetricsRegistry registry;
    Counter& a = registry.counter("x");
    Gauge& g = registry.gauge("g");
    g.set(2.5);
    for (int i = 0; i < 100; ++i)
        registry.counter("name" + std::to_string(i));
    EXPECT_EQ(&a, &registry.counter("x"));
    EXPECT_EQ(registry.gauge("g").value(), 2.5);
    // Histogram bounds are fixed by the first registration.
    Histogram& h = registry.histogram("h", {1.0});
    EXPECT_EQ(&h, &registry.histogram("h", {5.0, 6.0}));
    EXPECT_EQ(h.upperBounds().size(), 1u);
}

TEST_F(TelemetryTest, SpanNestingAndOrdering)
{
    SpanTracer tracer;
    {
        SpanTracer::Scope outer = tracer.scoped("outer");
        {
            SpanTracer::Scope a = tracer.scoped("a");
        }
        {
            SpanTracer::Scope b = tracer.scoped("b");
            SpanTracer::Scope inner = tracer.scoped("b.inner");
        }
    }
    const SpanSnapshot root = tracer.snapshot();
    EXPECT_EQ(root.name, "session");
    ASSERT_EQ(root.children.size(), 1u);
    const SpanSnapshot& outer = root.children[0];
    EXPECT_EQ(outer.name, "outer");
    EXPECT_TRUE(outer.closed);
    ASSERT_EQ(outer.children.size(), 2u);
    EXPECT_EQ(outer.children[0].name, "a");
    EXPECT_EQ(outer.children[1].name, "b");
    ASSERT_EQ(outer.children[1].children.size(), 1u);
    EXPECT_EQ(outer.children[1].children[0].name, "b.inner");
    // Children start within the parent and take no longer.
    EXPECT_GE(outer.children[0].startSeconds,
              outer.startSeconds);
    EXPECT_LE(outer.children[0].durationSeconds,
              outer.durationSeconds);
    EXPECT_NE(root.find("b.inner"), nullptr);
    EXPECT_EQ(root.find("missing"), nullptr);
}

TEST_F(TelemetryTest, SpanFromWorkerThreadAttachesToRoot)
{
    SpanTracer tracer;
    SpanTracer::Scope main_span = tracer.scoped("main");
    std::thread worker([&tracer] {
        SpanTracer::Scope s = tracer.scoped("worker");
    });
    worker.join();
    const SpanSnapshot root = tracer.snapshot();
    ASSERT_EQ(root.children.size(), 2u);
    EXPECT_EQ(root.children[0].name, "main");
    EXPECT_EQ(root.children[1].name, "worker");
}

TEST_F(TelemetryTest, TracerResetSurvivesLiveScopes)
{
    SpanTracer tracer;
    SpanTracer::Scope stale = tracer.scoped("stale");
    tracer.reset();
    {
        SpanTracer::Scope fresh = tracer.scoped("fresh");
    }
    stale = {}; // Closing the pre-reset scope must be harmless.
    const SpanSnapshot root = tracer.snapshot();
    ASSERT_EQ(root.children.size(), 1u);
    EXPECT_EQ(root.children[0].name, "fresh");
}

TEST_F(TelemetryTest, JsonRoundTrip)
{
    JsonValue doc = JsonValue::object();
    doc["string"] = JsonValue("with \"quotes\" and \n newline");
    doc["int"] = JsonValue(std::uint64_t{123456789});
    doc["float"] = JsonValue(0.125);
    doc["bool"] = JsonValue(true);
    doc["null"] = JsonValue();
    JsonValue arr = JsonValue::array();
    arr.push(JsonValue(1));
    arr.push(JsonValue("two"));
    JsonValue nested = JsonValue::object();
    nested["k"] = JsonValue(false);
    arr.push(std::move(nested));
    doc["arr"] = std::move(arr);

    for (int indent : {0, 2}) {
        const std::string text = doc.dump(indent);
        const JsonValue parsed = JsonValue::parse(text);
        EXPECT_EQ(parsed, doc) << text;
    }
}

TEST_F(TelemetryTest, JsonIntegersDumpWithoutExponent)
{
    JsonValue v(std::uint64_t{16384});
    EXPECT_EQ(v.dump(), "16384");
    EXPECT_EQ(JsonValue::parse("16384").asUint(), 16384u);
}

TEST_F(TelemetryTest, JsonParseRejectsGarbage)
{
    EXPECT_THROW(JsonValue::parse(""), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("{\"a\":}"),
                 std::runtime_error);
    EXPECT_THROW(JsonValue::parse("[1,2"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("{} trailing"),
                 std::runtime_error);
}

TEST_F(TelemetryTest, SnapshotExportsToJson)
{
    MetricsRegistry registry;
    registry.counter("jobs").add(3);
    registry.gauge("threads").set(4.0);
    registry.histogram("lat", {1.0, 2.0}).record(0.5);
    const JsonValue json = toJson(registry.snapshot());

    const JsonValue* counters = json.find("counters");
    ASSERT_NE(counters, nullptr);
    ASSERT_NE(counters->find("jobs"), nullptr);
    EXPECT_EQ(counters->find("jobs")->asUint(), 3u);
    const JsonValue* hist = json.find("histograms");
    ASSERT_NE(hist, nullptr);
    const JsonValue* lat = hist->find("lat");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->find("count")->asUint(), 1u);
    // Bounds + the overflow bucket.
    EXPECT_EQ(lat->find("buckets")->size(), 3u);
}

TEST_F(TelemetryTest, DisabledFacadeIsInert)
{
    // Compare against a snapshot instead of expecting an empty
    // registry: reset() zeroes metrics but keeps their names, so
    // earlier tests in the same process leave names behind.
    setEnabled(false);
    const MetricsSnapshot before = metrics().snapshot();
    const std::size_t spansBefore =
        tracer().snapshot().children.size();
    count("ghost.counter", 7);
    observe("ghost.histogram", 1.0);
    gaugeSet("ghost.gauge", 1.0);
    {
        SpanTracer::Scope s = span("ghost.span");
    }
    const MetricsSnapshot after = metrics().snapshot();
    EXPECT_EQ(after.counters, before.counters);
    EXPECT_EQ(after.gauges, before.gauges);
    ASSERT_EQ(after.histograms.size(), before.histograms.size());
    for (const auto& [name, hist] : before.histograms) {
        ASSERT_EQ(after.histograms.count(name), 1u) << name;
        EXPECT_EQ(after.histograms.at(name).count, hist.count) << name;
    }
    const SpanSnapshot spans = tracer().snapshot();
    EXPECT_EQ(spans.find("ghost.span"), nullptr);
    EXPECT_EQ(spans.children.size(), spansBefore);
}

TEST_F(TelemetryTest, EnabledFacadeRecords)
{
    setEnabled(true);
    count("real.counter", 7);
    observe("real.histogram", 1.0);
    {
        SpanTracer::Scope s = span("real.span");
    }
    const MetricsSnapshot snap = metrics().snapshot();
    EXPECT_EQ(snap.counters.at("real.counter"), 7u);
    EXPECT_EQ(snap.histograms.at("real.histogram").count, 1u);
    EXPECT_NE(tracer().snapshot().find("real.span"), nullptr);
}

TEST_F(TelemetryTest, ReportSinkRendersEverySection)
{
    RunInfo run;
    run.label = "unit";
    run.machine = "ibmqx4";
    run.seed = 7;
    run.shotsRequested = 128;
    MetricsRegistry registry;
    registry.counter("c").add(1);
    registry.gauge("g").set(2.0);
    registry.histogram("h", {1.0}).record(0.5);
    SpanTracer tracer;
    {
        SpanTracer::Scope s = tracer.scoped("stage");
    }
    const std::string report = renderReport(
        run, registry.snapshot(), tracer.snapshot());
    EXPECT_NE(report.find("unit"), std::string::npos);
    EXPECT_NE(report.find("stage"), std::string::npos);
    EXPECT_NE(report.find("c = 1"), std::string::npos);
    EXPECT_NE(report.find("g = 2"), std::string::npos);
    EXPECT_NE(report.find("h: n=1"), std::string::npos);
}

TEST_F(TelemetryTest, JsonEscapesControlCharacters)
{
    JsonValue doc = JsonValue::object();
    doc["k"] = JsonValue(std::string("a\x01" "b\x1f" "c\td"));
    const std::string text = doc.dump();
    // Raw control bytes are invalid JSON; they must leave as
    // \u escapes (or the named short forms).
    for (char c : text)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << text;
    EXPECT_NE(text.find("\\u0001"), std::string::npos);
    EXPECT_NE(text.find("\\u001f"), std::string::npos);
    EXPECT_NE(text.find("\\t"), std::string::npos);
    EXPECT_EQ(JsonValue::parse(text), doc);
}

TEST_F(TelemetryTest, JsonReplacesInvalidUtf8)
{
    // Hostile span/tenant names: stray continuation, truncated
    // sequence, overlong encoding, surrogate half, out-of-range.
    const std::string hostile[] = {
        std::string("\x80"),
        std::string("\xc3"),
        std::string("\xc0\x80"),
        std::string("\xed\xa0\x80"),
        std::string("\xf5\x80\x80\x80"),
        std::string("ok\xffmiddle"),
    };
    for (const std::string& name : hostile) {
        JsonValue doc = JsonValue::object();
        doc[name] = JsonValue(name);
        const std::string text = doc.dump();
        // The dump must parse (invalid bytes became U+FFFD).
        EXPECT_NO_THROW((void)JsonValue::parse(text)) << text;
        EXPECT_NE(text.find("\xef\xbf\xbd"), std::string::npos)
            << text;
    }
    // Valid multibyte text passes through untouched.
    JsonValue ok = JsonValue::object();
    ok["gr\xc3\xbc\xc3\x9f"] = JsonValue("\xe2\x9c\x93 \xf0\x9f\x8e\x89");
    const std::string text = ok.dump();
    EXPECT_EQ(JsonValue::parse(text), ok);
    EXPECT_NE(text.find("\xe2\x9c\x93"), std::string::npos);
}

TEST_F(TelemetryTest, JsonFuzzHostileNamesAlwaysEmitValidJson)
{
    // Deterministic byte-soup fuzz: whatever a tenant names their
    // job, the manifest must stay parseable and stable.
    std::mt19937 rng(20190814);
    std::uniform_int_distribution<int> byte(0, 255);
    std::uniform_int_distribution<int> length(0, 24);
    for (int iteration = 0; iteration < 500; ++iteration) {
        std::string name;
        const int n = length(rng);
        for (int i = 0; i < n; ++i)
            name.push_back(static_cast<char>(byte(rng)));
        JsonValue doc = JsonValue::object();
        doc["name"] = JsonValue(name);
        doc[name] = JsonValue(static_cast<std::uint64_t>(
            static_cast<unsigned>(iteration)));
        const std::string text = doc.dump();
        JsonValue parsed;
        ASSERT_NO_THROW(parsed = JsonValue::parse(text))
            << "iteration " << iteration << ": " << text;
        // Re-dumping the parsed document is a fixed point: the
        // replacement characters are themselves valid UTF-8.
        EXPECT_EQ(parsed.dump(), text) << "iteration "
                                       << iteration;
    }
}

TEST_F(TelemetryTest, ManifestBuildsAndParses)
{
    RunInfo run;
    run.label = "unit";
    run.machine = "ibmqx4";
    run.seed = 7;
    run.numThreads = 2;
    run.batchSize = 64;
    run.shotsRequested = 128;
    MetricsRegistry registry;
    registry.counter("c").add(5);
    SpanTracer tracer;
    const JsonValue manifest = buildManifest(
        run, registry.snapshot(), tracer.snapshot());
    const JsonValue reparsed =
        JsonValue::parse(manifest.dump(2));
    EXPECT_EQ(reparsed.find("schema")->asString(),
              kManifestSchema);
    EXPECT_EQ(reparsed.find("run")->find("seed")->asUint(), 7u);
    EXPECT_EQ(reparsed.find("metrics")
                  ->find("counters")
                  ->find("c")
                  ->asUint(),
              5u);
}

/**
 * Races the TSan CI leg replays: concurrent manifest writers and
 * tracer resets against live spans (satellite of the introspection
 * PR; see .github/workflows/ci.yml "soak" step).
 */
class TelemetryRace : public ::testing::Test
{
  protected:
    void SetUp() override { resetAll(); }
    void TearDown() override
    {
        setEnabled(false);
        resetAll();
    }
};

TEST_F(TelemetryRace, ManifestSinkConcurrentWritersStayValid)
{
    const std::string path =
        ::testing::TempDir() + "race_manifest.json";
    std::remove(path.c_str());

    constexpr unsigned kWriters = 8;
    constexpr int kEmits = 25;
    std::vector<std::thread> writers;
    for (unsigned t = 0; t < kWriters; ++t) {
        writers.emplace_back([&path, t] {
            MetricsRegistry registry;
            registry.counter("writer").add(t);
            SpanTracer tracer;
            RunInfo run;
            run.label = "race";
            run.seed = t;
            ManifestFileSink sink(path);
            for (int i = 0; i < kEmits; ++i)
                sink.emit(run, registry.snapshot(),
                          tracer.snapshot());
        });
    }
    for (std::thread& t : writers)
        t.join();

    // tmp+rename per emit: whoever renamed last, the file is one
    // complete manifest, never an interleaving of two writers.
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream text;
    text << in.rdbuf();
    JsonValue manifest;
    ASSERT_NO_THROW(manifest = JsonValue::parse(text.str()))
        << text.str();
    EXPECT_EQ(manifest.find("schema")->asString(),
              kManifestSchema);
    EXPECT_EQ(manifest.find("run")->find("label")->asString(),
              "race");
}

TEST_F(TelemetryRace, WriteTextAtomicPublishesWholePayloads)
{
    const std::string path =
        ::testing::TempDir() + "race_atomic.txt";
    std::remove(path.c_str());
    constexpr unsigned kWriters = 8;
    std::vector<std::thread> writers;
    for (unsigned t = 0; t < kWriters; ++t) {
        writers.emplace_back([&path, t] {
            const std::string payload(
                4096, static_cast<char>('a' + t));
            for (int i = 0; i < 50; ++i)
                ASSERT_TRUE(writeTextAtomic(path, payload));
        });
    }
    for (std::thread& t : writers)
        t.join();
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    const std::string content = text.str();
    ASSERT_EQ(content.size(), 4096u);
    // All 4096 bytes come from ONE writer.
    for (char c : content)
        EXPECT_EQ(c, content[0]);
}

TEST_F(TelemetryRace, TracerResetRacesActiveSpans)
{
    SpanTracer tracer;
    MetricsRegistry registry;
    tracer.watchCounters(&registry, {"race.counter"});
    std::atomic<bool> stop{false};
    std::vector<std::thread> spanners;
    for (unsigned t = 0; t < 4; ++t) {
        spanners.emplace_back([&tracer, &registry, &stop, t] {
            while (!stop.load(std::memory_order_relaxed)) {
                SpanTracer::Scope outer = tracer.scoped(
                    "outer" + std::to_string(t));
                registry.counter("race.counter").add();
                SpanTracer::Scope inner =
                    tracer.scoped("inner");
            }
        });
    }
    for (int i = 0; i < 200; ++i) {
        tracer.reset();
        (void)tracer.snapshot();
    }
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : spanners)
        t.join();

    // Post-race the tracer must still work: generation checks
    // discarded the orphaned closes, fresh spans land cleanly.
    tracer.reset();
    {
        SpanTracer::Scope s = tracer.scoped("after");
    }
    const SpanSnapshot root = tracer.snapshot();
    ASSERT_EQ(root.children.size(), 1u);
    EXPECT_EQ(root.children[0].name, "after");
    EXPECT_TRUE(root.children[0].closed);
}

TEST_F(TelemetryRace, GlobalResetRacesFacadeUse)
{
    setEnabled(true);
    std::atomic<bool> stop{false};
    std::vector<std::thread> users;
    for (unsigned t = 0; t < 4; ++t) {
        users.emplace_back([&stop] {
            while (!stop.load(std::memory_order_relaxed)) {
                count("facade.counter");
                gaugeSet("facade.gauge", 1.0);
                SpanTracer::Scope s = span("facade.span");
            }
        });
    }
    for (int i = 0; i < 100; ++i)
        resetAll();
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : users)
        t.join();
    setEnabled(true);
    count("facade.final");
    EXPECT_GE(metrics().snapshot().counters.at("facade.final"),
              1u);
}

} // namespace
} // namespace qem::telemetry

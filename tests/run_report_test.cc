#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <type_traits>

#include <gtest/gtest.h>

#include "apps/network_ranking.h"
#include "obs/json.h"
#include "obs/metrics_registry.h"
#include "obs/run_report.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "propagation/runner.h"
#include "runtime/executor.h"
#include "runtime/report.h"
#include "runtime/timeline.h"
#include "tests/test_fixtures.h"

namespace surfer {
namespace {

using testing_fixtures::EngineFixture;
using testing_fixtures::MakeEngineFixture;

const EngineFixture& Fixture() {
  static const EngineFixture* fixture =
      new EngineFixture(MakeEngineFixture());
  return *fixture;
}

/// Runs NR through propagation with the observability hooks attached.
RunMetrics RunObserved(OptimizationLevel level, int iterations,
                       obs::Tracer* tracer, obs::MetricsRegistry* metrics,
                       PropagationCounters* counters = nullptr) {
  const EngineFixture& f = Fixture();
  BenchmarkSetup setup = f.Setup(level);
  setup.sim_options.tracer = tracer;
  setup.sim_options.metrics = metrics;
  NetworkRankingApp app(f.graph.num_vertices());
  PropagationConfig config = PropagationConfig::ForLevel(level);
  config.iterations = iterations;
  config.tracer = tracer;
  config.metrics = metrics;
  PropagationRunner<NetworkRankingApp> runner(
      setup.graph, setup.placement, setup.topology, app, config);
  auto metrics_result = runner.Run(setup.sim_options);
  EXPECT_TRUE(metrics_result.ok()) << metrics_result.status().ToString();
  if (counters != nullptr) {
    *counters = runner.counters();
  }
  return std::move(metrics_result).value();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// ------------------------------------------------- report schema & files

TEST(RunReportTest, BuildValidateWriteParseRoundTrip) {
  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  const RunMetrics run = RunObserved(OptimizationLevel::kO4, /*iterations=*/2,
                                     &tracer, &registry);

  obs::RunReportOptions options;
  options.name = "run_report_test";
  options.notes = "NR at O4, 2 iterations";
  const obs::JsonValue report =
      obs::BuildRunReport(options, &run, &registry, &tracer);
  ASSERT_TRUE(obs::ValidateRunReport(report).ok())
      << obs::ValidateRunReport(report).ToString();

  const auto dir = std::filesystem::temp_directory_path() /
                   "surfer_run_report_test" / "nested";
  std::filesystem::remove_all(dir.parent_path());
  const std::string report_path = (dir / "run.report.json").string();
  ASSERT_TRUE(obs::WriteRunReport(report_path, report).ok());

  auto parsed = obs::ParseJson(ReadFile(report_path));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(obs::ValidateRunReport(*parsed).ok())
      << obs::ValidateRunReport(*parsed).ToString();

  // Spot-check the documented schema: identity, run totals, stage list, and
  // metrics/trace sections all survive the disk round trip.
  EXPECT_EQ(parsed->Find("schema_version")->as_number(),
            obs::kRunReportSchemaVersion);
  EXPECT_EQ(parsed->Find("name")->as_string(), "run_report_test");
  const obs::JsonValue* run_section = parsed->Find("run");
  ASSERT_NE(run_section, nullptr);
  EXPECT_GT(run_section->Find("response_time_s")->as_number(), 0.0);
  // 2 iterations -> transfer + combine stages each.
  EXPECT_EQ(run_section->Find("stages")->as_array().size(), 4u);
  const obs::JsonValue* metrics_section = parsed->Find("metrics");
  ASSERT_NE(metrics_section, nullptr);
  bool found_emitted = false;
  for (const obs::JsonValue& counter :
       metrics_section->Find("counters")->as_array()) {
    if (counter.Find("name")->as_string() == "propagation_messages_emitted") {
      found_emitted = true;
      EXPECT_GT(counter.Find("value")->as_number(), 0.0);
    }
  }
  EXPECT_TRUE(found_emitted);
  const obs::JsonValue* trace_section = parsed->Find("trace");
  ASSERT_NE(trace_section, nullptr);
  if (obs::Tracer::CompiledIn()) {
    EXPECT_GT(trace_section->Find("num_events")->as_number(), 0.0);
    EXPECT_FALSE(trace_section->Find("spans")->as_array().empty());
  }
  std::filesystem::remove_all(dir.parent_path());
}

TEST(RunReportTest, ValidateRejectsBrokenReports) {
  obs::JsonValue report = obs::JsonValue::MakeObject();
  EXPECT_FALSE(obs::ValidateRunReport(report).ok());  // no version/name
  report.Set("schema_version", obs::kRunReportSchemaVersion);
  report.Set("name", "x");
  EXPECT_TRUE(obs::ValidateRunReport(report).ok());  // minimal report
  obs::JsonValue bad_run = obs::JsonValue::MakeObject();
  bad_run.Set("response_time_s", "not a number");
  report.Set("run", std::move(bad_run));
  EXPECT_FALSE(obs::ValidateRunReport(report).ok());

  obs::JsonValue wrong_version = obs::JsonValue::MakeObject();
  wrong_version.Set("schema_version", obs::kRunReportSchemaVersion + 1);
  wrong_version.Set("name", "x");
  EXPECT_FALSE(obs::ValidateRunReport(wrong_version).ok());
}

TEST(RunReportTest, ChromeTraceCarriesBothClockDomains) {
  if (!obs::Tracer::CompiledIn()) {
    GTEST_SKIP() << "tracing compiled out";
  }
  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  (void)RunObserved(OptimizationLevel::kO4, /*iterations=*/1, &tracer,
                    &registry);
  const std::string path = (std::filesystem::temp_directory_path() /
                            "surfer_run_report_test.trace.json")
                               .string();
  ASSERT_TRUE(tracer.WriteChromeTrace(path).ok());
  auto parsed = obs::ParseJson(ReadFile(path));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool saw_wall = false;
  bool saw_simulated = false;
  for (const obs::JsonValue& event : events->as_array()) {
    if (event.Find("ph")->as_string() == "M") {
      continue;
    }
    const double pid = event.Find("pid")->as_number();
    saw_wall = saw_wall || pid == 1.0;
    saw_simulated = saw_simulated || pid == 2.0;
  }
  // The propagation layer records wall-clock compute spans; the simulation
  // records stage/task spans — one run populates both domains.
  EXPECT_TRUE(saw_wall);
  EXPECT_TRUE(saw_simulated);
  std::filesystem::remove(path);
}

TEST(RunReportTest, RuntimeBlockValidatesAndRoundTrips) {
  // A real runtime run's stats become the report's optional `runtime` block.
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  NetworkRankingApp app(f.graph.num_vertices());
  PropagationConfig config = PropagationConfig::ForLevel(OptimizationLevel::kO4);
  config.iterations = 2;
  runtime::RuntimeExecutor<NetworkRankingApp> executor(
      setup.graph, setup.placement, setup.topology, app, config);
  ASSERT_TRUE(executor.Run().ok());
  const obs::JsonValue runtime_block =
      runtime::RuntimeStatsToJson(executor.stats());

  obs::RunReportOptions options;
  options.name = "run_report_test_runtime";
  const obs::JsonValue report = obs::BuildRunReport(
      options, nullptr, nullptr, nullptr, &runtime_block);
  ASSERT_TRUE(obs::ValidateRunReport(report).ok())
      << obs::ValidateRunReport(report).ToString();

  auto parsed = obs::ParseJson(report.Write());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue* rt = parsed->Find("runtime");
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(rt->Find("num_machines")->as_number(),
            f.topology.num_machines());
  EXPECT_GT(rt->Find("tasks_executed")->as_number(), 0.0);
  EXPECT_GT(rt->Find("network_bytes")->as_number(), 0.0);
  EXPECT_GT(rt->Find("barrier_generations")->as_number(), 0.0);
  // Every non-releasing arrival is one wait, spun or parked.
  EXPECT_EQ(rt->Find("barrier_waits_spun")->as_number() +
                rt->Find("barrier_waits_parked")->as_number(),
            rt->Find("barrier_generations")->as_number() *
                rt->Find("num_workers")->as_number());
  EXPECT_GT(rt->Find("handoff_seconds")->as_number(), 0.0);
  EXPECT_FALSE(rt->Find("channels")->as_array().empty());
  for (const obs::JsonValue& channel : rt->Find("channels")->as_array()) {
    EXPECT_GE(channel.Find("capacity")->as_number(), 1.0);
  }

  // The hand-off fields are optional (older reports lack them) but typed.
  obs::JsonValue bad_block = obs::JsonValue::MakeObject();
  for (const auto& [key, value] : runtime_block.as_object()) {
    bad_block.Set(key, key == "handoff_seconds" ? obs::JsonValue("fast")
                                                : value);
  }
  EXPECT_FALSE(obs::ValidateRunReport(obs::BuildRunReport(
                                          options, nullptr, nullptr, nullptr,
                                          &bad_block))
                   .ok());
}

TEST(RunReportTest, TimelineBlockValidatesAndRoundTrips) {
  // Schema v2: a profiled executor run's timeline becomes the report's
  // optional `timeline` block and survives a serialize/parse round trip.
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  NetworkRankingApp app(f.graph.num_vertices());
  PropagationConfig config =
      PropagationConfig::ForLevel(OptimizationLevel::kO4);
  config.iterations = 2;
  runtime::RuntimeExecutor<NetworkRankingApp> executor(
      setup.graph, setup.placement, setup.topology, app, config);
  ASSERT_TRUE(executor.Run().ok());
  const obs::JsonValue timeline_block =
      runtime::TimelineToJson(executor.stats().timeline);

  obs::RunReportOptions options;
  options.name = "run_report_test_timeline";
  const obs::JsonValue report =
      obs::BuildRunReport(options, nullptr, nullptr, nullptr,
                          /*runtime_block=*/nullptr, &timeline_block);
  ASSERT_TRUE(obs::ValidateRunReport(report).ok())
      << obs::ValidateRunReport(report).ToString();

  auto parsed = obs::ParseJson(report.Write());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(obs::ValidateRunReport(*parsed).ok())
      << obs::ValidateRunReport(*parsed).ToString();
  const obs::JsonValue* timeline = parsed->Find("timeline");
  ASSERT_NE(timeline, nullptr);
  ASSERT_EQ(timeline->Find("steps")->as_array().size(), 4u);
  for (const obs::JsonValue& step : timeline->Find("steps")->as_array()) {
    const std::string stage = step.Find("stage")->as_string();
    EXPECT_TRUE(stage == "transfer" || stage == "combine") << stage;
    ASSERT_NE(step.Find("straggler"), nullptr);
    EXPECT_GE(step.Find("straggler")->Find("skew")->as_number(), 0.0);
  }
  EXPECT_GT(timeline->Find("critical_path")->Find("total_busy_s")
                ->as_number(),
            0.0);
}

TEST(RunReportTest, ValidateAcceptsMinSupportedVersion) {
  // A v1 report (pre-timeline) must stay loadable.
  obs::JsonValue report = obs::JsonValue::MakeObject();
  report.Set("schema_version", obs::kMinSupportedRunReportSchemaVersion);
  report.Set("name", "legacy");
  EXPECT_TRUE(obs::ValidateRunReport(report).ok());
}

TEST(RunReportTest, ValidateAcceptsEveryVersionSinceMinSupported) {
  // v1 (pre-timeline) and v2 (pre-telemetry/provenance) reports both stay
  // loadable under the v3 validator: the new blocks are optional.
  for (int version = obs::kMinSupportedRunReportSchemaVersion;
       version <= obs::kRunReportSchemaVersion; ++version) {
    obs::JsonValue report = obs::JsonValue::MakeObject();
    report.Set("schema_version", version);
    report.Set("name", "versioned");
    EXPECT_TRUE(obs::ValidateRunReport(report).ok()) << "v" << version;
  }
}

TEST(RunReportTest, ProvenanceStampedAndValidated) {
  // Schema v3: every built report carries a provenance header answering
  // "what produced this file" — timestamp, host, build flavor.
  obs::RunReportOptions options;
  options.name = "run_report_test_provenance";
  const obs::JsonValue report =
      obs::BuildRunReport(options, nullptr, nullptr, nullptr);
  ASSERT_TRUE(obs::ValidateRunReport(report).ok())
      << obs::ValidateRunReport(report).ToString();
  const obs::JsonValue* provenance = report.Find("provenance");
  ASSERT_NE(provenance, nullptr);
  const std::string timestamp =
      provenance->Find("timestamp")->as_string();
  // ISO-8601 UTC: "2026-08-08T12:34:56Z".
  ASSERT_EQ(timestamp.size(), 20u) << timestamp;
  EXPECT_EQ(timestamp[4], '-');
  EXPECT_EQ(timestamp[10], 'T');
  EXPECT_EQ(timestamp.back(), 'Z');
  EXPECT_FALSE(provenance->Find("hostname")->as_string().empty());
  EXPECT_GE(provenance->Find("host_cores")->as_number(), 1.0);
  EXPECT_FALSE(provenance->Find("build_type") == nullptr);
  EXPECT_FALSE(provenance->Find("sanitizer") == nullptr);

  // A malformed provenance block (wrong type) must be rejected.
  obs::JsonValue bad = obs::JsonValue::MakeObject();
  bad.Set("schema_version", obs::kRunReportSchemaVersion);
  bad.Set("name", "x");
  obs::JsonValue bad_provenance = obs::JsonValue::MakeObject();
  bad_provenance.Set("host_cores", "four");
  bad.Set("provenance", std::move(bad_provenance));
  EXPECT_FALSE(obs::ValidateRunReport(bad).ok());
}

TEST(RunReportTest, TelemetryBlockValidatesAndRoundTrips) {
  // Schema v3: a flight recorder's ToJson becomes the report's optional
  // `telemetry` block and survives a serialize/parse round trip.
  obs::TelemetryOptions telemetry_options;
  telemetry_options.enabled = true;
  obs::TelemetryRecorder recorder(telemetry_options);
  double value = 0.0;
  recorder.RegisterGauge("test_gauge", "items", [&value] { return value; },
                         /*ceiling=*/100.0);
  recorder.RegisterGauge("flat_zero", "items", [] { return 0.0; });
  for (int i = 0; i < 5; ++i) {
    value = static_cast<double>(i * 10);
    recorder.SampleNow();
  }
  const obs::JsonValue telemetry_block = recorder.ToJson();

  obs::RunReportOptions options;
  options.name = "run_report_test_telemetry";
  const obs::JsonValue report = obs::BuildRunReport(
      options, nullptr, nullptr, nullptr, /*runtime_block=*/nullptr,
      /*timeline_block=*/nullptr, &telemetry_block);
  ASSERT_TRUE(obs::ValidateRunReport(report).ok())
      << obs::ValidateRunReport(report).ToString();

  auto parsed = obs::ParseJson(report.Write());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(obs::ValidateRunReport(*parsed).ok())
      << obs::ValidateRunReport(*parsed).ToString();
  const obs::JsonValue* telemetry = parsed->Find("telemetry");
  ASSERT_NE(telemetry, nullptr);
  EXPECT_GT(telemetry->Find("period_seconds")->as_number(), 0.0);
  EXPECT_EQ(telemetry->Find("samples_taken")->as_number(), 5.0);
  const obs::JsonValue* series = telemetry->Find("series");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->as_array().size(), 2u);
  const obs::JsonValue& gauge = series->as_array()[0];
  EXPECT_EQ(gauge.Find("name")->as_string(), "test_gauge");
  EXPECT_EQ(gauge.Find("max")->as_number(), 40.0);
  ASSERT_NE(gauge.Find("samples"), nullptr);
  EXPECT_EQ(gauge.Find("samples")->as_array().size(), 5u);
  // The all-zero series ships summary-only: no samples array.
  const obs::JsonValue& flat = series->as_array()[1];
  EXPECT_EQ(flat.Find("name")->as_string(), "flat_zero");
  EXPECT_EQ(flat.Find("samples"), nullptr);
}

TEST(RunReportTest, ValidateRejectsMalformedTelemetryBlock) {
  obs::JsonValue base = obs::JsonValue::MakeObject();
  base.Set("schema_version", obs::kRunReportSchemaVersion);
  base.Set("name", "x");

  {
    obs::JsonValue report = base;  // telemetry must be an object
    report.Set("telemetry", "nope");
    EXPECT_FALSE(obs::ValidateRunReport(report).ok());
  }
  {
    obs::JsonValue report = base;  // series entries need summary numbers
    auto parsed = obs::ParseJson(
        R"({"period_seconds": 0.001, "samples_taken": 1,
            "samples_dropped": 0,
            "series": [{"name": "g", "count": 1}]})");
    ASSERT_TRUE(parsed.ok());
    report.Set("telemetry", std::move(*parsed));
    EXPECT_FALSE(obs::ValidateRunReport(report).ok());
  }
  {
    obs::JsonValue report = base;  // samples must be [t_us, value] pairs
    auto parsed = obs::ParseJson(
        R"({"period_seconds": 0.001, "samples_taken": 1,
            "samples_dropped": 0,
            "series": [{"name": "g", "unit": "items", "count": 1,
                        "samples_dropped": 0, "min": 0, "mean": 0,
                        "max": 0, "p99": 0, "samples": [[1.0]]}]})");
    ASSERT_TRUE(parsed.ok());
    report.Set("telemetry", std::move(*parsed));
    EXPECT_FALSE(obs::ValidateRunReport(report).ok());
  }
}

TEST(RunReportTest, ValidateChecksTheClusterBlocksCoordinatorKeys) {
  obs::JsonValue base = obs::JsonValue::MakeObject();
  base.Set("schema_version", obs::kRunReportSchemaVersion);
  base.Set("name", "x");
  const auto with_cluster = [&base](const char* text) {
    obs::JsonValue report = base;
    auto parsed = obs::ParseJson(text);
    EXPECT_TRUE(parsed.ok()) << text;
    report.Set("cluster", std::move(*parsed));
    return report;
  };

  EXPECT_TRUE(obs::ValidateRunReport(with_cluster(
                  R"({"stragglers_flagged": 0,
                      "coordinator_s": {"spawn": 0.001, "handshake": 0.001,
                                        "rounds": 0.02, "finalize": 0.001,
                                        "reap": 0.0005},
                      "control_frames_read": {"task_done": 0,
                                              "round_done": 60}})"))
                  .ok());
  // A cluster block without the coordinator's phases.
  EXPECT_FALSE(obs::ValidateRunReport(with_cluster(
                   R"({"stragglers_flagged": 0,
                       "control_frames_read": {"round_done": 60}})"))
                   .ok());
  // A phase missing, or negative.
  EXPECT_FALSE(obs::ValidateRunReport(with_cluster(
                   R"({"stragglers_flagged": 0,
                       "coordinator_s": {"spawn": 0.001, "handshake": 0.001,
                                         "rounds": 0.02, "finalize": 0.001},
                       "control_frames_read": {"round_done": 60}})"))
                   .ok());
  EXPECT_FALSE(obs::ValidateRunReport(with_cluster(
                   R"({"stragglers_flagged": 0,
                       "coordinator_s": {"spawn": 0.001, "handshake": 0.001,
                                         "rounds": 0.02, "finalize": 0.001,
                                         "reap": -1},
                       "control_frames_read": {"round_done": 60}})"))
                   .ok());
  // Frame counts missing, empty, or not a count.
  EXPECT_FALSE(obs::ValidateRunReport(with_cluster(
                   R"({"stragglers_flagged": 0,
                       "coordinator_s": {"spawn": 0, "handshake": 0,
                                         "rounds": 0, "finalize": 0,
                                         "reap": 0}})"))
                   .ok());
  EXPECT_FALSE(obs::ValidateRunReport(with_cluster(
                   R"({"stragglers_flagged": 0,
                       "coordinator_s": {"spawn": 0, "handshake": 0,
                                         "rounds": 0, "finalize": 0,
                                         "reap": 0},
                       "control_frames_read": {}})"))
                   .ok());
  EXPECT_FALSE(obs::ValidateRunReport(with_cluster(
                   R"({"stragglers_flagged": 0,
                       "coordinator_s": {"spawn": 0, "handshake": 0,
                                         "rounds": 0, "finalize": 0,
                                         "reap": 0},
                       "control_frames_read": {"task_done": "none"}})"))
                   .ok());
}

TEST(RunReportTest, ValidateRejectsMalformedTimelineBlock) {
  obs::JsonValue base = obs::JsonValue::MakeObject();
  base.Set("schema_version", obs::kRunReportSchemaVersion);
  base.Set("name", "x");

  {
    obs::JsonValue report = base;  // timeline must be an object
    report.Set("timeline", "nope");
    EXPECT_FALSE(obs::ValidateRunReport(report).ok());
  }
  {
    obs::JsonValue report = base;  // steps[].stage must be a known stage
    auto parsed = obs::ParseJson(
        R"({"steps": [{"iteration": 0, "stage": "warp", "machines": [],
             "straggler": {"max_busy_s": 0, "mean_busy_s": 0, "skew": 0}}],
            "critical_path": {"total_busy_s": 0, "steps": []}})");
    ASSERT_TRUE(parsed.ok());
    report.Set("timeline", std::move(*parsed));
    EXPECT_FALSE(obs::ValidateRunReport(report).ok());
  }
  {
    obs::JsonValue report = base;  // machine rows need the phase fields
    auto parsed = obs::ParseJson(
        R"({"steps": [{"iteration": 0, "stage": "transfer",
             "machines": [{"machine": 0, "compute_s": 0.5}],
             "straggler": {"max_busy_s": 0, "mean_busy_s": 0, "skew": 0}}],
            "critical_path": {"total_busy_s": 0, "steps": []}})");
    ASSERT_TRUE(parsed.ok());
    report.Set("timeline", std::move(*parsed));
    EXPECT_FALSE(obs::ValidateRunReport(report).ok());
  }
  {
    obs::JsonValue report = base;  // critical_path needs total_busy_s
    auto parsed = obs::ParseJson(
        R"({"steps": [], "critical_path": {"steps": []}})");
    ASSERT_TRUE(parsed.ok());
    report.Set("timeline", std::move(*parsed));
    EXPECT_FALSE(obs::ValidateRunReport(report).ok());
  }
}

TEST(RunReportTest, ValidateRejectsMalformedRuntimeBlock) {
  obs::JsonValue report = obs::JsonValue::MakeObject();
  report.Set("schema_version", obs::kRunReportSchemaVersion);
  report.Set("name", "x");
  obs::JsonValue bad_runtime = obs::JsonValue::MakeObject();
  bad_runtime.Set("num_workers", 4);  // missing every other required field
  report.Set("runtime", std::move(bad_runtime));
  EXPECT_FALSE(obs::ValidateRunReport(report).ok());
}

/// `block` with `key` replaced by `value` (appended when absent).
obs::JsonValue WithField(const obs::JsonValue& block, const std::string& key,
                         obs::JsonValue value) {
  obs::JsonValue out = obs::JsonValue::MakeObject();
  for (const auto& [k, v] : block.as_object()) {
    if (k != key) {
      out.Set(k, v);
    }
  }
  out.Set(key, std::move(value));
  return out;
}

Status ValidateRuntimeBlock(const obs::JsonValue& block) {
  obs::RunReportOptions options;
  options.name = "run_report_test_runtime";
  return obs::ValidateRunReport(
      obs::BuildRunReport(options, nullptr, nullptr, nullptr, &block));
}

TEST(RunReportTest, ValidateChecksLinkRowsScalarsAndChannelRows) {
  runtime::RuntimeStats stats;
  stats.num_machines = 2;
  stats.link_bytes = {0, 96, 48, 0};
  stats.channels.resize(4);
  stats.channels[1].capacity = 64;
  stats.channels[1].sends = 2;
  stats.channels[1].receives = 2;
  const obs::JsonValue block = runtime::RuntimeStatsToJson(stats);
  ASSERT_TRUE(ValidateRuntimeBlock(block).ok())
      << ValidateRuntimeBlock(block).ToString();
  // Every nonzero link gets a row; only channels that carried traffic do.
  ASSERT_EQ(block.Find("links")->as_array().size(), 2u);
  ASSERT_EQ(block.Find("channels")->as_array().size(), 1u);

  obs::JsonValue link = obs::JsonValue::MakeObject();
  link.Set("src", 0);
  link.Set("dst", 1);
  obs::JsonValue links = obs::JsonValue::MakeArray();
  links.Append(link);
  EXPECT_FALSE(ValidateRuntimeBlock(WithField(block, "links", links)).ok());

  // A key outside the v1 required list, so only the scalar rule catches it.
  EXPECT_FALSE(
      ValidateRuntimeBlock(WithField(block, "wire_batches_sent", "12")).ok());

  obs::JsonValue channel = obs::JsonValue::MakeObject();
  for (const auto& [key, value] :
       block.Find("channels")->as_array()[0].as_object()) {
    if (key != "capacity") {
      channel.Set(key, value);
    }
  }
  obs::JsonValue channels = obs::JsonValue::MakeArray();
  channels.Append(std::move(channel));
  EXPECT_FALSE(
      ValidateRuntimeBlock(WithField(block, "channels", channels)).ok());
}

// Driven by RuntimeCounters::ForEachCounter alone, so a counter added to the
// list is covered here without editing the test: each counter gets a
// distinct value and reaches the registry as runtime_<key>, a counter when
// it is a uint64_t and a gauge when it is a double.
TEST(RunReportTest, ExportRuntimeStatsExportsEveryListedCounter) {
  runtime::RuntimeStats stats;
  double next = 1.0;
  runtime::RuntimeCounters::ForEachCounter([&](const char*, auto member) {
    using Field = std::remove_reference_t<decltype(stats.*member)>;
    stats.*member = static_cast<Field>(next);
    next += 1.0;
  });
  obs::MetricsRegistry registry;
  runtime::ExportRuntimeStats(stats, &registry);
  runtime::ExportRuntimeStats(stats, nullptr);  // no registry: a no-op

  std::map<std::string, obs::MetricSample> series;
  for (obs::MetricSample& sample : registry.Snapshot()) {
    const std::string name = sample.name;
    EXPECT_TRUE(series.emplace(name, std::move(sample)).second)
        << name << " exported twice";
  }
  runtime::RuntimeCounters::ForEachCounter([&](const char* name,
                                               auto member) {
    const auto it = series.find(std::string("runtime_") + name);
    ASSERT_NE(it, series.end()) << name;
    constexpr bool kGauge =
        std::is_same_v<decltype(member), double runtime::RuntimeCounters::*>;
    EXPECT_EQ(it->second.kind, kGauge ? obs::MetricSample::Kind::kGauge
                                      : obs::MetricSample::Kind::kCounter)
        << name;
    EXPECT_EQ(it->second.value, static_cast<double>(stats.*member)) << name;
  });
  EXPECT_EQ(series.at("runtime_runs_total").value, 1.0);
}

// -------------------------------------- counters vs. optimization levels

TEST(RunReportTest, CountersConsistentWithoutLocalOptimizations) {
  obs::MetricsRegistry registry;
  PropagationCounters counters;
  (void)RunObserved(OptimizationLevel::kO1, /*iterations=*/2, nullptr,
                    &registry, &counters);
  // O1: no local propagation, no local combination — every emitted message
  // is materialized.
  EXPECT_GT(counters.messages_emitted, 0u);
  EXPECT_EQ(counters.messages_locally_propagated, 0u);
  EXPECT_EQ(counters.messages_locally_combined, 0u);
  EXPECT_EQ(counters.messages_materialized, counters.messages_emitted);
  EXPECT_LE(counters.messages_network, counters.messages_materialized);
  // The registry saw the same numbers.
  EXPECT_EQ(registry.CounterRef("propagation_messages_emitted").value(),
            counters.messages_emitted);
  EXPECT_EQ(registry.CounterRef("propagation_messages_network").value(),
            counters.messages_network);
}

TEST(RunReportTest, CountersConsistentWithLocalOptimizations) {
  obs::MetricsRegistry registry;
  PropagationCounters counters;
  (void)RunObserved(OptimizationLevel::kO4, /*iterations=*/2, nullptr,
                    &registry, &counters);
  // O4: local propagation keeps inner-vertex messages in memory and local
  // combination merges same-target messages; both must fire on the social
  // graph, and the conservation invariant must hold exactly.
  EXPECT_GT(counters.messages_emitted, 0u);
  EXPECT_GT(counters.messages_locally_propagated, 0u);
  EXPECT_GT(counters.messages_locally_combined, 0u);
  EXPECT_EQ(counters.messages_emitted,
            counters.messages_locally_propagated +
                counters.messages_locally_combined +
                counters.messages_materialized);
  EXPECT_LT(counters.messages_materialized, counters.messages_emitted);
  EXPECT_LE(counters.messages_network, counters.messages_materialized);
  EXPECT_GT(counters.messages_network, 0u);
}

TEST(RunReportTest, SimulatedStageCountersMatchRunMetrics) {
  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  const RunMetrics run = RunObserved(OptimizationLevel::kO4, /*iterations=*/2,
                                     &tracer, &registry);
  EXPECT_EQ(registry.CounterRef("sim_stages_total").value(),
            run.stages.size());
  size_t total_tasks = 0;
  for (const StageMetrics& stage : run.stages) {
    total_tasks += stage.num_tasks;
  }
  EXPECT_EQ(registry.CounterRef("sim_tasks_total").value(), total_tasks);
  EXPECT_DOUBLE_EQ(registry.GaugeRef("sim_clock_seconds").value(),
                   run.response_time_s);
  EXPECT_EQ(registry.HistogramRef("sim_task_seconds").Snapshot().count(),
            total_tasks);
}

}  // namespace
}  // namespace surfer

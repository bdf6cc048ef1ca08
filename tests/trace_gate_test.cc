#include "obs/bench_gate.h"

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/json.h"

namespace surfer {
namespace obs {
namespace {

JsonValue ParseOrDie(const std::string& text) {
  auto parsed = ParseJson(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(parsed).value();
}

JsonValue LoadCommittedPartitionBaseline() {
  const std::string path =
      std::string(SURFER_SOURCE_DIR) + "/BENCH_partition.json";
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing committed baseline " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return ParseOrDie(text.str());
}

JsonValue* FindMutable(JsonValue& obj, const std::string& key) {
  for (auto& [k, v] : obj.as_object()) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

/// A minimal well-formed baseline pair for targeted checks.
JsonValue MakeBaselineDoc() {
  return ParseOrDie(R"({
    "schema_version": 1,
    "name": "bench_x",
    "smoke": false,
    "num_vertices": 1024,
    "host_cores": 8,
    "sequential_wall_s": 10.0,
    "points": [
      {"threads": 1, "wall_s": 10.0, "bit_identical": true,
       "network_bytes": 5000},
      {"threads": 2, "wall_s": 6.0, "bit_identical": true,
       "network_bytes": 5000}
    ]
  })");
}

TEST(BenchGateTest, CommittedPartitionBaselineSelfChecks) {
  // The acceptance contract: `surfer_trace check BENCH_partition.json` from
  // the repo root (current == baseline == the committed file) exits 0.
  const JsonValue doc = LoadCommittedPartitionBaseline();
  const JsonValue* version = doc.Find("schema_version");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(static_cast<int>(version->as_number()),
            kBenchBaselineSchemaVersion);
  const BenchCheckResult result = CheckBenchBaseline(doc, doc);
  EXPECT_TRUE(result.ok) << (result.failures.empty()
                                 ? ""
                                 : result.failures.front());
  EXPECT_TRUE(result.failures.empty());
}

TEST(BenchGateTest, PerturbedWallClockFailsAgainstCommittedBaseline) {
  const JsonValue baseline = LoadCommittedPartitionBaseline();
  JsonValue current = LoadCommittedPartitionBaseline();
  JsonValue* points = FindMutable(current, "points");
  ASSERT_NE(points, nullptr);
  ASSERT_FALSE(points->as_array().empty());
  JsonValue* wall = FindMutable(points->as_array()[0], "wall_s");
  ASSERT_NE(wall, nullptr);
  *wall = JsonValue(wall->as_number() * 10.0);  // far past any tolerance

  const BenchCheckResult result = CheckBenchBaseline(current, baseline);
  EXPECT_FALSE(result.ok);
  ASSERT_FALSE(result.failures.empty());
  EXPECT_NE(result.failures.front().find("wall_s regressed"),
            std::string::npos)
      << result.failures.front();
}

TEST(BenchGateTest, BitIdentityFalseFailsEvenWhenWorkloadsDiffer) {
  const JsonValue baseline = MakeBaselineDoc();
  JsonValue current = MakeBaselineDoc();
  // Different workload (timings skipped) AND a broken invariant: the
  // invariant must still fail — correctness is never tolerance-gated.
  *FindMutable(current, "num_vertices") = JsonValue(uint64_t{2048});
  JsonValue* points = FindMutable(current, "points");
  *FindMutable(points->as_array()[1], "bit_identical") = JsonValue(false);

  const BenchCheckResult result = CheckBenchBaseline(current, baseline);
  EXPECT_FALSE(result.ok);
  ASSERT_FALSE(result.failures.empty());
  EXPECT_NE(result.failures.front().find("bit_identical"), std::string::npos);
}

TEST(BenchGateTest, CollapsedWireBatchingFailsRegardlessOfWorkload) {
  const JsonValue baseline = MakeBaselineDoc();
  JsonValue current = MakeBaselineDoc();
  // Different workload (timings skipped), but the batching invariant is a
  // correctness gate: barely more than one segment per batch means the
  // message plane degenerated to per-stream channel sends.
  *FindMutable(current, "num_vertices") = JsonValue(uint64_t{2048});
  JsonValue* points = FindMutable(current, "points");
  points->as_array()[0].Set("wire_segments_sent", uint64_t{400});
  points->as_array()[0].Set("wire_batches_sent", uint64_t{100});

  const BenchCheckResult result = CheckBenchBaseline(current, baseline);
  EXPECT_FALSE(result.ok);
  ASSERT_FALSE(result.failures.empty());
  EXPECT_NE(result.failures.front().find("batching collapsed"),
            std::string::npos);

  // At >= 5x coalescing the same document passes.
  *FindMutable(points->as_array()[0], "wire_segments_sent") =
      JsonValue(uint64_t{500});
  EXPECT_TRUE(CheckBenchBaseline(current, baseline).ok);
  // Points without the wire counters (older baselines) are not gated.
  *FindMutable(points->as_array()[0], "wire_batches_sent") =
      JsonValue(uint64_t{0});
  EXPECT_TRUE(CheckBenchBaseline(current, baseline).ok);
}

TEST(BenchGateTest, NetworkBytesMustMatchExactly) {
  const JsonValue baseline = MakeBaselineDoc();
  JsonValue current = MakeBaselineDoc();
  JsonValue* points = FindMutable(current, "points");
  *FindMutable(points->as_array()[0], "network_bytes") =
      JsonValue(uint64_t{5001});

  const BenchCheckResult result = CheckBenchBaseline(current, baseline);
  EXPECT_FALSE(result.ok);
  ASSERT_FALSE(result.failures.empty());
  EXPECT_NE(result.failures.front().find("network_bytes"), std::string::npos);
}

TEST(BenchGateTest, MismatchedNamesFail) {
  JsonValue current = MakeBaselineDoc();
  *FindMutable(current, "name") = JsonValue(std::string("bench_y"));
  EXPECT_FALSE(CheckBenchBaseline(current, MakeBaselineDoc()).ok);
}

TEST(BenchGateTest, WorkloadMismatchSkipsTimingComparisons) {
  const JsonValue baseline = MakeBaselineDoc();
  JsonValue current = MakeBaselineDoc();
  *FindMutable(current, "num_vertices") = JsonValue(uint64_t{4096});
  JsonValue* points = FindMutable(current, "points");
  *FindMutable(points->as_array()[0], "wall_s") = JsonValue(500.0);

  const BenchCheckResult result = CheckBenchBaseline(current, baseline);
  EXPECT_TRUE(result.ok);  // 50x slower, but on a different workload
  EXPECT_FALSE(result.notes.empty());
}

TEST(BenchGateTest, SmokeFlagMismatchSkipsTimingComparisons) {
  const JsonValue baseline = MakeBaselineDoc();
  JsonValue current = MakeBaselineDoc();
  *FindMutable(current, "smoke") = JsonValue(true);
  *FindMutable(current, "sequential_wall_s") = JsonValue(999.0);
  const BenchCheckResult result = CheckBenchBaseline(current, baseline);
  EXPECT_TRUE(result.ok);
  EXPECT_FALSE(result.notes.empty());
}

TEST(BenchGateTest, CrossHostCoresWidensTolerance) {
  const JsonValue baseline = MakeBaselineDoc();  // host_cores 8
  JsonValue current = MakeBaselineDoc();
  JsonValue* points = FindMutable(current, "points");
  // 1.8x slower: beyond the 35% same-host tolerance...
  *FindMutable(points->as_array()[0], "wall_s") = JsonValue(18.0);
  EXPECT_FALSE(CheckBenchBaseline(current, baseline).ok);

  // ...but acceptable when the current run came from a 1-core container
  // (cross-host + small-host slack: 0.35 + 1.0 + 0.65 = 2.0 → up to 3x).
  *FindMutable(current, "host_cores") = JsonValue(uint64_t{1});
  EXPECT_TRUE(CheckBenchBaseline(current, baseline).ok);
}

TEST(BenchGateTest, ImprovementsAreNotesNotFailures) {
  const JsonValue baseline = MakeBaselineDoc();
  JsonValue current = MakeBaselineDoc();
  JsonValue* points = FindMutable(current, "points");
  *FindMutable(points->as_array()[1], "wall_s") = JsonValue(0.5);
  const BenchCheckResult result = CheckBenchBaseline(current, baseline);
  EXPECT_TRUE(result.ok);
  ASSERT_FALSE(result.notes.empty());
  EXPECT_NE(result.notes.front().find("improved"), std::string::npos);
}

TEST(BenchGateTest, ExtraPointsAreNoted) {
  const JsonValue baseline = MakeBaselineDoc();
  JsonValue current = MakeBaselineDoc();
  JsonValue* points = FindMutable(current, "points");
  JsonValue extra = ParseOrDie(
      R"({"threads": 16, "wall_s": 1.0, "bit_identical": true})");
  points->Append(std::move(extra));
  const BenchCheckResult result = CheckBenchBaseline(current, baseline);
  EXPECT_TRUE(result.ok);
  ASSERT_FALSE(result.notes.empty());
  EXPECT_NE(result.notes.back().find("no baseline counterpart"),
            std::string::npos);
}

TEST(BenchGateTest, DropCountersNoteByDefaultFailWhenStrict) {
  const JsonValue baseline = MakeBaselineDoc();
  JsonValue current = MakeBaselineDoc();
  JsonValue* points = FindMutable(current, "points");
  points->as_array()[0].Set("trace_events_dropped", uint64_t{3});
  points->as_array()[1].Set("telemetry_samples_dropped", uint64_t{7});

  // Default: drops mean the *recording* is partial, not that the run
  // misbehaved — advisory notes, check still passes.
  const BenchCheckResult lenient = CheckBenchBaseline(current, baseline);
  EXPECT_TRUE(lenient.ok);
  int drop_notes = 0;
  for (const std::string& note : lenient.notes) {
    if (note.find("incomplete") != std::string::npos) {
      ++drop_notes;
    }
  }
  EXPECT_EQ(drop_notes, 2);

  // Strict (CI smoke): an undersized ring is a configuration bug.
  BenchCheckOptions strict;
  strict.strict_drops = true;
  const BenchCheckResult failed = CheckBenchBaseline(current, baseline, strict);
  EXPECT_FALSE(failed.ok);
  EXPECT_EQ(failed.failures.size(), 2u);
  EXPECT_NE(failed.failures.front().find("strict drops"), std::string::npos);

  // Zero drops stay silent even under strict.
  *FindMutable(points->as_array()[0], "trace_events_dropped") =
      JsonValue(uint64_t{0});
  *FindMutable(points->as_array()[1], "telemetry_samples_dropped") =
      JsonValue(uint64_t{0});
  EXPECT_TRUE(CheckBenchBaseline(current, baseline, strict).ok);
}

// A document without points is a run report: check gates its schema (here
// a link row without bytes) and its top-level drop counters.
TEST(BenchGateTest, ReportArtifactsMustPassTheRunReportSchema) {
  JsonValue report = ParseOrDie(R"({
    "schema_version": 3, "name": "surfer_dist_worker_0",
    "runtime": {"num_workers": 1, "num_machines": 2, "iterations": 1,
      "tasks_executed": 4, "tasks_reexecuted": 0, "machine_failures": 0,
      "messages_sent": 9, "buffers_sent": 2, "send_stalls": 0,
      "barrier_wait_seconds": 0.5, "barrier_generations": 4,
      "wall_seconds": 1.0, "network_bytes": 96,
      "channel_depth": {"count": 0}, "barrier_wait": {"count": 0},
      "links": [{"src": 0, "dst": 1, "bytes": 96}], "channels": []}})");
  EXPECT_TRUE(CheckBenchBaseline(report, report).ok);

  JsonValue* runtime = FindMutable(report, "runtime");
  JsonValue* link = &FindMutable(*runtime, "links")->as_array()[0];
  link->as_object().pop_back();  // drop "bytes"
  const BenchCheckResult result = CheckBenchBaseline(report, report);
  EXPECT_FALSE(result.ok);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_NE(result.failures[0].find("bytes"), std::string::npos);
}

// A run report counts its drops in the metrics registry (the runtime's and
// the serving plane's trace shards): strict drops fail on them, by name.
TEST(BenchGateTest, ReportRegistryDropCountersAreGated) {
  JsonValue report = ParseOrDie(R"({
    "schema_version": 3, "name": "serve_report",
    "metrics": {"counters": [
      {"name": "serve_queries_total", "labels": {"kind": "rank"}, "value": 9},
      {"name": "serve_trace_events_dropped", "value": 0}],
      "gauges": [], "histograms": []}})");
  BenchCheckOptions strict;
  strict.strict_drops = true;
  EXPECT_TRUE(CheckBenchBaseline(report, report, strict).ok);

  JsonValue* counters = FindMutable(*FindMutable(report, "metrics"),
                                    "counters");
  *FindMutable(counters->as_array()[1], "value") = JsonValue(uint64_t{4});
  EXPECT_TRUE(CheckBenchBaseline(report, report).ok) << "advisory by default";
  const BenchCheckResult failed = CheckBenchBaseline(report, report, strict);
  EXPECT_FALSE(failed.ok);
  ASSERT_EQ(failed.failures.size(), 1u);
  EXPECT_NE(failed.failures[0].find("serve_trace_events_dropped"),
            std::string::npos);
}

TEST(BenchGateTest, PeakRssGatedWithHostAwareTolerance) {
  JsonValue baseline = MakeBaselineDoc();
  JsonValue* base_points = FindMutable(baseline, "points");
  base_points->as_array()[0].Set("peak_rss_bytes", uint64_t{100000000});
  JsonValue current = baseline;

  // Within the same-host 35% tolerance: fine.
  JsonValue* points = FindMutable(current, "points");
  *FindMutable(points->as_array()[0], "peak_rss_bytes") =
      JsonValue(uint64_t{120000000});
  EXPECT_TRUE(CheckBenchBaseline(current, baseline).ok);

  // 2x the baseline: a memory regression, gated like a timing one.
  *FindMutable(points->as_array()[0], "peak_rss_bytes") =
      JsonValue(uint64_t{200000000});
  const BenchCheckResult result = CheckBenchBaseline(current, baseline);
  EXPECT_FALSE(result.ok);
  ASSERT_FALSE(result.failures.empty());
  EXPECT_NE(result.failures.front().find("peak_rss_bytes"),
            std::string::npos);

  // A zero on either side means "probe unavailable", never a regression.
  *FindMutable(points->as_array()[0], "peak_rss_bytes") =
      JsonValue(uint64_t{0});
  EXPECT_TRUE(CheckBenchBaseline(current, baseline).ok);
  *FindMutable(points->as_array()[0], "peak_rss_bytes") =
      JsonValue(uint64_t{200000000});
  *FindMutable(base_points->as_array()[0], "peak_rss_bytes") =
      JsonValue(uint64_t{0});
  EXPECT_TRUE(CheckBenchBaseline(current, baseline).ok);
}

TEST(BenchGateTest, TelemetryOverheadFracIsNotAWorkloadField) {
  // The measured sampler overhead varies run to run; it must not disable
  // timing comparisons the way a genuine workload-shape mismatch does.
  const JsonValue baseline = MakeBaselineDoc();
  JsonValue current = MakeBaselineDoc();
  current.Set("telemetry_overhead_frac", 0.013);
  JsonValue* points = FindMutable(current, "points");
  *FindMutable(points->as_array()[0], "wall_s") = JsonValue(500.0);
  // Timings are still compared (and fail): the overhead field was ignored.
  EXPECT_FALSE(CheckBenchBaseline(current, baseline).ok);
}

TEST(JsonDiffTest, ReportsChangedNumericLeavesWithPaths) {
  const JsonValue before = ParseOrDie(
      R"({"a": 1, "b": {"c": 2.5, "d": "text"},
          "points": [{"x": 1}, {"x": 2}]})");
  const JsonValue after = ParseOrDie(
      R"({"a": 1, "b": {"c": 3.5, "d": "text"},
          "points": [{"x": 1}, {"x": 9}], "extra": 42})");
  const std::vector<JsonDelta> deltas = DiffNumbers(before, after);
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(deltas[0].path, "b.c");
  EXPECT_DOUBLE_EQ(deltas[0].before, 2.5);
  EXPECT_DOUBLE_EQ(deltas[0].after, 3.5);
  EXPECT_EQ(deltas[1].path, "points[1].x");
  EXPECT_DOUBLE_EQ(deltas[1].before, 2);
  EXPECT_DOUBLE_EQ(deltas[1].after, 9);
}

TEST(JsonDiffTest, IdenticalDocumentsProduceNoDeltas) {
  const JsonValue doc = MakeBaselineDoc();
  EXPECT_TRUE(DiffNumbers(doc, doc).empty());
}

}  // namespace
}  // namespace obs
}  // namespace surfer

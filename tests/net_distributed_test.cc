// End-to-end tests of the multi-process distributed engine: bit-identity
// against the sequential PropagationRunner at several process counts, exact
// per-link byte reconciliation with the analytic model, recovery from real
// child-process kills, and graceful SIGTERM decommission with artifact
// flush. Every test forks real OS processes and moves real bytes over
// localhost TCP.

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "apps/degree_distribution.h"
#include "apps/network_ranking.h"
#include "core/engine.h"
#include "obs/json.h"
#include "obs/metrics_registry.h"
#include "obs/run_report.h"
#include "obs/trace_merge.h"
#include "propagation/config.h"
#include "propagation/runner.h"
#include "runtime/report.h"
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

PropagationConfig ConfigFor(OptimizationLevel level, int iterations) {
  PropagationConfig config = PropagationConfig::ForLevel(level);
  config.iterations = iterations;
  return config;
}

/// Each test configures its own fault/process/artifact options, so every run
/// opens a fresh session over the shared fixture.
template <typename App>
Result<RunAppResult<App>> RunViaEngine(const BenchmarkSetup& setup, App app,
                                       const EngineOptions& options) {
  SURFER_ASSIGN_OR_RETURN(Engine engine, Engine::Open(setup, options));
  return engine.Run(std::move(app));
}

template <typename State>
void ExpectBitIdentical(const std::vector<State>& expected,
                        const std::vector<State>& actual,
                        const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  if (std::memcmp(expected.data(), actual.data(),
                  expected.size() * sizeof(State)) == 0) {
    return;
  }
  for (size_t v = 0; v < expected.size(); ++v) {
    ASSERT_EQ(std::memcmp(&expected[v], &actual[v], sizeof(State)), 0)
        << what << ": first bit difference at vertex " << v;
  }
}

TEST(NetDistributedTest, NetworkRankingBitIdenticalAcrossProcessCounts) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  const PropagationConfig config =
      ConfigFor(OptimizationLevel::kO4, /*iterations=*/3);
  NetworkRankingApp app(f.graph.num_vertices());
  PropagationRunner<NetworkRankingApp> runner(setup.graph, setup.placement,
                                              setup.topology, app, config);
  ASSERT_TRUE(runner.Run(setup.sim_options).ok());

  // 1 process = all machines in one child (pure local delivery); 3 forces
  // machine multiplexing across uneven groups; 8 is one process per machine
  // with every exchange crossing a real TCP link.
  for (uint32_t procs : {1u, 3u, 8u}) {
    EngineOptions options;
    options.engine = EngineKind::kDistributed;
    options.propagation = config;
    options.distributed.max_processes = procs;
    auto result = RunViaEngine(setup, app, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectBitIdentical(runner.states(), result->states,
                       "distributed @ " + std::to_string(procs) + " procs");
    ASSERT_TRUE(result->runtime_stats.has_value());
    EXPECT_EQ(result->runtime_stats->num_processes, procs);
    EXPECT_EQ(result->runtime_stats->machine_failures, 0u);
    EXPECT_GT(result->runtime_stats->messages_sent, 0u);
    if (procs > 1) {
      EXPECT_GT(result->runtime_stats->tcp_bytes_sent, 0u);
      EXPECT_GT(result->runtime_stats->tcp_frames_sent, 0u);
    }

    // Per-link reconciliation: the TCP engine's priced bytes equal the
    // analytic model's, link by link, exactly.
    const std::vector<double> model = runner.link_network_bytes();
    ASSERT_EQ(model.size(), result->link_network_bytes.size());
    const uint32_t n = f.topology.num_machines();
    for (uint32_t src = 0; src < n; ++src) {
      for (uint32_t dst = 0; dst < n; ++dst) {
        const size_t i = static_cast<size_t>(src) * n + dst;
        if (src == dst) {
          EXPECT_EQ(result->link_network_bytes[i], 0.0);
          continue;
        }
        EXPECT_EQ(model[i], result->link_network_bytes[i])
            << "link " << src << "->" << dst << " @ " << procs << " procs";
      }
    }
  }
}

TEST(NetDistributedTest, VirtualOutputsMatchSequentialAcrossProcessCounts) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  const PropagationConfig config =
      ConfigFor(OptimizationLevel::kO4, /*iterations=*/1);
  DegreeDistributionApp app;
  PropagationRunner<DegreeDistributionApp> runner(
      setup.graph, setup.placement, setup.topology, app, config);
  ASSERT_TRUE(runner.Run(setup.sim_options).ok());
  ASSERT_FALSE(runner.virtual_outputs().empty());

  for (uint32_t procs : {1u, 3u, 8u}) {
    EngineOptions options;
    options.engine = EngineKind::kDistributed;
    options.propagation = config;
    options.distributed.max_processes = procs;
    auto result = RunViaEngine(setup, app, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectBitIdentical(runner.states(), result->states,
                       "VDD @ " + std::to_string(procs) + " procs");
    EXPECT_EQ(runner.virtual_outputs(), result->virtual_outputs)
        << procs << " procs";
  }
}

/// A SilentVertexSkippableApp with real messages (mirrors the runtime test's
/// SkippableSumApp): Combine with no messages is a genuine no-op, so the
/// distributed engine may skip silent vertices under frontier gating.
struct DistSkippableSumApp {
  using VertexState = double;
  using Message = double;

  VertexState InitState(VertexId v, std::span<const VertexId>) const {
    return 1.0 + static_cast<double>(v % 7);
  }
  void Transfer(VertexId v, const VertexState& state,
                std::span<const VertexId> neighbors,
                PropagationEmitter<Message>& emitter) const {
    if (v % 2 != 0 || neighbors.empty()) {
      return;
    }
    const double share = state / static_cast<double>(neighbors.size());
    for (VertexId n : neighbors) {
      emitter.Emit(n, share);
    }
  }
  void Combine(VertexId, VertexState& state, std::span<const VertexId>,
               std::vector<Message>& messages) const {
    for (const Message& m : messages) {
      state += m;
    }
  }
  size_t MessageBytes(const Message&) const { return sizeof(Message); }
  size_t StateBytes(const VertexState&) const { return sizeof(VertexState); }

  static constexpr bool kSkipSilentVertices = true;
};

TEST(NetDistributedTest, FrontierGatingBitIdenticalAcrossProcessCounts) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  DistSkippableSumApp app;

  // Ungated sequential reference (exact legacy full-range loop).
  PropagationConfig reference_config =
      ConfigFor(OptimizationLevel::kO4, /*iterations=*/3);
  reference_config.frontier_gating = false;
  PropagationRunner<DistSkippableSumApp> runner(
      setup.graph, setup.placement, setup.topology, app, reference_config);
  ASSERT_TRUE(runner.Run(setup.sim_options).ok());

  for (uint32_t procs : {1u, 3u}) {
    for (bool gating : {false, true}) {
      EngineOptions options;
      options.engine = EngineKind::kDistributed;
      options.propagation = reference_config;
      options.propagation.frontier_gating = gating;
      options.distributed.max_processes = procs;
      auto result = RunViaEngine(setup, app, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectBitIdentical(runner.states(), result->states,
                         std::string("gating ") + (gating ? "on" : "off") +
                             " @ " + std::to_string(procs) + " procs");
      ASSERT_TRUE(result->runtime_stats.has_value());
      EXPECT_GT(result->runtime_stats->combine_messages_scattered, 0u);
      if (gating) {
        EXPECT_GT(result->runtime_stats->frontier_vertices_skipped, 0u);
      } else {
        EXPECT_EQ(result->runtime_stats->frontier_vertices_skipped, 0u);
      }
    }
  }
}

TEST(NetDistributedTest, ProcessKillMidSuperstepRecoversBitIdentically) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  const PropagationConfig config =
      ConfigFor(OptimizationLevel::kO4, /*iterations=*/3);
  NetworkRankingApp app(f.graph.num_vertices());
  PropagationRunner<NetworkRankingApp> runner(setup.graph, setup.placement,
                                              setup.topology, app, config);
  ASSERT_TRUE(runner.Run(setup.sim_options).ok());

  // One process per machine, so the plan kills a whole OS process midway
  // through iteration 1's transfer stage (after one of its two tasks) — its
  // unflushed work, retained batches, and inboxes die with it, and recovery
  // must rebuild everything on the first alive replica.
  EngineOptions options;
  options.engine = EngineKind::kDistributed;
  options.propagation = config;
  options.distributed.max_processes = 8;
  runtime::RuntimeFaultPlan plan;
  plan.machine = 2;
  plan.iteration = 1;
  plan.stage = runtime::RuntimeStage::kTransfer;
  plan.after_tasks = 1;
  options.distributed.faults.push_back(plan);
  auto result = RunViaEngine(setup, app, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectBitIdentical(runner.states(), result->states,
                     "recovery after process kill");
  ASSERT_TRUE(result->runtime_stats.has_value());
  EXPECT_GE(result->runtime_stats->machine_failures, 1u);
  EXPECT_GT(result->runtime_stats->tasks_reexecuted, 0u);
  // The replacement executor is a non-primary replica, so it re-fetched the
  // spills the primary had already consumed.
  EXPECT_GT(result->runtime_stats->refetch_bytes, 0u);
  EXPECT_GT(result->runtime_stats->resend_bytes, 0u);
}

TEST(NetDistributedTest, KillDuringCombineStageAlsoRecovers) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  const PropagationConfig config =
      ConfigFor(OptimizationLevel::kO4, /*iterations=*/3);
  NetworkRankingApp app(f.graph.num_vertices());
  PropagationRunner<NetworkRankingApp> runner(setup.graph, setup.placement,
                                              setup.topology, app, config);
  ASSERT_TRUE(runner.Run(setup.sim_options).ok());

  EngineOptions options;
  options.engine = EngineKind::kDistributed;
  options.propagation = config;
  options.distributed.max_processes = 8;
  runtime::RuntimeFaultPlan plan;
  plan.machine = 5;
  plan.iteration = 1;
  plan.stage = runtime::RuntimeStage::kCombine;
  plan.after_tasks = 1;
  options.distributed.faults.push_back(plan);
  auto result = RunViaEngine(setup, app, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectBitIdentical(runner.states(), result->states,
                     "recovery after combine-stage kill");
  EXPECT_GE(result->runtime_stats->machine_failures, 1u);
  EXPECT_GT(result->runtime_stats->tasks_reexecuted, 0u);
}

TEST(NetDistributedTest, SigtermFlushesReportBeforeExit) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  const PropagationConfig config =
      ConfigFor(OptimizationLevel::kO4, /*iterations=*/3);
  NetworkRankingApp app(f.graph.num_vertices());
  PropagationRunner<NetworkRankingApp> runner(setup.graph, setup.placement,
                                              setup.topology, app, config);
  ASSERT_TRUE(runner.Run(setup.sim_options).ok());

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("surfer_dist_sigterm_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  EngineOptions options;
  options.engine = EngineKind::kDistributed;
  options.propagation = config;
  options.distributed.max_processes = 8;
  options.distributed.artifact_dir = dir.string();
  // Machine 6's process receives a real SIGTERM before iteration 1; it must
  // flush staged batches + its run report and exit 0, and the run must
  // converge bit-identically on the survivors.
  options.distributed.sigterm_machine = 6;
  options.distributed.sigterm_iteration = 1;
  auto result = RunViaEngine(setup, app, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectBitIdentical(runner.states(), result->states,
                     "graceful SIGTERM decommission");
  EXPECT_GE(result->runtime_stats->machine_failures, 1u);

  // The victim's report landed on disk despite the mid-run termination.
  const std::filesystem::path victim = dir / "dist_worker_6.report.json";
  ASSERT_TRUE(std::filesystem::exists(victim)) << victim;
  std::ifstream in(victim);
  std::ostringstream text;
  text << in.rdbuf();
  auto parsed = obs::ParseJson(text.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue* runtime_block = parsed->Find("runtime");
  ASSERT_NE(runtime_block, nullptr);
  const obs::JsonValue* tasks = runtime_block->Find("tasks_executed");
  ASSERT_NE(tasks, nullptr);
  EXPECT_GT(tasks->as_number(), 0.0);
  std::filesystem::remove_all(dir);
}

TEST(NetDistributedTest, ArtifactsLandForEveryProcessAndMerge) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  const PropagationConfig config =
      ConfigFor(OptimizationLevel::kO4, /*iterations=*/2);
  NetworkRankingApp app(f.graph.num_vertices());

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("surfer_dist_artifacts_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  EngineOptions options;
  options.engine = EngineKind::kDistributed;
  options.propagation = config;
  options.distributed.max_processes = 3;
  options.distributed.artifact_dir = dir.string();
  auto result = RunViaEngine(setup, app, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::vector<obs::TraceMergeInput> inputs;
  for (uint32_t proc = 0; proc < 3; ++proc) {
    const std::filesystem::path report =
        dir / ("dist_worker_" + std::to_string(proc) + ".report.json");
    const std::filesystem::path trace =
        dir / ("dist_worker_" + std::to_string(proc) + ".trace.json");
    ASSERT_TRUE(std::filesystem::exists(report)) << report;
    ASSERT_TRUE(std::filesystem::exists(trace)) << trace;
    std::ifstream in(trace);
    std::ostringstream text;
    text << in.rdbuf();
    auto parsed = obs::ParseJson(text.str());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    inputs.push_back({"worker " + std::to_string(proc),
                      std::move(parsed).value()});
  }
  auto merged = obs::MergeChromeTraces(inputs);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  const obs::JsonValue* events = merged->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_GT(events->as_array().size(), 3u);
  const obs::JsonValue* aligned = merged->Find("aligned");
  ASSERT_NE(aligned, nullptr);
  EXPECT_TRUE(aligned->is_bool() && aligned->as_bool());
  // Without clock sync the shards anchor on raw wall-clock origins only.
  const obs::JsonValue* alignment = merged->Find("alignment");
  ASSERT_NE(alignment, nullptr);
  EXPECT_EQ(alignment->as_string(), "origin");
  std::filesystem::remove_all(dir);
}

TEST(NetDistributedTest, InjectedStallIsFlaggedOnlineWithoutAborting) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  const PropagationConfig config =
      ConfigFor(OptimizationLevel::kO4, /*iterations=*/3);
  NetworkRankingApp app(f.graph.num_vertices());
  PropagationRunner<NetworkRankingApp> runner(setup.graph, setup.placement,
                                              setup.topology, app, config);
  ASSERT_TRUE(runner.Run(setup.sim_options).ok());

  // Process 2 sleeps 600ms inside iteration 2's combine round. With the
  // detector's floor pulled down to 60ms, the other workers' heartbeats
  // keep the coordinator's event loop ticking while it waits, so the stall
  // must be flagged online — and the round must still complete normally
  // once the sleeper wakes: a straggler is an alert, not a fault. The other
  // workers report that they wait at the round's barrier, so only the
  // sleeper is flagged.
  EngineOptions options;
  options.engine = EngineKind::kDistributed;
  options.propagation = config;
  options.distributed.max_processes = 4;
  options.distributed.heartbeat_period_ms = 15;
  options.distributed.clock_sync_pings = 4;
  options.distributed.straggler_multiple = 3.0;
  options.distributed.straggler_min_ms = 60;
  options.distributed.stall_proc = 2;
  options.distributed.stall_iteration = 2;
  options.distributed.stall_ms = 600;
  std::string status_tables;
  options.distributed.status_sink = [&status_tables](
                                        const std::string& table) {
    status_tables += table;
  };
  auto result = RunViaEngine(setup, app, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectBitIdentical(runner.states(), result->states,
                     "bit-identity with an injected straggler");
  ASSERT_TRUE(result->runtime_stats.has_value());
  EXPECT_EQ(result->runtime_stats->machine_failures, 0u);

  ASSERT_TRUE(result->cluster.has_value());
  const obs::JsonValue* flagged = result->cluster->Find("stragglers_flagged");
  ASSERT_NE(flagged, nullptr);
  EXPECT_EQ(flagged->as_number(), 1.0);
  // The live status table the sink streamed marked the sleeper, and only it.
  EXPECT_NE(status_tables.find("STRAGGLE"), std::string::npos);
  std::istringstream rows(status_tables);
  for (std::string row; std::getline(rows, row);) {
    if (row.find("STRAGGLE") != std::string::npos) {
      EXPECT_EQ(row.rfind("2 ", 0), 0u) << row;
    }
  }

  // The cluster critical path covers every round the coordinator drove,
  // and clock sync produced offset-corrected link samples.
  const obs::JsonValue* critical = result->cluster->Find("critical_path");
  ASSERT_NE(critical, nullptr);
  const obs::JsonValue* steps = critical->Find("steps");
  ASSERT_NE(steps, nullptr);
  EXPECT_EQ(steps->as_array().size(),
            result->runtime_stats->barrier_generations);
  const obs::JsonValue* links = result->cluster->Find("links");
  ASSERT_NE(links, nullptr);
  EXPECT_FALSE(links->as_array().empty());
}

TEST(NetDistributedTest, RecoveryStaysBitIdenticalWithHealthPlaneEnabled) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  const PropagationConfig config =
      ConfigFor(OptimizationLevel::kO4, /*iterations=*/3);
  NetworkRankingApp app(f.graph.num_vertices());
  PropagationRunner<NetworkRankingApp> runner(setup.graph, setup.placement,
                                              setup.topology, app, config);
  ASSERT_TRUE(runner.Run(setup.sim_options).ok());

  // Heartbeats, clock sync, and frame stamping are all observation planes:
  // with every one of them enabled, first-alive-replica recovery from a
  // real process kill must still reproduce the sequential states bit for
  // bit.
  EngineOptions options;
  options.engine = EngineKind::kDistributed;
  options.propagation = config;
  options.distributed.max_processes = 8;
  options.distributed.heartbeat_period_ms = 10;
  options.distributed.clock_sync_pings = 4;
  runtime::RuntimeFaultPlan plan;
  plan.machine = 2;
  plan.iteration = 1;
  plan.stage = runtime::RuntimeStage::kTransfer;
  plan.after_tasks = 1;
  options.distributed.faults.push_back(plan);
  auto result = RunViaEngine(setup, app, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectBitIdentical(runner.states(), result->states,
                     "recovery with the health plane enabled");
  EXPECT_GE(result->runtime_stats->machine_failures, 1u);
  EXPECT_GT(result->runtime_stats->tasks_reexecuted, 0u);
}

// Both real engines report through the one RuntimeCounters list: the same
// O4 NR job gives one runtime-block shape and the same message and network
// byte counts, and per-process counters such as the telemetry tallies reach
// the merged distributed stats as the sum of the workers' own reports.
TEST(NetDistributedTest, RuntimeStatsMatchTheThreadedEngine) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  const PropagationConfig config =
      ConfigFor(OptimizationLevel::kO4, /*iterations=*/2);
  NetworkRankingApp app(f.graph.num_vertices());

  EngineOptions threaded;
  threaded.engine = EngineKind::kConcurrent;
  threaded.propagation = config;
  auto local = RunViaEngine(setup, app, threaded);
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  ASSERT_TRUE(local->runtime_stats.has_value());

  net::DistributedOptions options;
  options.max_processes = 3;
  options.telemetry.enabled = true;
  net::DistributedExecutor<NetworkRankingApp> dist(
      setup.graph, setup.placement, setup.topology, app, config, options);
  ASSERT_TRUE(dist.Run().ok());

  const obs::JsonValue local_block =
      runtime::RuntimeStatsToJson(*local->runtime_stats);
  const obs::JsonValue dist_block = runtime::RuntimeStatsToJson(dist.stats());
  std::set<std::string> local_keys;
  for (const auto& [key, value] : local_block.as_object()) {
    local_keys.insert(key);
  }
  std::set<std::string> dist_keys;
  for (const auto& [key, value] : dist_block.as_object()) {
    if (key != "num_processes") {
      dist_keys.insert(key);
    }
  }
  EXPECT_EQ(local_keys, dist_keys);
  EXPECT_EQ(local->runtime_stats->messages_sent, dist.stats().messages_sent);
  EXPECT_EQ(local->runtime_stats->TotalNetworkBytes(),
            dist.stats().TotalNetworkBytes());

  uint64_t reported_samples = 0;
  ASSERT_EQ(dist.worker_reports().size(), 3u);
  for (const std::string& text : dist.worker_reports()) {
    auto report = obs::ParseJson(text);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    // Worker reports carry their link matrix as `links` rows and pass the
    // same schema as the threaded engine's reports.
    const Status valid = obs::ValidateRunReport(*report);
    EXPECT_TRUE(valid.ok()) << valid.ToString();
    const obs::JsonValue* runtime = report->Find("runtime");
    ASSERT_NE(runtime, nullptr);
    const obs::JsonValue* samples = runtime->Find("telemetry_samples");
    ASSERT_NE(samples, nullptr);
    reported_samples += static_cast<uint64_t>(samples->as_number());
  }
  EXPECT_GT(dist.stats().telemetry_samples, 0u);
  EXPECT_EQ(dist.stats().telemetry_samples, reported_samples);
}

// Wire batching holds across processes too: with 8 partitions per machine,
// each pooled batch coalesces at least five per-task segments, the floor the
// bench gate puts on the threaded engine's points.
TEST(NetDistributedTest, WireBatchesCoalesceSegmentsAcrossProcesses) {
  const EngineFixture f = MakeEngineFixture(1 << 13, 64);
  EngineOptions options;
  options.engine = EngineKind::kDistributed;
  options.propagation = ConfigFor(OptimizationLevel::kO4, /*iterations=*/2);
  options.distributed.max_processes = 3;
  auto result = RunViaEngine(f.Setup(OptimizationLevel::kO4),
                             NetworkRankingApp(f.graph.num_vertices()),
                             options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const runtime::RuntimeStats& stats = *result->runtime_stats;
  EXPECT_EQ(stats.machine_failures, 0u);
  EXPECT_GT(stats.wire_batches_sent, 0u);
  EXPECT_GE(stats.wire_segments_sent, 5 * stats.wire_batches_sent)
      << stats.wire_segments_sent << " segments in "
      << stats.wire_batches_sent << " wire batches";
}

// The distributed engine exports its merged stats into the metrics hook
// through the same list-driven export as the threaded engine.
TEST(NetDistributedTest, MergedStatsReachTheMetricsRegistry) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  obs::MetricsRegistry registry;
  EngineOptions options;
  options.engine = EngineKind::kDistributed;
  options.propagation = ConfigFor(OptimizationLevel::kO4, /*iterations=*/2);
  options.propagation.metrics = &registry;
  options.distributed.max_processes = 3;
  auto result =
      RunViaEngine(setup, NetworkRankingApp(f.graph.num_vertices()), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->runtime_stats.has_value());
  const runtime::RuntimeStats& stats = *result->runtime_stats;

  EXPECT_GT(stats.messages_sent, 0u);
  EXPECT_EQ(registry.CounterRef("runtime_messages_sent").value(),
            stats.messages_sent);
  EXPECT_EQ(registry.CounterRef("runtime_tcp_bytes_sent").value(),
            stats.tcp_bytes_sent);
  EXPECT_EQ(registry.CounterRef("runtime_network_bytes").value(),
            stats.TotalNetworkBytes());
  EXPECT_EQ(registry.CounterRef("runtime_runs_total").value(), 1u);
}

TEST(NetDistributedTest, ClockSyncedTracesMergeWithOffsetAlignment) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  const PropagationConfig config =
      ConfigFor(OptimizationLevel::kO4, /*iterations=*/2);
  NetworkRankingApp app(f.graph.num_vertices());

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("surfer_dist_clocksync_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  EngineOptions options;
  options.engine = EngineKind::kDistributed;
  options.propagation = config;
  options.distributed.max_processes = 3;
  options.distributed.artifact_dir = dir.string();
  options.distributed.clock_sync_pings = 4;
  auto result = RunViaEngine(setup, app, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::vector<obs::TraceMergeInput> inputs;
  for (uint32_t proc = 0; proc < 3; ++proc) {
    const std::filesystem::path trace =
        dir / ("dist_worker_" + std::to_string(proc) + ".trace.json");
    ASSERT_TRUE(std::filesystem::exists(trace)) << trace;
    std::ifstream in(trace);
    std::ostringstream text;
    text << in.rdbuf();
    auto parsed = obs::ParseJson(text.str());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    // Every shard carries the handshake-estimated offset table.
    const obs::JsonValue* sync = parsed->Find("clock_sync");
    ASSERT_NE(sync, nullptr) << "worker " << proc;
    const obs::JsonValue* offsets = sync->Find("offsets_us");
    ASSERT_NE(offsets, nullptr);
    EXPECT_EQ(offsets->as_array().size(), 3u);
    inputs.push_back({"worker " + std::to_string(proc),
                      std::move(parsed).value()});
  }
  auto merged = obs::MergeChromeTraces(inputs);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  const obs::JsonValue* alignment = merged->Find("alignment");
  ASSERT_NE(alignment, nullptr);
  EXPECT_EQ(alignment->as_string(), "offset");
  const obs::JsonValue* unanchored = merged->Find("unanchored");
  ASSERT_NE(unanchored, nullptr);
  EXPECT_TRUE(unanchored->as_array().empty());

  // The merged cluster report landed alongside the worker artifacts.
  const std::filesystem::path cluster = dir / "dist_cluster.report.json";
  ASSERT_TRUE(std::filesystem::exists(cluster)) << cluster;
  std::filesystem::remove_all(dir);
}

// A fault-free job runs the fixed schedule: one coordinator round per stage,
// every task once, and no child left unreaped when Run() returns.
TEST(NetDistributedTest, FaultFreeJobRunsTheFixedScheduleAndReapsEveryChild) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  const int iterations = 3;
  EngineOptions options;
  options.engine = EngineKind::kDistributed;
  options.propagation = ConfigFor(OptimizationLevel::kO4, iterations);
  options.distributed.max_processes = 3;
  auto result =
      RunViaEngine(setup, NetworkRankingApp(f.graph.num_vertices()), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const runtime::RuntimeStats& stats = *result->runtime_stats;
  const uint64_t partitions = setup.graph->num_partitions();
  EXPECT_EQ(stats.barrier_generations, 2u * iterations);
  EXPECT_EQ(stats.tasks_reexecuted, 0u);
  EXPECT_EQ(stats.tasks_executed, 2u * iterations * partitions);
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

/// The cluster block's count of control frames the coordinator read of one
/// type.
double ControlFramesRead(const obs::JsonValue& cluster, const char* type) {
  const obs::JsonValue* frames = cluster.Find("control_frames_read");
  if (frames == nullptr) {
    ADD_FAILURE() << "cluster block has no control_frames_read";
    return -1.0;
  }
  const obs::JsonValue* count = frames->Find(type);
  if (count == nullptr) {
    ADD_FAILURE() << "control_frames_read has no " << type;
    return -1.0;
  }
  return count->as_number();
}

// The coordinator attributes its own time to five phases that fit inside
// the executor's wall time, and reads per-task kTaskDone frames only from a
// fault-tolerant run.
TEST(NetDistributedTest, CoordinatorPhasesFitTheWallAndTaskFramesNeedFaults) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  EngineOptions options;
  options.engine = EngineKind::kDistributed;
  options.propagation = ConfigFor(OptimizationLevel::kO4, /*iterations=*/2);
  options.distributed.max_processes = 3;
  auto clean =
      RunViaEngine(setup, NetworkRankingApp(f.graph.num_vertices()), options);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_TRUE(clean->cluster.has_value());
  const obs::JsonValue* phases = clean->cluster->Find("coordinator_s");
  ASSERT_NE(phases, nullptr);
  double phase_sum = 0.0;
  for (const char* phase :
       {"spawn", "handshake", "rounds", "finalize", "reap"}) {
    const obs::JsonValue* seconds = phases->Find(phase);
    ASSERT_NE(seconds, nullptr) << phase;
    EXPECT_GE(seconds->as_number(), 0.0) << phase;
    phase_sum += seconds->as_number();
  }
  EXPECT_GT(phases->Find("rounds")->as_number(), 0.0);
  EXPECT_LE(phase_sum, clean->runtime_stats->wall_seconds);
  EXPECT_EQ(ControlFramesRead(*clean->cluster, "task_done"), 0.0);
  EXPECT_EQ(ControlFramesRead(*clean->cluster, "round_done"),
            3.0 * static_cast<double>(
                      clean->runtime_stats->barrier_generations));
  EXPECT_EQ(ControlFramesRead(*clean->cluster, "final_done"), 3.0);
  obs::JsonValue report = obs::JsonValue::MakeObject();
  report.Set("name", "surfer_dist_cluster");
  report.Set("schema_version", obs::kRunReportSchemaVersion);
  report.Set("cluster", *clean->cluster);
  const Status valid = obs::ValidateRunReport(report);
  EXPECT_TRUE(valid.ok()) << valid.ToString();

  options.distributed.max_processes = 8;
  runtime::RuntimeFaultPlan plan;
  plan.machine = 2;
  plan.iteration = 1;
  plan.stage = runtime::RuntimeStage::kTransfer;
  plan.after_tasks = 1;
  options.distributed.faults.push_back(plan);
  auto faulted =
      RunViaEngine(setup, NetworkRankingApp(f.graph.num_vertices()), options);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  ASSERT_TRUE(faulted->cluster.has_value());
  EXPECT_GT(ControlFramesRead(*faulted->cluster, "task_done"), 0.0);
}

TEST(NetDistributedTest, DeathWithoutFaultToleranceAborts) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  // A fault plan *is* what makes the placement fault-tolerant — so instead
  // exercise the validation arm: distributed rejects bad inputs up front.
  EngineOptions options;
  options.engine = EngineKind::kDistributed;
  options.propagation = ConfigFor(OptimizationLevel::kO4, 0);  // invalid
  auto result = RunViaEngine(
      setup, NetworkRankingApp(f.graph.num_vertices()), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace surfer

// End-to-end tests of the multi-process distributed engine: bit-identity
// against the sequential PropagationRunner at several process counts, exact
// per-link byte reconciliation with the analytic model, message-plane counts
// that repeat exactly across worker counts, runs and engines, recovery from
// real child-process kills, graceful SIGTERM decommission with artifact
// flush, sessions that run many jobs on one worker group, and workers
// outliving a killed coordinator by no more than a bound. Every test forks
// real OS processes and moves real bytes over localhost TCP.

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <thread>
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


// ------------------------------------------------- session-lifetime groups

/// Checks every off-diagonal link of a run against the analytic model's
/// priced bytes, exactly.
void ExpectLinksReconcile(const std::vector<double>& model,
                          const std::vector<double>& actual, uint32_t n,
                          const std::string& what) {
  ASSERT_EQ(model.size(), actual.size()) << what;
  for (uint32_t src = 0; src < n; ++src) {
    for (uint32_t dst = 0; dst < n; ++dst) {
      const size_t i = static_cast<size_t>(src) * n + dst;
      EXPECT_EQ(src == dst ? 0.0 : model[i], actual[i])
          << what << ": link " << src << "->" << dst;
    }
  }
}

/// One of the cluster block's coordinator_s phases.
double CoordinatorSeconds(const obs::JsonValue& cluster, const char* phase) {
  const obs::JsonValue* phases = cluster.Find("coordinator_s");
  const obs::JsonValue* seconds =
      phases == nullptr ? nullptr : phases->Find(phase);
  if (seconds == nullptr) {
    ADD_FAILURE() << "cluster block has no coordinator_s." << phase;
    return -1.0;
  }
  return seconds->as_number();
}

/// The seqs of the rounds a job drove, from the cluster block's round rows.
std::vector<double> RoundSeqs(const obs::JsonValue& cluster) {
  std::vector<double> seqs;
  const obs::JsonValue* rounds = cluster.Find("rounds");
  if (rounds == nullptr) {
    ADD_FAILURE() << "cluster block has no rounds";
    return seqs;
  }
  for (const obs::JsonValue& row : rounds->as_array()) {
    seqs.push_back(row.Find("seq")->as_number());
  }
  return seqs;
}

/// True once `pid`, a child of this process, has exited; leaves it for its
/// parent-side owner to reap.
bool ExitedWithin(pid_t pid, std::chrono::milliseconds bound) {
  const auto deadline = std::chrono::steady_clock::now() + bound;
  while (std::chrono::steady_clock::now() < deadline) {
    siginfo_t info{};
    if (::waitid(P_PID, static_cast<id_t>(pid), &info,
                 WEXITED | WNOHANG | WNOWAIT) == 0 &&
        info.si_pid == pid) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

// Four jobs on one session: the first forms the group, the other three run
// on it. Every job is bit-identical with exact link bytes and the same exact
// counters; the later jobs read no hello or ready frame and spend nothing
// forming or reaping the group; round seqs keep increasing across jobs; and
// the counters are each job's own, not session totals.
TEST(NetDistributedTest, SessionRunsEveryJobOnTheGroupItFormedFirst) {
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
  options.distributed.max_processes = 3;
  auto engine = Engine::Open(setup, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  std::vector<RunAppResult<NetworkRankingApp>> jobs;
  for (int job = 0; job < 4; ++job) {
    auto result = engine->Run(app);
    ASSERT_TRUE(result.ok()) << "job " << job << ": "
                             << result.status().ToString();
    const std::string what = "job " + std::to_string(job);
    ExpectBitIdentical(runner.states(), result->states, what);
    ExpectLinksReconcile(runner.link_network_bytes(),
                         result->link_network_bytes,
                         f.topology.num_machines(), what);
    ASSERT_TRUE(result->runtime_stats.has_value());
    ASSERT_TRUE(result->cluster.has_value());
    jobs.push_back(std::move(result).value());
  }

  const runtime::RuntimeStats& first = *jobs[0].runtime_stats;
  EXPECT_EQ(ControlFramesRead(*jobs[0].cluster, "hello"), 3.0);
  EXPECT_EQ(ControlFramesRead(*jobs[0].cluster, "ready"), 3.0);
  EXPECT_GT(CoordinatorSeconds(*jobs[0].cluster, "spawn"), 0.0);
  EXPECT_EQ(CoordinatorSeconds(*jobs[0].cluster, "reap"), 0.0);
  double last_seq = 0.0;
  for (size_t job = 0; job < jobs.size(); ++job) {
    const runtime::RuntimeStats& stats = *jobs[job].runtime_stats;
    const obs::JsonValue& cluster = *jobs[job].cluster;
    EXPECT_EQ(stats.messages_sent, first.messages_sent) << "job " << job;
    EXPECT_EQ(stats.link_bytes, first.link_bytes) << "job " << job;
    EXPECT_EQ(stats.barrier_generations, first.barrier_generations)
        << "job " << job;
    EXPECT_EQ(stats.tasks_executed, first.tasks_executed) << "job " << job;
    EXPECT_EQ(ControlFramesRead(cluster, "round_done"),
              3.0 * static_cast<double>(stats.barrier_generations))
        << "job " << job;
    EXPECT_EQ(stats.tcp_bytes_sent, first.tcp_bytes_sent) << "job " << job;
    EXPECT_EQ(stats.tcp_frames_sent, first.tcp_frames_sent) << "job " << job;
    const std::vector<double> seqs = RoundSeqs(cluster);
    ASSERT_EQ(seqs.size(), stats.barrier_generations);
    for (double seq : seqs) {
      EXPECT_GT(seq, last_seq) << "job " << job;
      last_seq = seq;
    }
    if (job == 0) {
      continue;
    }
    EXPECT_EQ(ControlFramesRead(cluster, "hello"), 0.0) << "job " << job;
    EXPECT_EQ(ControlFramesRead(cluster, "ready"), 0.0) << "job " << job;
    for (const char* phase : {"spawn", "handshake", "reap"}) {
      EXPECT_EQ(CoordinatorSeconds(cluster, phase), 0.0)
          << "job " << job << " " << phase;
    }
  }
}

// ------------------------------------------------- message-plane counts

/// The message-plane counts of one job. A batch seals only at the size cap
/// or at its machine's stage end, so these are functions of the graph, the
/// placement and the options alone.
std::array<uint64_t, 5> WireCounts(const runtime::RuntimeStats& stats) {
  return {stats.wire_batches_sent, stats.wire_segments_sent,
          stats.wire_payload_bytes, stats.wire_flush_size,
          stats.wire_flush_stage_end};
}

/// 64 partitions on 8 machines: each machine's eight transfer tasks share
/// one open batch per destination.
const EngineFixture& WideFixture() {
  static const EngineFixture* fixture =
      new EngineFixture(MakeEngineFixture(1 << 13, 64));
  return *fixture;
}

// The counts repeat exactly: across threaded worker counts, repeated runs,
// the distributed engine's jobs on one session and on a fresh session, and
// between the two engines. The mesh frame and byte counts repeat too.
TEST(NetDistributedTest, WireCountsAreFunctionsOfTheInput) {
  const EngineFixture& f = WideFixture();
  const NetworkRankingApp app(f.graph.num_vertices());
  for (OptimizationLevel level :
       {OptimizationLevel::kO1, OptimizationLevel::kO4}) {
    const std::string at = level == OptimizationLevel::kO1 ? "O1" : "O4";
    const BenchmarkSetup setup = f.Setup(level);
    const PropagationConfig config = ConfigFor(level, /*iterations=*/2);

    std::optional<std::array<uint64_t, 5>> counts;
    for (uint32_t workers : {1u, 3u, 8u}) {
      for (int run = 0; run < 2; ++run) {
        EngineOptions options;
        options.engine = EngineKind::kConcurrent;
        options.propagation = config;
        options.runtime.max_workers = workers;
        auto result = RunViaEngine(setup, app, options);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ASSERT_TRUE(result->runtime_stats.has_value());
        const std::array<uint64_t, 5> these =
            WireCounts(*result->runtime_stats);
        counts = counts.value_or(these);
        EXPECT_EQ(these, *counts) << at << " threaded @ " << workers
                                  << " workers, run " << run;
      }
    }
    ASSERT_GT((*counts)[0], 0u) << at;

    EngineOptions options;
    options.engine = EngineKind::kDistributed;
    options.propagation = config;
    options.distributed.max_processes = 3;
    std::optional<std::pair<uint64_t, uint64_t>> mesh;
    // Two jobs on one session, then one on a fresh session.
    for (int jobs : {2, 1}) {
      auto engine = Engine::Open(setup, options);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      for (int job = 0; job < jobs; ++job) {
        auto result = engine->Run(app);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ASSERT_TRUE(result->runtime_stats.has_value());
        const runtime::RuntimeStats& stats = *result->runtime_stats;
        const std::string what = at + " distributed, session of " +
                                 std::to_string(jobs) + ", job " +
                                 std::to_string(job);
        EXPECT_EQ(WireCounts(stats), *counts) << what;
        const std::pair<uint64_t, uint64_t> these{stats.tcp_frames_sent,
                                                  stats.tcp_bytes_sent};
        mesh = mesh.value_or(these);
        EXPECT_EQ(these, *mesh) << what << ": (frames, bytes)";
      }
    }
    EXPECT_GT(mesh->first, 0u) << at;
  }
}

/// NR whose Transfer sleeps 3 ms on the first vertex of every partition when
/// `sleepy` is set, so every transfer task outlasts the 2 ms a wall-clock
/// flush deadline would allow. It sends exactly what NR sends, and is
/// trivially copyable, so a job frame carries it to the workers.
class SlowTransferRankApp : public NetworkRankingApp {
 public:
  static constexpr size_t kMaxFenceposts = 65;

  SlowTransferRankApp(VertexId num_vertices,
                      std::span<const VertexId> partition_starts, bool sleepy)
      : NetworkRankingApp(num_vertices),
        num_starts_(std::min(partition_starts.size(), kMaxFenceposts)),
        sleepy_(sleepy) {
    std::copy_n(partition_starts.begin(), num_starts_, starts_.begin());
  }

  void Transfer(VertexId v, const VertexState& state,
                std::span<const VertexId> neighbors,
                PropagationEmitter<Message>& emitter) const {
    if (sleepy_ &&
        std::binary_search(starts_.begin(), starts_.begin() + num_starts_, v)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
    NetworkRankingApp::Transfer(v, state, neighbors, emitter);
  }

 private:
  std::array<VertexId, kMaxFenceposts> starts_{};
  size_t num_starts_ = 0;
  bool sleepy_ = false;
};
static_assert(net::DistributableApp<SlowTransferRankApp>);

// Slow transfer tasks change no count: a batch waits for its size cap or its
// stage end however long the tasks that fill it take.
TEST(NetDistributedTest, SlowTransferTasksLeaveTheWireCountsUnchanged) {
  const EngineFixture& f = WideFixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  const std::span<const VertexId> starts = setup.graph->encoding().starts();
  ASSERT_LE(starts.size(), SlowTransferRankApp::kMaxFenceposts);
  for (EngineKind kind : {EngineKind::kConcurrent, EngineKind::kDistributed}) {
    const bool threaded = kind == EngineKind::kConcurrent;
    EngineOptions options;
    options.engine = kind;
    options.propagation = ConfigFor(OptimizationLevel::kO4, /*iterations=*/2);
    if (threaded) {
      options.runtime.max_workers = 3;
    } else {
      options.distributed.max_processes = 3;
    }
    std::vector<RunAppResult<SlowTransferRankApp>> runs;
    for (bool sleepy : {false, true}) {
      auto result = RunViaEngine(
          setup,
          SlowTransferRankApp(f.graph.num_vertices(), starts, sleepy),
          options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_TRUE(result->runtime_stats.has_value());
      runs.push_back(std::move(result).value());
    }
    const std::string what = threaded ? "threaded" : "distributed";
    ExpectBitIdentical(runs[0].states, runs[1].states, what);
    const runtime::RuntimeStats& plain = *runs[0].runtime_stats;
    const runtime::RuntimeStats& slow = *runs[1].runtime_stats;
    EXPECT_EQ(WireCounts(slow), WireCounts(plain)) << what;
    EXPECT_EQ(slow.tcp_frames_sent, plain.tcp_frames_sent) << what;
    EXPECT_EQ(slow.tcp_bytes_sent, plain.tcp_bytes_sent) << what;
  }
}

// The group's workers run any distributable app: each job resets the
// per-job state, so alternating apps on one group stays bit-identical.
TEST(NetDistributedTest, SessionAlternatesAppsOnOneGroup) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  const PropagationConfig config =
      ConfigFor(OptimizationLevel::kO4, /*iterations=*/3);
  NetworkRankingApp ranking(f.graph.num_vertices());
  PropagationRunner<NetworkRankingApp> ranking_runner(
      setup.graph, setup.placement, setup.topology, ranking, config);
  ASSERT_TRUE(ranking_runner.Run(setup.sim_options).ok());
  DistSkippableSumApp sum;
  PropagationRunner<DistSkippableSumApp> sum_runner(
      setup.graph, setup.placement, setup.topology, sum, config);
  ASSERT_TRUE(sum_runner.Run(setup.sim_options).ok());

  EngineOptions options;
  options.engine = EngineKind::kDistributed;
  options.propagation = config;
  options.distributed.max_processes = 3;
  auto engine = Engine::Open(setup, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto first = engine->Run(ranking);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ExpectBitIdentical(ranking_runner.states(), first->states, "first NR job");
  auto second = engine->Run(sum);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ExpectBitIdentical(sum_runner.states(), second->states,
                     "skippable-sum job after NR");
  auto third = engine->Run(ranking);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  ExpectBitIdentical(ranking_runner.states(), third->states,
                     "NR job after skippable-sum");
  EXPECT_EQ(ControlFramesRead(*second->cluster, "hello"), 0.0);
  EXPECT_EQ(ControlFramesRead(*third->cluster, "hello"), 0.0);
}

// With a fault plan every job loses a process and recovers. The loss makes
// the next job re-form the group: three hello frames again.
TEST(NetDistributedTest, SessionReformsTheGroupAfterALoss) {
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
  options.distributed.max_processes = 3;
  runtime::RuntimeFaultPlan plan;
  plan.machine = 2;
  plan.iteration = 1;
  plan.stage = runtime::RuntimeStage::kTransfer;
  plan.after_tasks = 1;
  options.distributed.faults.push_back(plan);
  auto engine = Engine::Open(setup, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  for (int job = 0; job < 3; ++job) {
    auto result = engine->Run(app);
    ASSERT_TRUE(result.ok()) << "job " << job << ": "
                             << result.status().ToString();
    ExpectBitIdentical(runner.states(), result->states,
                       "recovered job " + std::to_string(job));
    EXPECT_GE(result->runtime_stats->machine_failures, 1u) << "job " << job;
    EXPECT_GT(result->runtime_stats->tasks_reexecuted, 0u) << "job " << job;
    EXPECT_EQ(ControlFramesRead(*result->cluster, "hello"), 3.0)
        << "job " << job;
    if (job > 0) {
      // Closing what was left of the last job's group.
      EXPECT_GT(CoordinatorSeconds(*result->cluster, "reap"), 0.0)
          << "job " << job;
    }
  }
}

// A worker lost while the group idles between jobs is noticed before the
// next job starts: the group is re-formed, so even a run with no fault
// tolerance completes.
TEST(NetDistributedTest, WorkerLostBetweenJobsIsReplacedBeforeTheNext) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  const PropagationConfig config =
      ConfigFor(OptimizationLevel::kO4, /*iterations=*/2);
  NetworkRankingApp app(f.graph.num_vertices());
  PropagationRunner<NetworkRankingApp> runner(setup.graph, setup.placement,
                                              setup.topology, app, config);
  ASSERT_TRUE(runner.Run(setup.sim_options).ok());

  net::DistributedOptions options;
  options.max_processes = 3;
  net::DistributedSession session(setup.graph, setup.placement,
                                  setup.topology, config, options);
  net::DistributedExecutor<NetworkRankingApp> first(
      setup.graph, setup.placement, setup.topology, app, config, options);
  ASSERT_TRUE(first.RunIn(session).ok());
  const std::vector<pid_t> pids = session.worker_pids();
  ASSERT_EQ(pids.size(), 3u);
  ASSERT_EQ(::kill(pids[1], SIGKILL), 0);
  ASSERT_TRUE(ExitedWithin(pids[1], std::chrono::seconds(5)));

  net::DistributedExecutor<NetworkRankingApp> second(
      setup.graph, setup.placement, setup.topology, app, config, options);
  const Status status = second.RunIn(session);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectBitIdentical(runner.states(), second.states(),
                     "job after a lost worker");
  EXPECT_EQ(ControlFramesRead(second.cluster_report(), "hello"), 3.0);
  EXPECT_EQ(second.stats().machine_failures, 0u);
  const std::vector<pid_t> reformed = session.worker_pids();
  ASSERT_EQ(reformed.size(), 3u);
  EXPECT_EQ(std::set<pid_t>(reformed.begin(), reformed.end()).count(pids[1]),
            0u);
  session.Close();
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

// Heartbeats flow only while a job is in flight: a group that idles far
// longer than the heartbeat period between two jobs is still quiet when
// the second job starts, so it is reused, not re-formed.
TEST(NetDistributedTest, HeartbeatsStopBetweenJobs) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  const PropagationConfig config =
      ConfigFor(OptimizationLevel::kO4, /*iterations=*/2);
  NetworkRankingApp app(f.graph.num_vertices());
  PropagationRunner<NetworkRankingApp> runner(setup.graph, setup.placement,
                                              setup.topology, app, config);
  ASSERT_TRUE(runner.Run(setup.sim_options).ok());

  EngineOptions options;
  options.engine = EngineKind::kDistributed;
  options.propagation = config;
  options.distributed.max_processes = 3;
  options.distributed.heartbeat_period_ms = 5;
  auto engine = Engine::Open(setup, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto first = engine->Run(app);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  auto second = engine->Run(app);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ExpectBitIdentical(runner.states(), second->states,
                     "job after an idle group");
  EXPECT_EQ(ControlFramesRead(*second->cluster, "hello"), 0.0);
}

// Runs from several threads on one session take turns on its group.
TEST(NetDistributedTest, ConcurrentRunsOnOneSessionSerialize) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  const PropagationConfig config =
      ConfigFor(OptimizationLevel::kO4, /*iterations=*/2);
  NetworkRankingApp app(f.graph.num_vertices());
  PropagationRunner<NetworkRankingApp> runner(setup.graph, setup.placement,
                                              setup.topology, app, config);
  ASSERT_TRUE(runner.Run(setup.sim_options).ok());

  EngineOptions options;
  options.engine = EngineKind::kDistributed;
  options.propagation = config;
  options.distributed.max_processes = 3;
  auto engine = Engine::Open(setup, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  constexpr int kThreads = 3;
  constexpr int kJobsPerThread = 2;
  std::vector<std::vector<Result<RunAppResult<NetworkRankingApp>>>> results(
      kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int job = 0; job < kJobsPerThread; ++job) {
        results[t].push_back(engine->Run(app));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  double hellos = 0.0;
  for (int t = 0; t < kThreads; ++t) {
    for (const auto& result : results[t]) {
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectBitIdentical(runner.states(), result->states,
                         "thread " + std::to_string(t));
      hellos += ControlFramesRead(*result->cluster, "hello");
    }
  }
  EXPECT_EQ(hellos, 3.0);
}

/// DistSkippableSumApp with a member that is not trivially copyable.
struct NonTrivialSumApp : DistSkippableSumApp {
  std::vector<double> weights;
};
static_assert(net::DistributableApp<DistSkippableSumApp>);
static_assert(!net::DistributableApp<NonTrivialSumApp>,
              "a job carries its app as raw bytes");

TEST(NetDistributedTest, JobFrameCarriesTheAppAndRejectsAWrongSize) {
  const NetworkRankingApp app(1234, 0.75);
  net::JobMsg job;
  job.kind = 7;
  job.app = net::EncodeJobApp(app);
  auto decoded = net::DecodeJob(net::EncodeJob(job));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->kind, 7u);
  auto back = net::DecodeJobApp<NetworkRankingApp>(decoded->app);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  // Both fields came through: the vertex count and the damping.
  EXPECT_EQ(back->InitState(0, {}), 1.0 / 1234.0);
  double state = 0.0;
  std::vector<double> no_messages;
  back->Combine(0, state, {}, no_messages);
  EXPECT_EQ(state, (1.0 - 0.75) / 1234.0);

  for (size_t size : {sizeof(NetworkRankingApp) - 1,
                      sizeof(NetworkRankingApp) + 1, size_t{0}}) {
    std::vector<uint8_t> bytes(size, 0);
    auto wrong = net::DecodeJobApp<NetworkRankingApp>(bytes);
    ASSERT_FALSE(wrong.ok()) << size;
    EXPECT_EQ(wrong.status().code(), StatusCode::kCorruption) << size;
  }
  auto torn = net::DecodeJob(std::vector<uint8_t>{1, 2});
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kCorruption);
}

// ------------------------------------------------------ coordinator death

/// Writes a count and the pids to `fd`, then blocks until killed.
[[noreturn]] void ReportPidsAndBlock(int fd, const std::vector<pid_t>& pids) {
  const uint32_t count = static_cast<uint32_t>(pids.size());
  (void)!::write(fd, &count, sizeof(count));
  (void)!::write(fd, pids.data(), pids.size() * sizeof(pid_t));
  for (;;) {
    ::pause();
  }
}

/// Forks a stand-in coordinator that runs `stand_in`, which must end in
/// ReportPidsAndBlock. Once the pids arrive the stand-in is SIGKILLed, and
/// this returns how each of its orphaned workers ended: its exit code, or
/// -1 if it was still running `bound` after the kill. This process is the
/// workers' subreaper meanwhile, so it can reap them.
std::vector<int> KillStandInCoordinator(
    const std::function<void(int pid_fd)>& stand_in,
    std::chrono::milliseconds bound) {
  EXPECT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  const pid_t coordinator = ::fork();
  if (coordinator == 0) {
    ::close(fds[0]);
    stand_in(fds[1]);
    ::_exit(1);
  }
  ::close(fds[1]);
  uint32_t count = 0;
  std::vector<pid_t> pids;
  if (::read(fds[0], &count, sizeof(count)) == sizeof(count) && count < 64) {
    pids.resize(count);
    const ssize_t want = static_cast<ssize_t>(count * sizeof(pid_t));
    EXPECT_EQ(::read(fds[0], pids.data(), static_cast<size_t>(want)), want);
  }
  ::close(fds[0]);
  ::kill(coordinator, SIGKILL);
  ::waitpid(coordinator, nullptr, 0);

  const auto deadline = std::chrono::steady_clock::now() + bound;
  std::vector<int> codes;
  for (pid_t pid : pids) {
    int status = 0;
    pid_t reaped = 0;
    while ((reaped = ::waitpid(pid, &status, WNOHANG)) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (reaped != pid) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      codes.push_back(-1);
      continue;
    }
    codes.push_back(WIFEXITED(status) ? WEXITSTATUS(status)
                                      : 128 + WTERMSIG(status));
  }
  EXPECT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 0), 0);
  return codes;
}

// A coordinator that dies while its group idles between jobs leaves no
// worker behind: control EOF between jobs is a clean exit.
TEST(NetDistributedTest, CoordinatorDeathBetweenJobsEndsEveryWorkerCleanly) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  const PropagationConfig config =
      ConfigFor(OptimizationLevel::kO4, /*iterations=*/2);
  const std::vector<int> codes = KillStandInCoordinator(
      [&](int fd) {
        net::DistributedOptions options;
        options.max_processes = 3;
        net::DistributedSession session(setup.graph, setup.placement,
                                        setup.topology, config, options);
        net::DistributedExecutor<NetworkRankingApp> job(
            setup.graph, setup.placement, setup.topology,
            NetworkRankingApp(f.graph.num_vertices()), config, options);
        if (!job.RunIn(session).ok()) {
          ::_exit(1);
        }
        ReportPidsAndBlock(fd, session.worker_pids());
      },
      std::chrono::seconds(5));
  ASSERT_EQ(codes.size(), 3u);
  for (size_t proc = 0; proc < codes.size(); ++proc) {
    EXPECT_EQ(codes[proc], 0) << "worker " << proc;
  }
}

// A coordinator that dies mid-round, with one worker stalled in a combine
// round and the others waiting at its barrier, leaves no worker behind
// either: a worker that loses its coordinator inside a job exits as a
// fault (2).
TEST(NetDistributedTest, CoordinatorDeathMidRoundEndsEveryWorker) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  const PropagationConfig config =
      ConfigFor(OptimizationLevel::kO4, /*iterations=*/3);
  const std::vector<int> codes = KillStandInCoordinator(
      [&](int fd) {
        net::DistributedOptions options;
        options.max_processes = 3;
        options.heartbeat_period_ms = 10;
        options.straggler_multiple = 3.0;
        options.straggler_min_ms = 50;
        options.stall_proc = 1;
        options.stall_iteration = 1;
        options.stall_ms = 2000;
        net::DistributedSession* session = nullptr;
        // The flag goes up while process 1 sleeps and the others wait at
        // the round's barrier: report then, and block the coordinator.
        options.status_sink = [&](const std::string& table) {
          if (table.find("STRAGGLE") != std::string::npos) {
            ReportPidsAndBlock(fd, session->worker_pids());
          }
        };
        net::DistributedSession owned(setup.graph, setup.placement,
                                      setup.topology, config, options);
        session = &owned;
        net::DistributedExecutor<NetworkRankingApp> job(
            setup.graph, setup.placement, setup.topology,
            NetworkRankingApp(f.graph.num_vertices()), config, options);
        (void)job.RunIn(owned);
        ::_exit(1);  // the sink never returns once it fires
      },
      std::chrono::seconds(5));
  ASSERT_EQ(codes.size(), 3u);
  for (size_t proc = 0; proc < codes.size(); ++proc) {
    EXPECT_EQ(codes[proc], 2) << "worker " << proc;
  }
}

}  // namespace
}  // namespace surfer

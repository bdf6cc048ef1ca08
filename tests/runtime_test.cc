#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "apps/degree_distribution.h"
#include "apps/network_ranking.h"
#include "apps/reverse_link_graph.h"
#include "core/engine.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "propagation/app_traits.h"
#include "propagation/config.h"
#include "propagation/runner.h"
#include "runtime/executor.h"
#include "runtime/stats.h"
#include "runtime/timeline.h"
#include "tests/test_fixtures.h"

namespace surfer {
namespace {

using runtime::RuntimeExecutor;
using runtime::RuntimeFaultPlan;
using runtime::RuntimeOptions;
using runtime::RuntimeStage;
using testing_fixtures::EngineFixture;
using testing_fixtures::MakeEngineFixture;

const EngineFixture& Fixture() {
  static const EngineFixture* fixture =
      new EngineFixture(MakeEngineFixture());
  return *fixture;
}

constexpr OptimizationLevel kAllLevels[] = {
    OptimizationLevel::kO1, OptimizationLevel::kO2, OptimizationLevel::kO3,
    OptimizationLevel::kO4};

/// Bitwise comparison of two state vectors; on mismatch reports the first
/// differing vertex so failures are debuggable.
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
        << what << ": first bit difference at vertex " << v << " (expected "
        << expected[v] << ", got " << actual[v] << ")";
  }
}

PropagationConfig ConfigFor(OptimizationLevel level, int iterations) {
  PropagationConfig config = PropagationConfig::ForLevel(level);
  config.iterations = iterations;
  return config;
}

// ----------------------------------------------- bit-identity contract

TEST(RuntimeTest, NetworkRankingBitIdenticalAcrossLevelsAndWorkerCounts) {
  const EngineFixture& f = Fixture();
  for (OptimizationLevel level : kAllLevels) {
    const BenchmarkSetup setup = f.Setup(level);
    const PropagationConfig config = ConfigFor(level, /*iterations=*/3);
    NetworkRankingApp app(f.graph.num_vertices());
    PropagationRunner<NetworkRankingApp> runner(
        setup.graph, setup.placement, setup.topology, app, config);
    ASSERT_TRUE(runner.Run(setup.sim_options).ok());

    // Worker count 1 is the single-worker degeneracy case (pure sequential
    // execution through the same code path); 3 forces machine multiplexing;
    // 8 is one worker per machine.
    for (uint32_t workers : {1u, 3u, 8u}) {
      RuntimeOptions options;
      options.max_workers = workers;
      RuntimeExecutor<NetworkRankingApp> executor(
          setup.graph, setup.placement, setup.topology, app, config, options);
      ASSERT_TRUE(executor.Run().ok());
      ExpectBitIdentical(runner.states(), executor.states(),
                         OptimizationLevelName(level) + " with " +
                             std::to_string(workers) + " workers");
      EXPECT_EQ(executor.stats().num_workers, workers);
      EXPECT_GT(executor.stats().messages_sent, 0u);
      EXPECT_GT(executor.stats().barrier_generations, 0u);
    }
  }
}

TEST(RuntimeTest, DegreeDistributionVirtualOutputsMatchSequential) {
  const EngineFixture& f = Fixture();
  for (OptimizationLevel level : kAllLevels) {
    const BenchmarkSetup setup = f.Setup(level);
    const PropagationConfig config = ConfigFor(level, /*iterations=*/1);
    DegreeDistributionApp app;
    PropagationRunner<DegreeDistributionApp> runner(
        setup.graph, setup.placement, setup.topology, app, config);
    ASSERT_TRUE(runner.Run(setup.sim_options).ok());
    ASSERT_FALSE(runner.virtual_outputs().empty());

    RuntimeExecutor<DegreeDistributionApp> executor(
        setup.graph, setup.placement, setup.topology, app, config);
    ASSERT_TRUE(executor.Run().ok());
    EXPECT_EQ(runner.virtual_outputs(), executor.virtual_outputs())
        << OptimizationLevelName(level);
  }
}

TEST(RuntimeTest, BitIdenticalUnderMaximumBackpressure) {
  // Capacity-1 channels force every link to stall constantly; the
  // drain-while-blocked send loop must still complete with exact results.
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  const PropagationConfig config =
      ConfigFor(OptimizationLevel::kO4, /*iterations=*/2);
  NetworkRankingApp app(f.graph.num_vertices());
  PropagationRunner<NetworkRankingApp> runner(
      setup.graph, setup.placement, setup.topology, app, config);
  ASSERT_TRUE(runner.Run(setup.sim_options).ok());

  RuntimeOptions options;
  // A 1-byte window means every batch is oversized and only admitted on an
  // empty queue — the strongest backpressure the weighted channel can exert.
  options.channel_window_bytes = 1;
  RuntimeExecutor<NetworkRankingApp> executor(
      setup.graph, setup.placement, setup.topology, app, config, options);
  ASSERT_TRUE(executor.Run().ok());
  ExpectBitIdentical(runner.states(), executor.states(),
                     "capacity-1 channels");
}

/// Mergeable app whose vertex 0 emits to vertex n, one past the last: an
/// app bug every engine must stop on rather than route.
struct EmitsPastLastVertexApp {
  using VertexState = double;
  using Message = double;

  VertexId num_vertices = 0;

  VertexState InitState(VertexId, std::span<const VertexId>) const {
    return 0.0;
  }
  void Transfer(VertexId v, const VertexState&, std::span<const VertexId>,
                PropagationEmitter<Message>& emitter) const {
    if (v == 0) {
      emitter.Emit(num_vertices, 1.0);
    }
  }
  void Combine(VertexId, VertexState&, std::span<const VertexId>,
               std::vector<Message>&) const {}
  Message Merge(const Message& a, const Message& b) const { return a + b; }
  size_t MessageBytes(const Message&) const { return sizeof(Message); }
  size_t StateBytes(const VertexState&) const { return sizeof(VertexState); }
};

void RunEmitsPastLastVertex(OptimizationLevel level) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(level);
  RuntimeExecutor<EmitsPastLastVertexApp> executor(
      setup.graph, setup.placement, setup.topology,
      EmitsPastLastVertexApp{f.graph.num_vertices()},
      ConfigFor(level, /*iterations=*/1));
  (void)executor.Run();
}

// O1 stages every message raw, O4 merges at emission: both paths must
// reject the target before routing it, naming it and its source partition.
// The analytic runner routes through the same owner table, so it checks
// too.
TEST(RuntimeDeathTest, EmittedTargetPastLastVertexAbortsAtO1) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(RunEmitsPastLastVertex(OptimizationLevel::kO1),
               "partition 0 emitted target [0-9]+, but the graph has only");
}

TEST(RuntimeDeathTest, EmittedTargetPastLastVertexAbortsAtO4) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(RunEmitsPastLastVertex(OptimizationLevel::kO4),
               "partition 0 emitted target [0-9]+, but the graph has only");
}

TEST(RuntimeDeathTest, EmittedTargetPastLastVertexAbortsInTheAnalyticRunner) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  PropagationRunner<EmitsPastLastVertexApp> runner(
      setup.graph, setup.placement, setup.topology,
      EmitsPastLastVertexApp{f.graph.num_vertices()},
      ConfigFor(OptimizationLevel::kO4, /*iterations=*/1));
  EXPECT_DEATH((void)runner.Run(setup.sim_options),
               "partition 0 emitted target [0-9]+, but the graph has only");
}

TEST(RuntimeTest, BitIdenticalWithLocalCombinationDisabled) {
  // With local combination off the kernel merges nothing at emission
  // either, so the executor must match a sequential run that also skips it:
  // both move the same uncombined message multiset, and the per-link bytes
  // must still reconcile exactly.
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  PropagationConfig config = ConfigFor(OptimizationLevel::kO4, /*iterations=*/2);
  config.local_combination = false;
  NetworkRankingApp app(f.graph.num_vertices());
  PropagationRunner<NetworkRankingApp> runner(
      setup.graph, setup.placement, setup.topology, app, config);
  ASSERT_TRUE(runner.Run(setup.sim_options).ok());

  for (uint32_t workers : {1u, 3u, 8u}) {
    RuntimeOptions options;
    options.max_workers = workers;
    RuntimeExecutor<NetworkRankingApp> executor(
        setup.graph, setup.placement, setup.topology, app, config, options);
    ASSERT_TRUE(executor.Run().ok());
    ExpectBitIdentical(runner.states(), executor.states(),
                       "local combination off, " + std::to_string(workers) +
                           " workers");
    EXPECT_EQ(executor.stats().wire_messages_combined, 0u);

    const std::vector<double>& analytic = runner.link_network_bytes();
    const std::vector<uint64_t>& measured = executor.stats().link_bytes;
    const uint32_t n = f.topology.num_machines();
    for (uint32_t src = 0; src < n; ++src) {
      for (uint32_t dst = 0; dst < n; ++dst) {
        if (src == dst) {
          continue;
        }
        const size_t i = static_cast<size_t>(src) * n + dst;
        EXPECT_EQ(analytic[i], static_cast<double>(measured[i]))
            << "uncombined link " << src << "->" << dst;
      }
    }
  }
}

TEST(RuntimeTest, WireBatchStatsAreCoherent) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  const PropagationConfig config =
      ConfigFor(OptimizationLevel::kO4, /*iterations=*/3);
  NetworkRankingApp app(f.graph.num_vertices());
  RuntimeOptions options;
  options.max_workers = 8;
  RuntimeExecutor<NetworkRankingApp> executor(
      setup.graph, setup.placement, setup.topology, app, config, options);
  ASSERT_TRUE(executor.Run().ok());

  const runtime::RuntimeStats& stats = executor.stats();
  // Every channel item is a sealed batch; every batch holds >= 1 segment.
  EXPECT_EQ(stats.wire_batches_sent, stats.buffers_sent);
  EXPECT_GE(stats.wire_segments_sent, stats.wire_batches_sent);
  EXPECT_GT(stats.wire_payload_bytes, 0u);
  // NR is mergeable and the fixture has parallel edges into shared targets,
  // so wire combination must fire under O4 (local combination on).
  EXPECT_GT(stats.wire_messages_combined, 0u);
  EXPECT_EQ(stats.batch_fill.count(), stats.wire_batches_sent);
  EXPECT_EQ(stats.wire_flush_size + stats.wire_flush_stage_end,
            stats.wire_batches_sent);
  // Across 3 iterations the pool must be recycling buffers, not allocating
  // one per batch.
  EXPECT_EQ(stats.pool_buffers_acquired, stats.wire_batches_sent);
  EXPECT_GT(stats.pool_buffers_reused, 0u);
}

// ------------------------------------ cost-model cross-validation (bytes)

TEST(RuntimeTest, PerLinkBytesReconcileWithCostModel) {
  const EngineFixture& f = Fixture();
  const uint32_t n = f.topology.num_machines();
  for (OptimizationLevel level : kAllLevels) {
    const BenchmarkSetup setup = f.Setup(level);
    const PropagationConfig config = ConfigFor(level, /*iterations=*/2);
    NetworkRankingApp app(f.graph.num_vertices());
    PropagationRunner<NetworkRankingApp> runner(
        setup.graph, setup.placement, setup.topology, app, config);
    ASSERT_TRUE(runner.Run(setup.sim_options).ok());

    RuntimeExecutor<NetworkRankingApp> executor(
        setup.graph, setup.placement, setup.topology, app, config);
    ASSERT_TRUE(executor.Run().ok());

    const std::vector<double>& analytic = runner.link_network_bytes();
    const std::vector<uint64_t>& measured = executor.stats().link_bytes;
    ASSERT_EQ(analytic.size(), static_cast<size_t>(n) * n);
    ASSERT_EQ(measured.size(), analytic.size());
    double analytic_total = 0.0;
    for (uint32_t src = 0; src < n; ++src) {
      for (uint32_t dst = 0; dst < n; ++dst) {
        const size_t i = static_cast<size_t>(src) * n + dst;
        if (src == dst) {
          EXPECT_EQ(analytic[i], 0.0) << "analytic diagonal must be empty";
          continue;  // runtime diagonal carries local (non-network) traffic
        }
        EXPECT_EQ(analytic[i], static_cast<double>(measured[i]))
            << OptimizationLevelName(level) << " link " << src << "->" << dst;
        analytic_total += analytic[i];
      }
    }
    EXPECT_GT(analytic_total, 0.0);
    EXPECT_EQ(static_cast<double>(executor.stats().TotalNetworkBytes()),
              analytic_total);
  }
}

TEST(RuntimeStatsTest, TotalNetworkBytesToleratesShortOrEmptyMatrix) {
  // Stats objects are plain data that reports and tests build by hand; an
  // absent or truncated link matrix must read as "no traffic", not UB.
  runtime::RuntimeStats stats;
  stats.num_machines = 4;
  EXPECT_EQ(stats.TotalNetworkBytes(), 0u);  // empty link_bytes

  stats.link_bytes = {0, 7, 9};  // 3 of the expected 16 entries
  EXPECT_EQ(stats.TotalNetworkBytes(), 16u);  // [0][1] + [0][2], diag skipped

  stats.link_bytes.assign(16, 1);
  EXPECT_EQ(stats.TotalNetworkBytes(), 12u);  // full matrix, 4 diagonal zeros
}

// ------------------------------------------- superstep profiler (timeline)

TEST(RuntimeTest, ProfilingEnabledRunStaysBitIdenticalWithTimeline) {
  // The profiler's core promise: turning it on changes nothing about the
  // computation. Compare against the sequential runner with the tracer and
  // metrics attached and the sharded hot path active.
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  constexpr int kIterations = 3;
  PropagationConfig config = ConfigFor(OptimizationLevel::kO4, kIterations);
  NetworkRankingApp app(f.graph.num_vertices());
  PropagationRunner<NetworkRankingApp> runner(
      setup.graph, setup.placement, setup.topology, app, config);
  ASSERT_TRUE(runner.Run(setup.sim_options).ok());

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  config.tracer = &tracer;
  config.metrics = &metrics;
  RuntimeOptions options;
  options.max_workers = 3;
  RuntimeExecutor<NetworkRankingApp> executor(
      setup.graph, setup.placement, setup.topology, app, config, options);
  ASSERT_TRUE(executor.Run().ok());
  ExpectBitIdentical(runner.states(), executor.states(),
                     "profiling enabled");

  const runtime::RuntimeStats& stats = executor.stats();
  // One profile per (iteration, stage), in execution order.
  ASSERT_EQ(stats.timeline.size(), static_cast<size_t>(kIterations) * 2);
  for (size_t step = 0; step < stats.timeline.size(); ++step) {
    const runtime::SuperstepProfile& profile = stats.timeline[step];
    EXPECT_EQ(profile.iteration, static_cast<int>(step / 2));
    EXPECT_EQ(profile.stage, step % 2 == 0 ? RuntimeStage::kTransfer
                                           : RuntimeStage::kCombine);
    ASSERT_EQ(profile.machines.size(), stats.num_machines);
    double step_busy = 0.0;
    for (const runtime::PhaseSeconds& phases : profile.machines) {
      EXPECT_GE(phases.compute_s, 0.0);
      EXPECT_GE(phases.serialize_s, 0.0);
      EXPECT_GE(phases.blocked_s, 0.0);
      EXPECT_GE(phases.barrier_s, 0.0);
      step_busy += phases.Busy();
    }
    // Every superstep did real work on this fixture.
    EXPECT_GT(step_busy, 0.0) << "step " << step;
    const runtime::StragglerStats straggler =
        runtime::ComputeStraggler(profile);
    EXPECT_NE(straggler.machine, kInvalidMachine);
    EXPECT_GE(straggler.skew, 1.0);  // max/mean is >= 1 by construction
    EXPECT_GE(straggler.max_busy_s, straggler.mean_busy_s);
  }

  const std::vector<runtime::CriticalPathEntry> path =
      runtime::ComputeCriticalPath(stats.timeline);
  ASSERT_EQ(path.size(), stats.timeline.size());
  for (const runtime::CriticalPathEntry& entry : path) {
    ASSERT_NE(entry.machine, kInvalidMachine);
    // The chained machine is the straggler of its step.
    EXPECT_DOUBLE_EQ(
        entry.busy_s,
        stats.timeline[entry.step].machines[entry.machine].Busy());
  }

  // At the default shard capacity this workload never overflows a ring.
  EXPECT_EQ(stats.trace_events_dropped, 0u);
  if (obs::Tracer::CompiledIn()) {
    // The sharded hot path delivered per-task spans into the sink tracer.
    size_t task_spans = 0;
    for (const obs::TraceEvent& event : tracer.Events()) {
      if (event.name == "rt_task_transfer" ||
          event.name == "rt_task_combine") {
        ++task_spans;
      }
    }
    EXPECT_GT(task_spans, 0u);
  }
}

TEST(RuntimeTest, FaultFreeRunPaysTwoBarrierGenerationsPerStage) {
  // Start and work-done per stage, two stages per iteration, plus the
  // shutdown generation. Each worker's final drain of a stage precedes its
  // next start-barrier arrival, so no drain generation is needed.
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  for (int iterations : {1, 3}) {
    const PropagationConfig config =
        ConfigFor(OptimizationLevel::kO4, iterations);
    NetworkRankingApp app(f.graph.num_vertices());
    for (uint32_t workers : {1u, 3u, 8u}) {
      RuntimeOptions options;
      options.max_workers = workers;
      RuntimeExecutor<NetworkRankingApp> executor(
          setup.graph, setup.placement, setup.topology, app, config, options);
      ASSERT_TRUE(executor.Run().ok());
      const runtime::RuntimeStats& stats = executor.stats();
      const uint64_t generations = 2 * 2 * iterations + 1;
      EXPECT_EQ(stats.barrier_generations, generations)
          << iterations << " iterations, " << workers << " workers";
      // Every arrival but each generation's last is one wait (the main
      // thread makes workers + 1 participants).
      EXPECT_EQ(stats.barrier_waits_spun + stats.barrier_waits_parked,
                generations * workers);
    }
  }
}

TEST(RuntimeTest, HandoffLatencyIsFilledAndBoundedByStageSpan) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  const PropagationConfig config =
      ConfigFor(OptimizationLevel::kO4, /*iterations=*/3);
  NetworkRankingApp app(f.graph.num_vertices());
  RuntimeOptions options;
  options.max_workers = 3;
  RuntimeExecutor<NetworkRankingApp> executor(
      setup.graph, setup.placement, setup.topology, app, config, options);
  ASSERT_TRUE(executor.Run().ok());
  const runtime::RuntimeStats& stats = executor.stats();
  ASSERT_EQ(stats.timeline.size(), 6u);
  double total = 0.0;
  for (const runtime::SuperstepProfile& profile : stats.timeline) {
    EXPECT_GE(profile.handoff_s, 0.0);
    EXPECT_LE(profile.handoff_s, profile.end_s - profile.start_s)
        << "iteration " << profile.iteration;
    total += profile.handoff_s;
  }
  // Waking a worker always takes some time, so the sum is filled.
  EXPECT_GT(stats.handoff_seconds, 0.0);
  EXPECT_DOUBLE_EQ(stats.handoff_seconds, total);

  const obs::JsonValue block = runtime::TimelineToJson(stats.timeline);
  for (const obs::JsonValue& step : block.Find("steps")->as_array()) {
    ASSERT_NE(step.Find("handoff_s"), nullptr);
    EXPECT_TRUE(step.Find("handoff_s")->is_number());
  }
}

TEST(RuntimeTest, OversubscribedWorkersParkWithoutSpinning) {
  // More workers than hardware threads: a spinner would hold a CPU a
  // straggler needs, so every barrier wait must park.
  constexpr uint32_t kWorkers = 8;  // one per fixture machine
  if (runtime::BspBarrier::SpinFits(kWorkers)) {
    GTEST_SKIP() << "host fits " << kWorkers << " spinning workers";
  }
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  const PropagationConfig config =
      ConfigFor(OptimizationLevel::kO4, /*iterations=*/2);
  NetworkRankingApp app(f.graph.num_vertices());
  PropagationRunner<NetworkRankingApp> runner(
      setup.graph, setup.placement, setup.topology, app, config);
  ASSERT_TRUE(runner.Run(setup.sim_options).ok());
  RuntimeOptions options;
  options.max_workers = kWorkers;
  RuntimeExecutor<NetworkRankingApp> executor(
      setup.graph, setup.placement, setup.topology, app, config, options);
  ASSERT_TRUE(executor.Run().ok());
  ExpectBitIdentical(runner.states(), executor.states(), "oversubscribed");
  EXPECT_EQ(executor.stats().barrier_waits_spun, 0u);
  EXPECT_EQ(executor.stats().barrier_waits_parked,
            executor.stats().barrier_generations * kWorkers);
}

TEST(RuntimeTest, TelemetryEnabledRunStaysBitIdentical) {
  // The flight recorder's core promise mirrors the profiler's: sampling the
  // runtime's gauges changes nothing about the computation. Run with the
  // sampler at an aggressive period (plus tracer/metrics, the full
  // instrumented configuration) and compare against the sequential runner.
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  constexpr int kIterations = 3;
  PropagationConfig config = ConfigFor(OptimizationLevel::kO4, kIterations);
  NetworkRankingApp app(f.graph.num_vertices());
  PropagationRunner<NetworkRankingApp> runner(
      setup.graph, setup.placement, setup.topology, app, config);
  ASSERT_TRUE(runner.Run(setup.sim_options).ok());

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  config.tracer = &tracer;
  config.metrics = &metrics;
  RuntimeOptions options;
  options.max_workers = 3;
  options.telemetry.enabled = true;
  options.telemetry.period_seconds = 0.0002;
  RuntimeExecutor<NetworkRankingApp> executor(
      setup.graph, setup.placement, setup.topology, app, config, options);
  ASSERT_TRUE(executor.Run().ok());
  ExpectBitIdentical(runner.states(), executor.states(),
                     "telemetry enabled");

  const runtime::RuntimeStats& stats = executor.stats();
  // The sampler ran: at least the first tick and the final stop-edge tick.
  EXPECT_GE(stats.telemetry_samples, 2u);
  ASSERT_NE(executor.telemetry(), nullptr);
  EXPECT_TRUE(executor.telemetry()->enabled());
  const std::vector<obs::TelemetrySeries> snapshot =
      executor.telemetry()->Snapshot();
  EXPECT_FALSE(snapshot.empty());
  bool saw_pool_series = false;
  for (const obs::TelemetrySeries& series : snapshot) {
    if (series.name == "rt_pool_free_buffers") {
      saw_pool_series = true;
      EXPECT_EQ(series.samples_taken,
                series.samples.size() + series.samples_dropped);
    }
  }
  EXPECT_TRUE(saw_pool_series);

  // The memory probe populated the end-of-run stats (Linux CI hosts).
  EXPECT_GT(stats.rss_bytes, 0u);
  EXPECT_GE(stats.peak_rss_bytes, stats.rss_bytes);

  // Superstep wall-clock bounds: present, ordered, and nested in run time.
  ASSERT_EQ(stats.timeline.size(), static_cast<size_t>(kIterations) * 2);
  double previous_start = 0.0;
  for (const runtime::SuperstepProfile& profile : stats.timeline) {
    EXPECT_GE(profile.start_s, previous_start);
    EXPECT_GE(profile.end_s, profile.start_s);
    EXPECT_LE(profile.end_s, stats.wall_seconds + 0.001);
    previous_start = profile.start_s;
  }

  // Worker-side barrier decomposition: the mean never exceeds the max, and
  // both are bounded by the run itself (unlike the summed counter).
  EXPECT_GE(stats.barrier_wait_max_s, stats.barrier_wait_mean_s);
  EXPECT_LE(stats.barrier_wait_max_s, stats.wall_seconds + 0.001);

  if (obs::Tracer::CompiledIn()) {
    // Counter lanes were merged into the trace stream.
    size_t counter_events = 0;
    for (const obs::TraceEvent& event : tracer.Events()) {
      if (event.phase == 'C') {
        EXPECT_EQ(event.category, "telemetry");
        ++counter_events;
      }
    }
    EXPECT_GT(counter_events, 0u);
  }
}

TEST(RuntimeTest, TimelineJsonCarriesStepsAndCriticalPath) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO2);
  const PropagationConfig config =
      ConfigFor(OptimizationLevel::kO2, /*iterations=*/2);
  NetworkRankingApp app(f.graph.num_vertices());
  RuntimeExecutor<NetworkRankingApp> executor(setup.graph, setup.placement,
                                              setup.topology, app, config);
  ASSERT_TRUE(executor.Run().ok());

  const obs::JsonValue block =
      runtime::TimelineToJson(executor.stats().timeline);
  const obs::JsonValue* steps = block.Find("steps");
  ASSERT_NE(steps, nullptr);
  ASSERT_EQ(steps->as_array().size(), 4u);
  const obs::JsonValue& first = steps->as_array()[0];
  EXPECT_EQ(first.Find("stage")->as_string(), "transfer");
  ASSERT_FALSE(first.Find("machines")->as_array().empty());
  const obs::JsonValue& row = first.Find("machines")->as_array()[0];
  for (const char* key :
       {"machine", "compute_s", "serialize_s", "blocked_s", "barrier_s",
        "busy_s"}) {
    ASSERT_NE(row.Find(key), nullptr) << key;
    EXPECT_TRUE(row.Find(key)->is_number()) << key;
  }
  const obs::JsonValue* critical = block.Find("critical_path");
  ASSERT_NE(critical, nullptr);
  EXPECT_GT(critical->Find("total_busy_s")->as_number(), 0.0);
  EXPECT_EQ(critical->Find("steps")->as_array().size(), 4u);
}

// -------------------------------------------------- fault injection (B)

TEST(RuntimeTest, TransferStageFaultRecoversBitIdentically) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  const PropagationConfig config =
      ConfigFor(OptimizationLevel::kO4, /*iterations=*/3);
  NetworkRankingApp app(f.graph.num_vertices());
  PropagationRunner<NetworkRankingApp> runner(
      setup.graph, setup.placement, setup.topology, app, config);
  ASSERT_TRUE(runner.Run(setup.sim_options).ok());

  const MachineId victim = setup.placement->primary(0);
  RuntimeOptions options;
  options.faults = {RuntimeFaultPlan{.machine = victim,
                                     .iteration = 1,
                                     .stage = RuntimeStage::kTransfer,
                                     .after_tasks = 1}};
  RuntimeExecutor<NetworkRankingApp> executor(
      setup.graph, setup.placement, setup.topology, app, config, options);
  ASSERT_TRUE(executor.Run().ok());
  ExpectBitIdentical(runner.states(), executor.states(),
                     "transfer-stage fault");
  EXPECT_EQ(executor.stats().machine_failures, 1u);
  EXPECT_GT(executor.stats().tasks_reexecuted, 0u);
  EXPECT_EQ(executor.alive()[victim], 0u);
  // The victim's later Combine tasks ran on a replica, which re-fetches the
  // message spills the dead primary had received (Appendix B).
  EXPECT_GT(executor.stats().refetch_bytes, 0u);
}

TEST(RuntimeTest, CombineStageFaultRecoversBitIdentically) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO1);
  const PropagationConfig config =
      ConfigFor(OptimizationLevel::kO1, /*iterations=*/2);
  NetworkRankingApp app(f.graph.num_vertices());
  PropagationRunner<NetworkRankingApp> runner(
      setup.graph, setup.placement, setup.topology, app, config);
  ASSERT_TRUE(runner.Run(setup.sim_options).ok());

  const MachineId victim = setup.placement->primary(1);
  RuntimeOptions options;
  options.faults = {RuntimeFaultPlan{.machine = victim,
                                     .iteration = 0,
                                     .stage = RuntimeStage::kCombine,
                                     .after_tasks = 0}};
  RuntimeExecutor<NetworkRankingApp> executor(
      setup.graph, setup.placement, setup.topology, app, config, options);
  ASSERT_TRUE(executor.Run().ok());
  ExpectBitIdentical(runner.states(), executor.states(),
                     "combine-stage fault");
  EXPECT_EQ(executor.stats().machine_failures, 1u);
  EXPECT_GT(executor.stats().tasks_reexecuted, 0u);
  EXPECT_GT(executor.stats().refetch_bytes, 0u);
}

TEST(RuntimeTest, UnrecoverableJobFailsCleanly) {
  // Kill every machine in the first transfer stage: at some point a pending
  // partition has no alive replica left and the run must fail (not hang).
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  const PropagationConfig config =
      ConfigFor(OptimizationLevel::kO4, /*iterations=*/1);
  NetworkRankingApp app(f.graph.num_vertices());
  RuntimeOptions options;
  for (MachineId m = 0; m < f.topology.num_machines(); ++m) {
    options.faults.push_back(RuntimeFaultPlan{.machine = m,
                                              .iteration = 0,
                                              .stage = RuntimeStage::kTransfer,
                                              .after_tasks = 0});
  }
  RuntimeExecutor<NetworkRankingApp> executor(
      setup.graph, setup.placement, setup.topology, app, config, options);
  const Status status = executor.Run();
  EXPECT_FALSE(status.ok());
  EXPECT_GT(executor.stats().machine_failures, 0u);
}

// ----------------------------------------------------- edge-case apps

/// An app whose Transfer emits nothing: exercises zero-message stages (the
/// BSP machinery must still run Combine for every vertex each iteration).
struct SilentApp {
  using VertexState = uint32_t;
  using Message = uint32_t;

  VertexState InitState(VertexId v, std::span<const VertexId>) const {
    return v;
  }
  void Transfer(VertexId, const VertexState&, std::span<const VertexId>,
                PropagationEmitter<Message>&) const {}
  void Combine(VertexId, VertexState& state, std::span<const VertexId>,
               std::vector<Message>& messages) const {
    state += 1 + static_cast<uint32_t>(messages.size());
  }
  size_t MessageBytes(const Message&) const { return sizeof(Message); }
  size_t StateBytes(const VertexState&) const { return sizeof(VertexState); }
};
static_assert(PropagationApp<SilentApp>);

TEST(RuntimeTest, ZeroMessageStagesStillCombineEveryVertex) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  const PropagationConfig config =
      ConfigFor(OptimizationLevel::kO4, /*iterations=*/2);
  SilentApp app;
  PropagationRunner<SilentApp> runner(setup.graph, setup.placement,
                                      setup.topology, app, config);
  ASSERT_TRUE(runner.Run(setup.sim_options).ok());

  RuntimeExecutor<SilentApp> executor(setup.graph, setup.placement,
                                      setup.topology, app, config);
  ASSERT_TRUE(executor.Run().ok());
  ExpectBitIdentical(runner.states(), executor.states(), "zero-message app");
  // No messages were emitted, so nothing traveled the channels...
  EXPECT_EQ(executor.stats().messages_sent, 0u);
  EXPECT_EQ(executor.stats().TotalNetworkBytes(), 0u);
  // ...yet Combine ran twice for every vertex.
  for (VertexId v = 0; v < f.graph.num_vertices(); ++v) {
    ASSERT_EQ(executor.states()[v], v + 2);
  }
}

// -------------------------------------------------- frontier gating

/// A SilentVertexSkippableApp with real messages: Combine is pure
/// accumulation, so calling it with an empty vector is a genuine no-op and
/// frontier gating may legally skip silent vertices. Only even-numbered
/// vertices transfer, so a fat slice of every partition stays silent each
/// iteration and the gate has real work to skip.
struct SkippableSumApp {
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
      state += m;  // empty vector => identity, as the trait promises
    }
  }
  size_t MessageBytes(const Message&) const { return sizeof(Message); }
  size_t StateBytes(const VertexState&) const { return sizeof(VertexState); }

  static constexpr bool kSkipSilentVertices = true;
};
static_assert(PropagationApp<SkippableSumApp>);
static_assert(SilentVertexSkippableApp<SkippableSumApp>);
static_assert(!SilentVertexSkippableApp<NetworkRankingApp>);
static_assert(SilentVertexSkippableApp<DegreeDistributionApp>);

TEST(RuntimeTest, FrontierGatingBitIdenticalOnAndOffAcrossWorkerCounts) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  SkippableSumApp app;

  // Ungated sequential reference: the exact legacy full-range loop.
  PropagationConfig reference_config =
      ConfigFor(OptimizationLevel::kO4, /*iterations=*/3);
  reference_config.frontier_gating = false;
  PropagationRunner<SkippableSumApp> reference(
      setup.graph, setup.placement, setup.topology, app, reference_config);
  ASSERT_TRUE(reference.Run(setup.sim_options).ok());
  EXPECT_EQ(reference.counters().frontier_vertices_skipped, 0u);

  // Gated sequential run: identical states, nonzero skip counter.
  PropagationConfig gated_config = reference_config;
  gated_config.frontier_gating = true;
  PropagationRunner<SkippableSumApp> gated(
      setup.graph, setup.placement, setup.topology, app, gated_config);
  ASSERT_TRUE(gated.Run(setup.sim_options).ok());
  ExpectBitIdentical(reference.states(), gated.states(), "gated runner");
  EXPECT_GT(gated.counters().frontier_vertices_skipped, 0u);

  for (uint32_t workers : {1u, 3u, 8u}) {
    for (bool gating : {false, true}) {
      PropagationConfig config = reference_config;
      config.frontier_gating = gating;
      RuntimeOptions options;
      options.max_workers = workers;
      RuntimeExecutor<SkippableSumApp> executor(
          setup.graph, setup.placement, setup.topology, app, config, options);
      ASSERT_TRUE(executor.Run().ok());
      ExpectBitIdentical(reference.states(), executor.states(),
                         std::string("frontier gating ") +
                             (gating ? "on" : "off") + ", " +
                             std::to_string(workers) + " workers");
      EXPECT_GT(executor.stats().combine_messages_scattered, 0u);
      if (gating) {
        EXPECT_GT(executor.stats().frontier_vertices_skipped, 0u);
      } else {
        EXPECT_EQ(executor.stats().frontier_vertices_skipped, 0u);
      }
    }
  }
}

TEST(RuntimeTest, FrontierGatingIsInertForNonConformingApps) {
  // NR's Combine overwrites the rank with the random-jump term even on empty
  // messages, so it must not (and does not) declare kSkipSilentVertices; the
  // gating flag being on must leave it on the exact full-range loop.
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  PropagationConfig config = ConfigFor(OptimizationLevel::kO4, /*iterations=*/3);
  ASSERT_TRUE(config.frontier_gating);  // default-on, still inert for NR
  NetworkRankingApp app(f.graph.num_vertices());
  PropagationRunner<NetworkRankingApp> runner(
      setup.graph, setup.placement, setup.topology, app, config);
  ASSERT_TRUE(runner.Run(setup.sim_options).ok());
  EXPECT_EQ(runner.counters().frontier_vertices_skipped, 0u);

  RuntimeExecutor<NetworkRankingApp> executor(
      setup.graph, setup.placement, setup.topology, app, config);
  ASSERT_TRUE(executor.Run().ok());
  ExpectBitIdentical(runner.states(), executor.states(), "NR gating inert");
  EXPECT_EQ(executor.stats().frontier_vertices_skipped, 0u);
  EXPECT_GT(executor.stats().combine_messages_scattered, 0u);
}

TEST(RuntimeTest, FrontierGatingPreservesVirtualOutputs) {
  // VDD opts in (its real-vertex Combine is empty — all aggregation rides
  // virtual vertices), so under gating every real vertex is skipped and the
  // virtual outputs must be untouched.
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  DegreeDistributionApp app;
  for (uint32_t workers : {1u, 3u, 8u}) {
    std::map<uint64_t, DegreeDistributionApp::VirtualOutput> outputs[2];
    uint64_t skipped[2] = {0, 0};
    for (bool gating : {false, true}) {
      PropagationConfig config =
          ConfigFor(OptimizationLevel::kO4, /*iterations=*/1);
      config.frontier_gating = gating;
      RuntimeOptions options;
      options.max_workers = workers;
      RuntimeExecutor<DegreeDistributionApp> executor(
          setup.graph, setup.placement, setup.topology, app, config, options);
      ASSERT_TRUE(executor.Run().ok());
      outputs[gating ? 1 : 0] = executor.virtual_outputs();
      skipped[gating ? 1 : 0] = executor.stats().frontier_vertices_skipped;
    }
    EXPECT_EQ(outputs[0], outputs[1]) << workers << " workers";
    EXPECT_FALSE(outputs[1].empty());
    EXPECT_EQ(skipped[0], 0u);
    EXPECT_GT(skipped[1], 0u);
  }
}

// -------------------------------------------------- Engine session front-end

TEST(RunAppTest, EnginesAgreeBitwiseThroughTheUnifiedFrontEnd) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);

  EngineOptions analytic_options;
  analytic_options.propagation = ConfigFor(OptimizationLevel::kO4, 3);
  auto analytic_session = Engine::Open(setup, analytic_options);
  ASSERT_TRUE(analytic_session.ok()) << analytic_session.status().ToString();
  auto analytic =
      analytic_session->Run(NetworkRankingApp(f.graph.num_vertices()));
  ASSERT_TRUE(analytic.ok()) << analytic.status().ToString();
  ASSERT_TRUE(analytic->metrics.has_value());
  ASSERT_TRUE(analytic->counters.has_value());
  EXPECT_FALSE(analytic->runtime_stats.has_value());
  EXPECT_GT(analytic->metrics->response_time_s, 0.0);

  EngineOptions concurrent_options;
  concurrent_options.engine = EngineKind::kConcurrent;
  concurrent_options.propagation = analytic_options.propagation;
  concurrent_options.runtime.max_workers = 3;
  auto concurrent_session = Engine::Open(setup, concurrent_options);
  ASSERT_TRUE(concurrent_session.ok())
      << concurrent_session.status().ToString();
  auto concurrent =
      concurrent_session->Run(NetworkRankingApp(f.graph.num_vertices()));
  ASSERT_TRUE(concurrent.ok()) << concurrent.status().ToString();
  ASSERT_TRUE(concurrent->runtime_stats.has_value());
  EXPECT_FALSE(concurrent->metrics.has_value());
  EXPECT_EQ(concurrent->runtime_stats->num_workers, 3u);
  ExpectBitIdentical(analytic->states, concurrent->states,
                     "RunApp analytic vs concurrent");

  // The unified link matrix reconciles exactly across engines, including
  // empty diagonals on both sides.
  ASSERT_EQ(analytic->link_network_bytes.size(),
            concurrent->link_network_bytes.size());
  const uint32_t n = f.topology.num_machines();
  for (uint32_t src = 0; src < n; ++src) {
    for (uint32_t dst = 0; dst < n; ++dst) {
      const size_t i = static_cast<size_t>(src) * n + dst;
      if (src == dst) {
        EXPECT_EQ(concurrent->link_network_bytes[i], 0.0);
      }
      EXPECT_EQ(analytic->link_network_bytes[i],
                concurrent->link_network_bytes[i])
          << "link " << src << "->" << dst;
    }
  }

  // Original-ID addressing works through the unified result.
  EXPECT_EQ(analytic->StateOfOriginal(0), concurrent->StateOfOriginal(0));
}

TEST(RunAppTest, ConcurrentEngineRejectsNonWireSerializableApps) {
  // RLG messages are std::vector<VertexId> — not trivially copyable, so the
  // wire-batch plane cannot carry them. The front-end must say so instead
  // of failing to compile or silently misbehaving.
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  EngineOptions options;
  options.engine = EngineKind::kConcurrent;
  options.propagation = ConfigFor(OptimizationLevel::kO4, 1);
  auto session = Engine::Open(setup, options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto result = session->Run(ReverseLinkGraphApp());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  // The analytic engine still runs the same app fine.
  options.engine = EngineKind::kAnalytic;
  auto analytic_session = Engine::Open(setup, options);
  ASSERT_TRUE(analytic_session.ok()) << analytic_session.status().ToString();
  auto analytic = analytic_session->Run(ReverseLinkGraphApp());
  EXPECT_TRUE(analytic.ok()) << analytic.status().ToString();
}

TEST(RunAppTest, ExternalSimulationOnlyAppliesToTheAnalyticEngine) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO2);
  EngineOptions options;
  options.propagation = ConfigFor(OptimizationLevel::kO2, 2);
  JobSimulation sim(setup.topology, setup.sim_options);
  auto session = Engine::Open(setup.graph, setup.placement, setup.topology,
                              options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto analytic =
      session->Run(NetworkRankingApp(f.graph.num_vertices()), &sim);
  ASSERT_TRUE(analytic.ok()) << analytic.status().ToString();
  // Metrics accumulated into the caller's simulation, and the result
  // mirrors them.
  EXPECT_GT(sim.metrics().response_time_s, 0.0);
  EXPECT_EQ(analytic->metrics->response_time_s, sim.metrics().response_time_s);

  options.engine = EngineKind::kConcurrent;
  auto concurrent_session = Engine::Open(setup.graph, setup.placement,
                                         setup.topology, options);
  ASSERT_TRUE(concurrent_session.ok())
      << concurrent_session.status().ToString();
  auto rejected = concurrent_session->Run(
      NetworkRankingApp(f.graph.num_vertices()), &sim);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace surfer

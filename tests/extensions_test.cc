// Tests for behaviours the per-module tests leave out: cascading across
// several d_min phases, multi-failure scheduling, and the interplay of
// replica routing with placement.

#include <gtest/gtest.h>

#include "apps/network_ranking.h"
#include "graph/algorithms.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "propagation/runner.h"
#include "tests/test_fixtures.h"

namespace surfer {
namespace {

using testing_fixtures::EngineFixture;
using testing_fixtures::MakeEngineFixture;

const EngineFixture& Fixture() {
  static const EngineFixture* fixture =
      new EngineFixture(MakeEngineFixture(1 << 12, 8, 101));
  return *fixture;
}

TEST(CascadeExtensionTest, DminPhasesElideDiskAndKeepStatesBitIdentical) {
  const EngineFixture& f = Fixture();
  BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  NetworkRankingApp app(f.graph.num_vertices());

  // Six iterations span several d_min phases, so the phase position wraps.
  auto run = [&](bool cascaded) {
    PropagationConfig config;
    config.iterations = 6;
    config.cascaded = cascaded;
    PropagationRunner<NetworkRankingApp> runner(
        setup.graph, setup.placement, setup.topology, app, config);
    auto metrics = runner.Run(setup.sim_options);
    EXPECT_TRUE(metrics.ok());
    return std::pair(metrics->disk_bytes, runner.states());
  };

  const auto [cascaded_disk, cascaded_states] = run(true);
  const auto [naive_disk, naive_states] = run(false);
  EXPECT_LE(cascaded_disk, naive_disk);

  // Results identical: elision is an accounting property.
  ASSERT_EQ(cascaded_states.size(), naive_states.size());
  for (size_t v = 0; v < naive_states.size(); ++v) {
    EXPECT_EQ(cascaded_states[v], naive_states[v]);
  }
}

TEST(MultiFaultTest, SequentialFailuresInOneRun) {
  const EngineFixture& f = Fixture();
  BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  JobSimulation sim(setup.topology, setup.sim_options);
  sim.InjectFault({.machine = 2, .fail_at_s = 1.0});
  sim.InjectFault({.machine = 5, .fail_at_s = 3.0});

  NetworkRankingApp app(f.graph.num_vertices());
  PropagationConfig config;
  config.iterations = 3;
  PropagationRunner<NetworkRankingApp> runner(
      setup.graph, setup.placement, setup.topology, app, config);
  ASSERT_TRUE(runner.RunWith(&sim).ok());
  EXPECT_FALSE(sim.IsAlive(2));
  EXPECT_FALSE(sim.IsAlive(5));

  // Exact results despite two machine losses.
  const auto reference = ReferencePageRank(f.graph, 3);
  for (VertexId v = 0; v < f.graph.num_vertices(); ++v) {
    ASSERT_NEAR(runner.StateOfOriginal(v), reference[v], 1e-12);
  }
}

TEST(MultiFaultTest, FaultsSlowTheRunDown) {
  const EngineFixture& f = Fixture();
  BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  NetworkRankingApp app(f.graph.num_vertices());
  PropagationConfig config;
  config.iterations = 3;

  auto response = [&](int faults) {
    JobSimulation sim(setup.topology, setup.sim_options);
    for (int i = 0; i < faults; ++i) {
      sim.InjectFault({.machine = static_cast<MachineId>(2 + i),
                       .fail_at_s = 1.0 + i});
    }
    PropagationRunner<NetworkRankingApp> runner(
        setup.graph, setup.placement, setup.topology, app, config);
    EXPECT_TRUE(runner.RunWith(&sim).ok());
    return sim.metrics().response_time_s;
  };

  const double clean = response(0);
  const double one = response(1);
  const double two = response(2);
  EXPECT_GE(one, clean);
  EXPECT_GE(two, one * 0.999);
  // Recovery overhead stays bounded (replicas + rebalancing absorb it).
  EXPECT_LT(two, clean * 2.0);
}

TEST(ReplicaRoutingTest, SchedulerUsesReplicasWhenPrimarySlow) {
  // Two machines: all four tasks prefer machine 0 but can run on machine 1.
  // The balanced scheduler must split them.
  const Topology topo = Topology::T1(2);
  JobSimulationOptions options;
  options.cost.task_overhead_s = 0.0;
  JobSimulation sim(&topo, options);
  const double disk_bw = topo.machine(0).disk_bytes_per_sec;
  std::vector<SimTask> tasks;
  for (int i = 0; i < 4; ++i) {
    SimTask task;
    task.candidate_machines = {0, 1};
    task.cost.disk_read_bytes = disk_bw;  // 1 second each
    tasks.push_back(task);
  }
  auto stage = sim.RunStage("balance", tasks);
  ASSERT_TRUE(stage.ok());
  EXPECT_NEAR(stage->duration_s, 2.0, 1e-9);  // 2 + 2, not 4 + 0
}

TEST(ReplicaRoutingTest, PinnedTasksStaySerial) {
  const Topology topo = Topology::T1(2);
  JobSimulationOptions options;
  options.cost.task_overhead_s = 0.0;
  JobSimulation sim(&topo, options);
  const double disk_bw = topo.machine(0).disk_bytes_per_sec;
  std::vector<SimTask> tasks;
  for (int i = 0; i < 4; ++i) {
    SimTask task;
    task.candidate_machines = {0};  // no replicas
    task.cost.disk_read_bytes = disk_bw;
    tasks.push_back(task);
  }
  auto stage = sim.RunStage("pinned", tasks);
  ASSERT_TRUE(stage.ok());
  EXPECT_NEAR(stage->duration_s, 4.0, 1e-9);
}

TEST(FaultObservabilityTest, TraceCarriesFaultInstantsAndRetriedTasks) {
  const EngineFixture& f = Fixture();
  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  setup.sim_options.tracer = &tracer;
  setup.sim_options.metrics = &registry;
  JobSimulation sim(setup.topology, setup.sim_options);
  sim.InjectFault({.machine = 2, .fail_at_s = 1.0});
  sim.InjectFault({.machine = 5, .fail_at_s = 3.0});

  NetworkRankingApp app(f.graph.num_vertices());
  PropagationConfig config;
  config.iterations = 3;
  config.tracer = &tracer;
  config.metrics = &registry;
  PropagationRunner<NetworkRankingApp> runner(
      setup.graph, setup.placement, setup.topology, app, config);
  ASSERT_TRUE(runner.RunWith(&sim).ok());

  EXPECT_EQ(registry.CounterRef("sim_machine_failures_total").value(), 2u);
  EXPECT_GT(registry.CounterRef("sim_tasks_reexecuted_total").value(), 0u);
  size_t reexecuted = 0;
  for (const StageMetrics& stage : sim.metrics().stages) {
    reexecuted += stage.num_reexecuted_tasks;
  }
  EXPECT_EQ(registry.CounterRef("sim_tasks_reexecuted_total").value(),
            reexecuted);

  if (obs::Tracer::CompiledIn()) {
    size_t failures = 0;
    size_t detections = 0;
    size_t retried_spans = 0;
    for (const obs::TraceEvent& event : tracer.Events()) {
      if (event.name == "machine_failed") {
        ++failures;
        EXPECT_EQ(event.phase, 'i');
        EXPECT_EQ(event.clock, obs::TraceClock::kSimulated);
      } else if (event.name == "fault_detected") {
        ++detections;
      } else if (event.phase == 'X') {
        for (const auto& [key, value] : event.args) {
          if (key == "retry" && value == "true") {
            ++retried_spans;
          }
        }
      }
    }
    EXPECT_EQ(failures, 2u);
    EXPECT_EQ(detections, 2u);
    EXPECT_EQ(retried_spans, reexecuted);
  }
}

}  // namespace
}  // namespace surfer

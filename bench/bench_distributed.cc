// Process-count scaling of the distributed TCP engine: NR at O4 runs once
// through the sequential PropagationRunner (host wall clock), once through
// the threaded RuntimeExecutor, and then through the distributed engine at
// 1/3/8 worker processes over localhost TCP. Every point is cross-checked
// for bit-identity against the sequential states and for exact per-link
// reconciliation against the analytic link_network_bytes() matrix — the two
// standing invariants of the engine. Emits BENCH_distributed.json for
// trending; the numbers are not tolerance-gated (localhost TCP wall clock is
// dominated by loopback and scheduler noise, and the correctness invariants
// are already hard-asserted here and in net_distributed_test).
//
// `--smoke` runs a reduced sweep (small graph, fewer iterations, one
// process point) so CI can exercise the binary in seconds.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "apps/network_ranking.h"
#include "bench/bench_common.h"
#include "core/engine.h"

int main(int argc, char** argv) {
  using namespace surfer;
  using namespace surfer::bench;
  using Clock = std::chrono::steady_clock;

  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  int iterations = 5;
  BenchGraphOptions graph_options;
  std::vector<uint32_t> process_points = {1, 3, 8};
  if (smoke) {
    iterations = 2;
    graph_options.num_vertices = 1 << 13;
    graph_options.num_communities = 8;
    process_points = {3};
  }
  const Graph graph = MakeBenchGraph(graph_options);
  const Topology topology = MakeScaledT2(8, 2, 1);
  auto engine = BuildEngine(graph, topology);
  BenchmarkSetup setup = engine->MakeSetup(OptimizationLevel::kO4);
  setup.sim_options = MakeScaledSimOptions();
  PropagationConfig config = PropagationConfig::ForLevel(OptimizationLevel::kO4);
  config.iterations = iterations;
  NetworkRankingApp app(graph.num_vertices());

  PrintHeader(std::string("Distributed engine: processes over localhost TCP"
                          " vs threads vs sequential") +
              (smoke ? " (smoke)" : ""));

  EngineOptions sequential_options;
  sequential_options.propagation = config;
  auto sequential_session = Engine::Open(setup, sequential_options);
  SURFER_CHECK(sequential_session.ok())
      << sequential_session.status().ToString();
  const auto seq_start = Clock::now();
  auto sequential = sequential_session->Run(app);
  SURFER_CHECK(sequential.ok()) << sequential.status().ToString();
  const double sequential_wall_s =
      std::chrono::duration<double>(Clock::now() - seq_start).count();
  std::printf("sequential runner: %.3f s (host wall clock)\n", sequential_wall_s);

  EngineOptions threaded_options = sequential_options;
  threaded_options.engine = EngineKind::kConcurrent;
  threaded_options.runtime.max_workers = 4;
  auto threaded_session = Engine::Open(setup, threaded_options);
  SURFER_CHECK(threaded_session.ok()) << threaded_session.status().ToString();
  auto threaded = threaded_session->Run(app);
  SURFER_CHECK(threaded.ok()) << threaded.status().ToString();
  const double threaded_wall_s = threaded->runtime_stats->wall_seconds;
  std::printf("threaded executor (4 workers): %.3f s\n\n", threaded_wall_s);

  obs::JsonValue baseline = MakeBenchBaseline("bench_distributed", smoke);
  baseline.Set("app", std::string("NR"));
  baseline.Set("optimization_level",
               OptimizationLevelName(OptimizationLevel::kO4));
  baseline.Set("iterations", static_cast<uint64_t>(iterations));
  baseline.Set("num_vertices", static_cast<uint64_t>(graph.num_vertices()));
  baseline.Set("num_machines", static_cast<uint64_t>(topology.num_machines()));
  baseline.Set("sequential_wall_s", sequential_wall_s);
  baseline.Set("threaded_wall_s", threaded_wall_s);

  std::printf("%-9s %12s %14s %14s %12s %13s\n", "Procs", "Wall (s)",
              "TCP frames", "TCP bytes", "Tasks", "Peak RSS(MB)");
  obs::JsonValue points = obs::JsonValue::MakeArray();
  const uint32_t n = topology.num_machines();
  for (const uint32_t procs : process_points) {
    EngineOptions distributed_options = sequential_options;
    distributed_options.engine = EngineKind::kDistributed;
    distributed_options.distributed.max_processes = procs;
    auto distributed_session = Engine::Open(setup, distributed_options);
    SURFER_CHECK(distributed_session.ok())
        << distributed_session.status().ToString();
    auto distributed = distributed_session->Run(app);
    SURFER_CHECK(distributed.ok()) << distributed.status().ToString();
    SURFER_CHECK(sequential->states.size() == distributed->states.size());
    SURFER_CHECK(std::memcmp(sequential->states.data(),
                             distributed->states.data(),
                             sequential->states.size() *
                                 sizeof(NetworkRankingApp::VertexState)) == 0)
        << "distributed engine diverged from the sequential runner at "
        << procs << " processes";
    for (uint32_t src = 0; src < n; ++src) {
      for (uint32_t dst = 0; dst < n; ++dst) {
        const size_t i = static_cast<size_t>(src) * n + dst;
        SURFER_CHECK(sequential->link_network_bytes[i] ==
                     distributed->link_network_bytes[i])
            << "link " << src << "->" << dst
            << " bytes diverge from the analytic model at " << procs
            << " processes";
      }
    }
    const runtime::RuntimeStats& stats = *distributed->runtime_stats;
    std::printf("%-9u %12.3f %14llu %14llu %12llu %13.1f\n", procs,
                stats.wall_seconds,
                static_cast<unsigned long long>(stats.tcp_frames_sent),
                static_cast<unsigned long long>(stats.tcp_bytes_sent),
                static_cast<unsigned long long>(stats.tasks_executed),
                static_cast<double>(stats.peak_rss_bytes) / (1024.0 * 1024.0));
    obs::JsonValue point = obs::JsonValue::MakeObject();
    point.Set("processes", static_cast<uint64_t>(procs));
    point.Set("wall_s", stats.wall_seconds);
    point.Set("bit_identical", true);
    point.Set("links_reconciled", true);
    // Every listed counter, summed by the executor from each process's
    // WorkerStatsMsg counters (NR is not frontier-skippable, so
    // frontier_vertices_skipped doubles as a pin that the gate stays inert).
    SetRuntimeCounters(stats, point);
    point.Set("network_bytes", stats.TotalNetworkBytes());
    point.Set("barrier_generations", stats.barrier_generations);
    point.Set("peak_rss_bytes", stats.peak_rss_bytes);
    points.Append(std::move(point));
  }
  baseline.Set("points", std::move(points));

  std::printf("\n");
  WriteBenchBaseline("BENCH_distributed.json", baseline);
  return 0;
}

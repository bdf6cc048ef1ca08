// Host-side scaling of the concurrent execution runtime: NR at O4 runs once
// through the sequential PropagationRunner (host wall clock) and then through
// the RuntimeExecutor at 1/2/4/8 workers. Emits the machine-readable perf
// baseline BENCH_runtime.json so CI trends wall-clock speedup over time.
// Results are cross-checked for bit-identity on every point — a speedup that
// changes the answer is a bug, not a win. Profiling stays on for every point
// (sharded trace + superstep timeline + telemetry flight recorder), so the
// baseline prices the instrumented configuration users actually run. The
// first worker point additionally runs once with the flight recorder off,
// and the wall-clock delta ships as `telemetry_overhead_frac` — the measured
// price of the sampler, trended alongside the timings it prices.
//
// `--smoke` runs a reduced sweep (small graph, fewer iterations, one worker
// point) so CI can exercise the binary and its artifacts in seconds without
// polluting baselines.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "apps/network_ranking.h"
#include "bench/bench_common.h"
#include "core/engine.h"
#include "runtime/report.h"
#include "runtime/timeline.h"

int main(int argc, char** argv) {
  using namespace surfer;
  using namespace surfer::bench;
  using Clock = std::chrono::steady_clock;

  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  int iterations = 5;
  BenchGraphOptions graph_options;
  std::vector<uint32_t> worker_points = {1, 2, 4, 8};
  if (smoke) {
    iterations = 2;
    graph_options.num_vertices = 1 << 13;
    graph_options.num_communities = 8;
    worker_points = {2};
  }
  const Graph graph = MakeBenchGraph(graph_options);
  const Topology topology = MakeScaledT2(8, 2, 1);
  auto engine = BuildEngine(graph, topology);
  const BenchmarkSetup setup = engine->MakeSetup(OptimizationLevel::kO4);
  PropagationConfig config = PropagationConfig::ForLevel(OptimizationLevel::kO4);
  config.iterations = iterations;
  // Frontier gating pinned on: NR's Combine is not skippable so the results
  // are unchanged, but the counting scatter + frontier bitmap + incremental
  // receive-side overlap path runs live on every point — the CI smoke run
  // then gates that path under --strict-drops.
  config.frontier_gating = true;
  NetworkRankingApp app(graph.num_vertices());

  PrintHeader(std::string("Runtime scaling: concurrent executor vs "
                          "sequential runner") +
              (smoke ? " (smoke)" : ""));

  EngineOptions sequential_options;
  sequential_options.propagation = config;
  sequential_options.sim = MakeScaledSimOptions();
  auto sequential_session = Engine::Open(setup.graph, setup.placement,
                                         setup.topology, sequential_options);
  SURFER_CHECK(sequential_session.ok())
      << sequential_session.status().ToString();
  const auto seq_start = Clock::now();
  auto sequential = sequential_session->Run(app);
  SURFER_CHECK(sequential.ok()) << sequential.status().ToString();
  const double sequential_wall_s =
      std::chrono::duration<double>(Clock::now() - seq_start).count();
  std::printf("sequential runner: %.3f s (host wall clock)\n\n",
              sequential_wall_s);

  obs::JsonValue baseline = MakeBenchBaseline("bench_runtime_scaling", smoke);
  baseline.Set("app", std::string("NR"));
  baseline.Set("optimization_level",
               OptimizationLevelName(OptimizationLevel::kO4));
  baseline.Set("iterations", static_cast<uint64_t>(iterations));
  baseline.Set("num_vertices", static_cast<uint64_t>(graph.num_vertices()));
  baseline.Set("num_machines", static_cast<uint64_t>(topology.num_machines()));
  baseline.Set("sequential_wall_s", sequential_wall_s);
  baseline.Set("frontier_gating", true);

  std::printf("%-9s %12s %9s %13s %15s %13s\n", "Workers", "Wall (s)",
              "Speedup", "Send stalls", "Barrier wait(s)", "Peak RSS(MB)");
  obs::JsonValue points = obs::JsonValue::MakeArray();
  obs::JsonValue last_runtime_block = obs::JsonValue::MakeObject();
  obs::JsonValue last_timeline_block = obs::JsonValue::MakeObject();
  obs::JsonValue last_telemetry_block = obs::JsonValue::MakeObject();
  bool have_telemetry_block = false;
  double telemetry_overhead_frac = 0.0;
  BenchObservability observability;
  for (size_t point_index = 0; point_index < worker_points.size();
       ++point_index) {
    const uint32_t workers = worker_points[point_index];
    // Profiling on: per-task events flow through the sharded tracer into
    // this tracer, the executor builds the superstep timeline, and the
    // flight recorder samples the runtime gauges at its default period.
    EngineOptions engine_options;
    engine_options.engine = EngineKind::kConcurrent;
    engine_options.propagation = config;
    engine_options.propagation.tracer = &observability.tracer;
    engine_options.propagation.metrics = &observability.metrics;
    engine_options.runtime.max_workers = workers;
    engine_options.runtime.telemetry.enabled = true;
    if (point_index == 0) {
      // Price the sampler: run the first point once with only the recorder
      // off (tracer and metrics stay on, so the delta isolates telemetry
      // from the rest of the instrumentation), then again fully
      // instrumented. The wall_s fields are tolerance-gated elsewhere and
      // would absorb far more than the sampler's ~1% — so the overhead is
      // reported for trending rather than gated here; the hard <=2% bar is
      // the per-tick telemetry_sample microbenchmark.
      EngineOptions plain_options = engine_options;
      plain_options.runtime.telemetry.enabled = false;
      auto plain_session = Engine::Open(setup.graph, setup.placement,
                                        setup.topology, plain_options);
      SURFER_CHECK(plain_session.ok()) << plain_session.status().ToString();
      const auto plain_start = Clock::now();
      auto plain = plain_session->Run(app);
      const double plain_wall_s =
          std::chrono::duration<double>(Clock::now() - plain_start).count();
      SURFER_CHECK(plain.ok()) << plain.status().ToString();
      auto warm_session = Engine::Open(setup.graph, setup.placement,
                                       setup.topology, engine_options);
      SURFER_CHECK(warm_session.ok()) << warm_session.status().ToString();
      const auto instrumented_start = Clock::now();
      auto warm = warm_session->Run(app);
      const double instrumented_wall_s =
          std::chrono::duration<double>(Clock::now() - instrumented_start)
              .count();
      SURFER_CHECK(warm.ok()) << warm.status().ToString();
      if (plain_wall_s > 0.0) {
        telemetry_overhead_frac =
            (instrumented_wall_s - plain_wall_s) / plain_wall_s;
      }
      std::printf("telemetry overhead at %u worker(s): %+.2f%% "
                  "(%.3f s off, %.3f s on)\n",
                  workers, telemetry_overhead_frac * 100.0, plain_wall_s,
                  instrumented_wall_s);
    }
    auto concurrent_session = Engine::Open(setup.graph, setup.placement,
                                           setup.topology, engine_options);
    SURFER_CHECK(concurrent_session.ok())
        << concurrent_session.status().ToString();
    auto concurrent = concurrent_session->Run(app);
    SURFER_CHECK(concurrent.ok()) << concurrent.status().ToString();
    SURFER_CHECK(sequential->states.size() == concurrent->states.size());
    SURFER_CHECK(std::memcmp(sequential->states.data(),
                             concurrent->states.data(),
                             sequential->states.size() *
                                 sizeof(NetworkRankingApp::VertexState)) == 0)
        << "runtime diverged from the sequential runner at " << workers
        << " workers";
    const runtime::RuntimeStats& stats = *concurrent->runtime_stats;
    const double speedup = sequential_wall_s / stats.wall_seconds;
    std::printf("%-9u %12.3f %8.2fx %13llu %15.3f %13.1f\n", workers,
                stats.wall_seconds, speedup,
                static_cast<unsigned long long>(stats.send_stalls),
                stats.barrier_wait_seconds,
                static_cast<double>(stats.peak_rss_bytes) / (1024.0 * 1024.0));
    obs::JsonValue point = obs::JsonValue::MakeObject();
    point.Set("workers", static_cast<uint64_t>(workers));
    point.Set("wall_s", stats.wall_seconds);
    point.Set("speedup", speedup);
    point.Set("bit_identical", true);
    // Every listed counter: stalls, barrier wait, the wire-plane and
    // combine-plan counters (frontier_vertices_skipped stays 0 for NR, whose
    // Combine is not skippable, pinning that the gate is inert here) and the
    // telemetry tallies.
    SetRuntimeCounters(stats, point);
    point.Set("barrier_wait_mean_s", stats.barrier_wait_mean_s);
    point.Set("barrier_wait_max_s", stats.barrier_wait_max_s);
    point.Set("network_bytes", stats.TotalNetworkBytes());
    point.Set("batch_fill_mean", stats.batch_fill.Mean());
    // Per-stage host-time split summed from the superstep timeline (all
    // steps x machines), so the baseline trends where the wall clock goes:
    // UDF compute vs wire-batch serialization.
    double timeline_compute_s = 0.0;
    double timeline_serialize_s = 0.0;
    for (const runtime::SuperstepProfile& step : stats.timeline) {
      for (const runtime::PhaseSeconds& machine : step.machines) {
        timeline_compute_s += machine.compute_s;
        timeline_serialize_s += machine.serialize_s;
      }
    }
    point.Set("compute_s", timeline_compute_s);
    point.Set("serialize_s", timeline_serialize_s);
    point.Set("trace_events_dropped", stats.trace_events_dropped);
    point.Set("peak_rss_bytes", stats.peak_rss_bytes);
    points.Append(std::move(point));
    last_runtime_block = runtime::RuntimeStatsToJson(stats);
    last_timeline_block = runtime::TimelineToJson(stats.timeline);
    if (concurrent->telemetry.has_value()) {
      last_telemetry_block = *concurrent->telemetry;
      have_telemetry_block = true;
    }
  }
  baseline.Set("telemetry_overhead_frac", telemetry_overhead_frac);
  baseline.Set("points", std::move(points));

  std::printf("\n");
  WriteBenchBaseline("BENCH_runtime.json", baseline);

  // The widest run also ships as a standard run report with the `runtime`,
  // schema-v2 `timeline`, and schema-v3 `telemetry` blocks populated, plus
  // the Chrome trace with the per-task lanes from the sharded profiler and
  // the flight recorder's counter lanes — the same artifacts CI uploads and
  // `surfer_trace summary` / `surfer_trace telemetry` read.
  obs::ExportThreadPoolStats(GlobalThreadPool().stats(),
                             &observability.metrics);
  obs::RunReportOptions report_options;
  report_options.name = "bench_runtime_scaling";
  report_options.notes =
      "NR at O4 through the concurrent runtime; runtime/timeline/telemetry "
      "blocks are the widest worker point";
  const obs::JsonValue report = obs::BuildRunReport(
      report_options, nullptr, &observability.metrics, &observability.tracer,
      &last_runtime_block, &last_timeline_block,
      have_telemetry_block ? &last_telemetry_block : nullptr);
  if (const Status status = obs::ValidateRunReport(report); !status.ok()) {
    SURFER_LOG(kWarning) << "run report failed validation: "
                         << status.ToString();
  }
  const std::string report_path =
      ArtifactDir() + "/bench_runtime_scaling.report.json";
  if (const Status status = obs::WriteRunReport(report_path, report);
      status.ok()) {
    std::printf("artifact: %s\n", report_path.c_str());
  }
  const std::string trace_path =
      ArtifactDir() + "/bench_runtime_scaling.trace.json";
  if (const Status status =
          observability.tracer.WriteChromeTrace(trace_path);
      status.ok()) {
    std::printf("artifact: %s\n", trace_path.c_str());
  }
  return 0;
}

#ifndef SURFER_BENCH_BENCH_COMMON_H_
#define SURFER_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "apps/benchmark_suite.h"
#include "common/host.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/sim_scale.h"
#include "core/surfer.h"
#include "graph/generators.h"
#include "graph/graph_stats.h"
#include "obs/bench_gate.h"
#include "obs/metrics_registry.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "runtime/stats.h"

namespace surfer {
namespace bench {

/// Standard experiment scale. Every bench uses the same social graph recipe
/// (the scaled-down MSN stand-in) unless it sweeps size itself. The graph is
/// sized so each binary finishes in tens of seconds; the simulated hardware
/// is scaled down by the same factor as the data (see core/sim_scale.h), so
/// stage times land in the paper's regime.
struct BenchGraphOptions {
  VertexId num_vertices = 1 << 16;
  double avg_out_degree = 12.0;
  /// Community granularity tuned so that the default 64 partitions subdivide
  /// communities (two partitions per community): partitions keep strong
  /// internal locality while sibling partitions share heavy intra-community
  /// traffic — the proximity regime of Section 4.1 and the inner-edge-ratio
  /// band of Table 5.
  uint32_t num_communities = 32;
  uint64_t seed = 2010;
};

inline Graph MakeBenchGraph(const BenchGraphOptions& options = {}) {
  SocialGraphOptions graph_options;
  graph_options.num_vertices = options.num_vertices;
  graph_options.avg_out_degree = options.avg_out_degree;
  graph_options.num_communities = options.num_communities;
  graph_options.seed = options.seed;
  auto graph = GenerateSocialGraph(graph_options);
  SURFER_CHECK(graph.ok()) << graph.status().ToString();
  return std::move(graph).value();
}

/// Builds a Surfer engine over `graph` on `topology`.
inline std::unique_ptr<SurferEngine> BuildEngine(const Graph& graph,
                                                 const Topology& topology,
                                                 uint32_t partitions = 64) {
  SurferOptions options;
  options.num_partitions = partitions;
  auto engine = SurferEngine::Build(graph, topology, options);
  SURFER_CHECK(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

/// Observability sinks for one benchmark run: a tracer and a metrics
/// registry that the propagation layer and the job simulation both feed.
struct BenchObservability {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
};

/// Runs one benchmark app through propagation at an optimization level.
/// With `observability`, the run records wall-clock compute spans,
/// simulated-clock stage/task spans, and propagation_*/sim_* metrics.
inline AppRunResult RunPropagation(const SurferEngine& engine,
                                   const BenchmarkApp& app,
                                   OptimizationLevel level,
                                   BenchObservability* observability = nullptr) {
  BenchmarkSetup setup = engine.MakeSetup(level);
  setup.sim_options = MakeScaledSimOptions();
  PropagationConfig config = PropagationConfig::ForLevel(level);
  if (observability != nullptr) {
    setup.sim_options.tracer = &observability->tracer;
    setup.sim_options.metrics = &observability->metrics;
    config.tracer = &observability->tracer;
    config.metrics = &observability->metrics;
  }
  auto result = app.run_propagation(setup, config);
  SURFER_CHECK(result.ok()) << app.name << ": " << result.status().ToString();
  return std::move(result).value();
}

/// Runs one benchmark app through MapReduce (always on the bandwidth-aware
/// layout, matching the paper's comparison).
inline AppRunResult RunMapReduce(const SurferEngine& engine,
                                 const BenchmarkApp& app) {
  BenchmarkSetup setup = engine.MakeSetup(OptimizationLevel::kO4);
  setup.sim_options = MakeScaledSimOptions();
  auto result = app.run_mapreduce(setup);
  SURFER_CHECK(result.ok()) << app.name << ": " << result.status().ToString();
  return std::move(result).value();
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Where bench binaries drop their run reports and traces: the
/// SURFER_ARTIFACT_DIR environment variable, or ./bench_artifacts.
inline std::string ArtifactDir() {
  const char* dir = std::getenv("SURFER_ARTIFACT_DIR");
  return (dir != nullptr && dir[0] != '\0') ? dir : "bench_artifacts";
}

/// Starts a BENCH_*.json perf baseline with the shared envelope every bench
/// emits identically: schema version, benchmark name, smoke flag, the
/// host's core count, and a provenance block (timestamp, hostname, build
/// type, sanitizer). Speedup and wall clock are bounded by host cores;
/// recording the bound lets `surfer_trace check` widen its tolerances when a
/// 1-core CI container compares against a beefier recording host, and the
/// provenance block answers "what produced this baseline" when numbers look
/// off months later. Callers append their workload fields and a `points`
/// array next to the envelope.
inline obs::JsonValue MakeBenchBaseline(const std::string& name, bool smoke) {
  obs::JsonValue baseline = obs::JsonValue::MakeObject();
  baseline.Set("schema_version", obs::kBenchBaselineSchemaVersion);
  baseline.Set("name", name);
  baseline.Set("smoke", smoke);
  baseline.Set("host_cores", static_cast<uint64_t>(HostThreads()));
  baseline.Set("provenance", obs::BuildProvenance());
  return baseline;
}

/// Sets every listed runtime counter on a bench point under its run-report
/// key, so points carry the same counter names as the runtime block.
inline void SetRuntimeCounters(const runtime::RuntimeCounters& counters,
                               obs::JsonValue& point) {
  runtime::RuntimeCounters::ForEachCounter([&](const char* name, auto member) {
    point.Set(name, counters.*member);
  });
}

/// Writes a perf baseline to `<artifact dir>/<filename>`.
inline void WriteBenchBaseline(const std::string& filename,
                               const obs::JsonValue& baseline) {
  const std::string path = ArtifactDir() + "/" + filename;
  if (const Status status = obs::WriteRunReport(path, baseline); status.ok()) {
    std::printf("artifact: %s\n", path.c_str());
  } else {
    SURFER_LOG(kWarning) << "failed to write " << path << ": "
                         << status.ToString();
  }
}

/// Writes `<dir>/<name>.report.json` (schema-validated run report) and
/// `<dir>/<name>.trace.json` (Chrome trace) for one observed run. The global
/// thread pool's counters are folded into the registry first, so reports
/// always carry the host-side execution stats next to the simulated ones.
inline void WriteBenchArtifacts(const std::string& name,
                                const RunMetrics* run_metrics,
                                BenchObservability* observability,
                                const std::string& notes = "") {
  SURFER_CHECK(observability != nullptr);
  obs::ExportThreadPoolStats(GlobalThreadPool().stats(),
                             &observability->metrics);
  obs::RunReportOptions options;
  options.name = name;
  options.notes = notes;
  const obs::JsonValue report = obs::BuildRunReport(
      options, run_metrics, &observability->metrics, &observability->tracer);
  if (const Status status = obs::ValidateRunReport(report); !status.ok()) {
    SURFER_LOG(kWarning) << "run report for " << name
                         << " failed validation: " << status.ToString();
  }
  const std::string dir = ArtifactDir();
  const std::string report_path = dir + "/" + name + ".report.json";
  const std::string trace_path = dir + "/" + name + ".trace.json";
  if (const Status status = obs::WriteRunReport(report_path, report);
      status.ok()) {
    std::printf("artifact: %s\n", report_path.c_str());
  } else {
    SURFER_LOG(kWarning) << "failed to write " << report_path << ": "
                         << status.ToString();
  }
  if (const Status status =
          observability->tracer.WriteChromeTrace(trace_path);
      status.ok()) {
    std::printf("artifact: %s\n", trace_path.c_str());
  } else {
    SURFER_LOG(kWarning) << "failed to write " << trace_path << ": "
                         << status.ToString();
  }
}

}  // namespace bench
}  // namespace surfer

#endif  // SURFER_BENCH_BENCH_COMMON_H_

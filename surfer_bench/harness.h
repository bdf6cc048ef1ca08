#ifndef SURFER_BENCH_HARNESS_H_
#define SURFER_BENCH_HARNESS_H_

// Shared types of the Surfer benchmark harness: the workload table, the
// run scale, metric lists, the benchmark-side span recorder, and the
// deployment a set-up produces. Everything here wraps the repository's
// public APIs from the outside; nothing is instrumented inside src/.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/surfer.h"
#include "graph/graph.h"
#include "obs/trace.h"
#include "serve/graph_service.h"

namespace surfer_bench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

inline double SecondsSince(Clock::time_point start) {
  return SecondsBetween(start, Clock::now());
}

/// Problem size of a run. The full scale is the benchmark; the smoke scale
/// only proves every code path still runs.
struct Scale {
  surfer::VertexId num_vertices = 0;
  uint32_t num_communities = 0;
  uint32_t num_partitions = 0;
  /// Set-ups per plain run; setup_s is their median, and the partition
  /// quality metrics their mean.
  uint32_t setup_repetitions = 0;
  /// Batch jobs timed even when --seconds has already elapsed.
  size_t min_jobs = 0;
  /// Distinct vertices the serve-hot mix draws from.
  uint32_t hot_set = 0;
};

Scale FullScale();
Scale SmokeScale();

enum class WorkloadKind { kBatch, kServe };

/// One named workload: a batch propagation job or a serving traffic mix.
struct Workload {
  const char* name;
  WorkloadKind kind;
  /// Batch: the engine that runs the timed jobs.
  surfer::EngineKind engine;
  /// Batch: storage layout and local optimizations of the job.
  surfer::OptimizationLevel level;
  /// Serve: hot-set mix (k-hop and rank over a few hundred vertices) or
  /// cold mix (partition-local paths and uniform 2-hop queries).
  bool hot;
  /// Serve: open-loop offered rate, queries per second.
  double offered_qps;
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

/// A metric as printed: name, value, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The end-to-end metrics every workload reports, in print order.
const std::vector<Metric>& EndToEndMetricNames();
/// The per-layer metrics every traced run reports, in print order. Layers a
/// workload does not exercise report 0.
const std::vector<Metric>& PerLayerMetricNames();

/// Named metric values collected during one run. Set() rejects names that
/// are not in the declared tables, so the printed set always matches
/// BENCHMARK.json.
class MetricValues {
 public:
  void Set(const std::string& name, double value);
  double Get(const std::string& name) const;
  /// The declared metrics in order, 0 where nothing was set.
  std::vector<Metric> Collect(const std::vector<Metric>& declared) const;

 private:
  std::map<std::string, double> values_;
};

/// Benchmark-side spans of a traced run, kept in memory and written once at
/// the end as a Chrome trace. The partitioner's own bisect spans land in the
/// same tracer through RecursivePartitionerOptions::tracer.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  void Record(const std::string& name, const std::string& category,
              Clock::time_point start, Clock::time_point end,
              std::vector<std::pair<std::string, std::string>> args = {});

  surfer::obs::Tracer& tracer() { return tracer_; }

 private:
  surfer::obs::Tracer tracer_;
  Clock::time_point origin_;
};

/// What one set-up produces: the generated graph, the built SurferEngine,
/// an open Engine session and, on serve workloads, a running GraphService.
struct Deployment {
  surfer::Graph graph;
  std::unique_ptr<surfer::SurferEngine> surfer;
  std::optional<surfer::Engine> session;
  std::unique_ptr<surfer::serve::GraphService> service;
  /// Seeds the partitioner and placements of this set-up.
  uint64_t partition_seed = 0;
  double generate_s = 0.0;
  double setup_s = 0.0;
  double serve_open_s = 0.0;
};

/// Result of the measured phase of one workload.
struct Measurement {
  /// Seconds per operation (one job or one query), in completion order.
  std::vector<double> latency_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Answers that disagreed with an oracle; also counted in `failed`.
  uint64_t wrong = 0;
};

/// Everything a run reports.
struct RunOutcome {
  MetricValues metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
};

// --- set-up (setup.cc) ---

surfer::Graph GenerateGraph(const Scale& scale, uint64_t seed);

/// Generates the graph, builds the SurferEngine, opens the session and, for
/// serve workloads, starts the GraphService. Every repetition generates the
/// same graph from `seed` and partitions it with its own seed derived from
/// `seed`. With `spans`, each call gets a span.
std::unique_ptr<Deployment> SetUp(const Workload& workload, const Scale& scale,
                                  uint64_t seed, uint32_t repetition,
                                  SpanLog* spans);

/// Re-runs the layers SurferEngine::Build calls — the partitioner, storage,
/// quality and placement — as standalone public calls, and replays the root
/// bisection step by step. Fills the graph/partition/storage/placement
/// per-layer metrics; appends to `errors` when a replay diverges.
void AttributeSetup(const Scale& scale, const Deployment& deployment,
                    SpanLog& spans, MetricValues& metrics,
                    std::vector<std::string>& errors);

// --- measured phases (batch.cc, serve.cc) ---

Measurement RunBatch(const Workload& workload, const Scale& scale,
                     Deployment& deployment, double seconds, SpanLog* spans,
                     MetricValues& metrics, std::vector<std::string>& errors);

Measurement RunServe(const Workload& workload, const Scale& scale,
                     uint64_t seed, Deployment& deployment, double seconds,
                     SpanLog* spans, MetricValues& metrics,
                     std::vector<std::string>& errors);

}  // namespace surfer_bench

#endif  // SURFER_BENCH_HARNESS_H_

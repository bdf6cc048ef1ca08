// Set-up of a Surfer deployment (generate -> partition -> place -> open) and
// its per-layer attribution. SetUp times the path a user pays: graph
// generation, SurferEngine::Build, Engine::Open and, on serve workloads,
// Engine::Serve. AttributeSetup re-runs Build's layers one public call at a
// time so their times can be summed against setup_s, and replays the root
// bisection through partition/bisection.h's internal phases.

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "common/random.h"
#include "core/sim_scale.h"
#include "harness.h"
#include "partition/bisection.h"
#include "partition/machine_graph.h"
#include "partition/partitioning.h"
#include "partition/recursive_partitioner.h"
#include "partition/weighted_graph.h"
#include "storage/partitioned_graph.h"
#include "storage/replication.h"

namespace surfer_bench {

using namespace surfer;

namespace {

/// Build's options with a seed of the run's own threaded through to the
/// partitioner and the placements, so --seed varies the partition as well
/// as the graph.
SurferOptions BuildOptions(const Scale& scale, uint64_t partition_seed) {
  SurferOptions options;
  options.num_partitions = scale.num_partitions;
  options.seed = partition_seed;
  return options;
}

EngineOptions SessionOptions(const Workload& workload) {
  EngineOptions options;
  options.engine = workload.engine;
  options.propagation = PropagationConfig::ForLevel(workload.level);
  // Ten NR iterations per job, as in the paper's propagation experiments.
  options.propagation.iterations = 10;
  if (workload.engine == EngineKind::kConcurrent) {
    // Thread budget: at most four threads of workers or load. Serving keeps
    // two for the session so the service's two workers fit beside it.
    options.runtime.max_workers =
        workload.kind == WorkloadKind::kServe ? 2 : 4;
  } else if (workload.engine == EngineKind::kDistributed) {
    options.distributed.max_processes = 3;
  }
  return options;
}

/// Replays Bisect's recursion on the root graph phase by phase, in
/// BisectRecursive's order and seeds: coarsen with MixSeed(seed, depth)
/// until the target size or a matching stall, one initial bisection on the
/// coarsest graph, then project and FM-refine level by level back up.
struct RootReplay {
  double coarsen_s = 0.0;
  double initial_s = 0.0;
  /// Projection plus FmRefine at every uncoarsening level.
  double fm_s = 0.0;
  /// Improving FM passes during uncoarsening (the initial bisection's own
  /// per-trial FM runs count under initial_s).
  uint32_t fm_passes = 0;
  BisectionResult result;
};

RootReplay ReplayRootBisection(const WeightedGraph& root,
                               const BisectionOptions& options) {
  RootReplay replay;
  // levels[d - 1] is the graph at depth d; a deque keeps references stable.
  std::deque<WeightedGraph> levels;
  std::vector<std::vector<VertexId>> fine_to_coarse;
  const auto graph_at = [&](size_t depth) -> const WeightedGraph& {
    return depth == 0 ? root : levels[depth - 1];
  };

  Clock::time_point start = Clock::now();
  size_t depth = 0;
  while (true) {
    const WeightedGraph& fine = graph_at(depth);
    const VertexId n = fine.num_vertices();
    if (n <= options.coarsen_target || depth > 64) {
      break;
    }
    std::vector<VertexId> map;
    WeightedGraph coarse = internal::CoarsenOnce(
        fine, MixSeed(options.seed, depth), &map, options.pool);
    if (coarse.num_vertices() >=
        static_cast<VertexId>(0.95 * static_cast<double>(n))) {
      break;  // matching stalled; Bisect bisects this level directly
    }
    levels.push_back(std::move(coarse));
    fine_to_coarse.push_back(std::move(map));
    ++depth;
  }
  replay.coarsen_s = SecondsSince(start);

  start = Clock::now();
  BisectionResult result = internal::InitialBisection(graph_at(depth), options);
  replay.initial_s = SecondsSince(start);

  start = Clock::now();
  for (size_t d = depth; d-- > 0;) {
    const WeightedGraph& fine = graph_at(d);
    BisectionResult projected;
    projected.side.resize(fine.num_vertices());
    for (VertexId v = 0; v < fine.num_vertices(); ++v) {
      projected.side[v] = result.side[fine_to_coarse[d][v]];
    }
    projected.cut_weight =
        ComputeCutWeight(fine, projected.side, options.pool);
    for (VertexId v = 0; v < fine.num_vertices(); ++v) {
      projected.side_weight[projected.side[v]] += fine.vertex_weights[v];
    }
    replay.fm_passes += internal::FmRefine(fine, options, &projected);
    result = std::move(projected);
  }
  replay.fm_s = SecondsSince(start);
  replay.result = std::move(result);
  return replay;
}

bool SameBisection(const BisectionResult& a, const BisectionResult& b) {
  return a.side == b.side && a.cut_weight == b.cut_weight &&
         a.side_weight[0] == b.side_weight[0] &&
         a.side_weight[1] == b.side_weight[1];
}

}  // namespace

Graph GenerateGraph(const Scale& scale, uint64_t seed) {
  bench::BenchGraphOptions options;
  options.num_vertices = scale.num_vertices;
  options.num_communities = scale.num_communities;
  options.seed = seed;
  return bench::MakeBenchGraph(options);
}

std::unique_ptr<Deployment> SetUp(const Workload& workload, const Scale& scale,
                                  uint64_t seed, uint32_t repetition,
                                  SpanLog* spans) {
  auto deployment = std::make_unique<Deployment>();
  deployment->partition_seed = MixSeed(seed, repetition);
  const Clock::time_point start = Clock::now();
  deployment->graph = GenerateGraph(scale, seed);
  const Clock::time_point generated = Clock::now();

  auto built =
      SurferEngine::Build(deployment->graph, MakeScaledT2(8, 2, 1),
                          BuildOptions(scale, deployment->partition_seed));
  SURFER_CHECK(built.ok()) << built.status().ToString();
  deployment->surfer = std::move(built).value();
  const Clock::time_point built_at = Clock::now();

  const BenchmarkSetup setup = deployment->surfer->MakeSetup(workload.level);
  auto session = Engine::Open(setup.graph, setup.placement, setup.topology,
                              SessionOptions(workload));
  SURFER_CHECK(session.ok()) << session.status().ToString();
  deployment->session.emplace(std::move(session).value());
  const Clock::time_point opened = Clock::now();

  Clock::time_point served = opened;
  if (workload.kind == WorkloadKind::kServe) {
    serve::ServeOptions serve_options;
    serve_options.num_workers = 2;
    // The offered rates sit well below capacity, so a full admission window
    // could only come from a host stall (a preempted worker, a page-fault
    // burst). A window of at least ~0.2 s of arrivals lets latency record
    // such a stall instead of turning it into shed queries.
    serve_options.admission_window_bytes = 16 << 20;
    // Working set against cache: 64 entries per partition hold all of
    // serve-hot's keys (one vertex in 128, times two values of k: ~4 per
    // partition, a few dozen at most) but only a quarter of serve-cold's
    // 2-hop keys (one per vertex, ~256 per partition), so the two mixes sit
    // near 100% and under 10% hits.
    serve_options.cache_capacity_per_partition = 64;
    auto service = deployment->session->Serve(serve_options);
    SURFER_CHECK(service.ok()) << service.status().ToString();
    deployment->service = std::move(service).value();
    served = Clock::now();
  }

  deployment->generate_s = SecondsBetween(start, generated);
  deployment->setup_s = SecondsBetween(start, served);
  deployment->serve_open_s = SecondsBetween(opened, served);
  if (spans != nullptr) {
    spans->Record("generate", "setup", start, generated);
    spans->Record("surfer_build", "setup", generated, built_at);
    spans->Record("engine_open", "setup", built_at, opened);
    if (workload.kind == WorkloadKind::kServe) {
      spans->Record("engine_serve", "setup", opened, served);
    }
  }
  return deployment;
}

void AttributeSetup(const Scale& scale, const Deployment& deployment,
                    SpanLog& spans, MetricValues& metrics,
                    std::vector<std::string>& errors) {
  const Graph& graph = deployment.graph;
  const SurferEngine& surfer = *deployment.surfer;
  const SurferOptions build_options =
      BuildOptions(scale, deployment.partition_seed);

  // The partitioner with Build's exact options; its tracer hook emits one
  // span per bisection, tagged with the recursion level.
  RecursivePartitionerOptions partition_options;
  partition_options.num_partitions = surfer.num_partitions();
  partition_options.bisection = build_options.bisection;
  partition_options.bisection.seed = build_options.seed;
  partition_options.tracer = &spans.tracer();
  Clock::time_point start = Clock::now();
  auto partitioned = RecursivePartition(graph, partition_options);
  Clock::time_point end = Clock::now();
  SURFER_CHECK(partitioned.ok()) << partitioned.status().ToString();
  spans.Record("recursive_partition", "layer", start, end);
  const double partition_s = SecondsBetween(start, end);
  if (partitioned->partitioning.assignment !=
      surfer.partitioning().assignment) {
    errors.push_back(
        "standalone RecursivePartition differs from SurferEngine::Build's "
        "assignment");
  }

  double level_s[6] = {0, 0, 0, 0, 0, 0};
  double levels_total_s = 0.0;
  uint64_t bisections = 0;
  for (const obs::TraceEvent& event : spans.tracer().Events()) {
    if (event.category != "partition" || event.name.rfind("bisect[", 0) != 0) {
      continue;
    }
    ++bisections;
    levels_total_s += event.dur_us * 1e-6;
    for (const auto& [key, value] : event.args) {
      if (key == "level") {
        const unsigned long level = std::stoul(value);
        if (level < 6) {
          level_s[level] += event.dur_us * 1e-6;
        }
      }
    }
  }

  start = Clock::now();
  auto stored = PartitionedGraph::Create(graph, partitioned->partitioning);
  end = Clock::now();
  SURFER_CHECK(stored.ok()) << stored.status().ToString();
  spans.Record("partitioned_graph_create", "layer", start, end);
  const double create_s = SecondsBetween(start, end);

  start = Clock::now();
  const PartitionQuality quality =
      ComputeQuality(graph, partitioned->partitioning);
  end = Clock::now();
  spans.Record("compute_quality", "layer", start, end);
  const double quality_s = SecondsBetween(start, end);
  if (quality.cross_edges != surfer.quality().cross_edges) {
    errors.push_back("standalone ComputeQuality differs from Build's");
  }

  const Topology& topology = surfer.topology();
  start = Clock::now();
  auto mapping =
      ComputeBandwidthAwarePlacement(topology, partitioned->sketch);
  SURFER_CHECK(mapping.ok()) << mapping.status().ToString();
  auto bandwidth_aware = MakeReplicatedPlacement(
      mapping->partition_to_machine, topology, build_options.seed);
  auto random = MakeReplicatedPlacement(
      RandomPlacement(surfer.num_partitions(), topology, build_options.seed),
      topology, build_options.seed + 1);
  end = Clock::now();
  SURFER_CHECK(bandwidth_aware.ok() && random.ok());
  spans.Record("placement", "layer", start, end);
  const double placement_s = SecondsBetween(start, end);
  if (bandwidth_aware->replicas !=
          surfer.bandwidth_aware_placement().replicas ||
      random->replicas != surfer.random_placement().replicas) {
    errors.push_back("standalone placements differ from Build's");
  }

  // The root bisection, replayed phase by phase and checked bit for bit
  // against Bisect on the same root graph and options.
  const WeightedGraph root = WeightedGraph::FromDataGraph(graph);
  BisectionOptions root_options = partition_options.bisection;
  root_options.seed = MixSeed(partition_options.bisection.seed, /*node=*/1);
  start = Clock::now();
  const BisectionResult reference = Bisect(root, root_options);
  end = Clock::now();
  spans.Record("root_bisect", "replay", start, end);
  start = Clock::now();
  const RootReplay replay = ReplayRootBisection(root, root_options);
  end = Clock::now();
  spans.Record("root_replay", "replay", start, end);
  if (!SameBisection(replay.result, reference)) {
    errors.push_back("root-bisection replay differs from Bisect(root)");
  }

  metrics.Set("partition.s", partition_s);
  for (int level = 0; level < 6; ++level) {
    metrics.Set("partition.level_" + std::to_string(level) + "_s",
                level_s[level]);
  }
  metrics.Set("partition.bisections", static_cast<double>(bisections));
  metrics.Set("partition.levels_attributed_frac",
              partition_s > 0.0 ? levels_total_s / partition_s : 0.0);
  metrics.Set("partition.root.coarsen_s", replay.coarsen_s);
  metrics.Set("partition.root.initial_s", replay.initial_s);
  metrics.Set("partition.root.fm_s", replay.fm_s);
  metrics.Set("partition.root.fm_passes", replay.fm_passes);
  metrics.Set("storage.create_s", create_s);
  metrics.Set("storage.quality_s", quality_s);
  metrics.Set("placement.s", placement_s);
  const double attributed = deployment.generate_s + partition_s + create_s +
                            quality_s + placement_s;
  const double build_path_s = deployment.setup_s - deployment.serve_open_s;
  metrics.Set("bench.setup_attributed_frac",
              build_path_s > 0.0 ? attributed / build_path_s : 0.0);
}

}  // namespace surfer_bench

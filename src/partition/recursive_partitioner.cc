#include "partition/recursive_partitioner.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/logging.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace surfer {

namespace {

/// Subgraph extraction shards its passes over the pool only above this many
/// member vertices; below it the task overhead exceeds the scan.
constexpr size_t kExtractParallelMinVertices = 4096;

/// Nodes at least this large hand the pool to their bisection for
/// intra-bisection parallelism. Near the top of the tree there are fewer
/// subtree tasks than workers, so the spare threads shard the bisection
/// itself; deeper nodes have enough sibling tasks to fill the pool and skip
/// the sharding overhead. The gate depends only on the subgraph size, never
/// on the thread count, so it cannot perturb determinism.
constexpr size_t kIntraNodeParallelMinVertices = 8192;

/// Reuses full-length global->local scratch maps across subtree tasks so
/// each extraction doesn't allocate (and fault in) num_vertices entries.
/// Maps are returned reset to kInvalidVertex — ExtractSubgraph restores the
/// entries it touched, which is O(|subgraph|), not O(n).
class ScratchMapPool {
 public:
  explicit ScratchMapPool(VertexId num_vertices)
      : num_vertices_(num_vertices) {}

  std::vector<VertexId> Acquire() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        std::vector<VertexId> map = std::move(free_.back());
        free_.pop_back();
        return map;
      }
    }
    return std::vector<VertexId>(num_vertices_, kInvalidVertex);
  }

  void Release(std::vector<VertexId> map) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(map));
  }

 private:
  const VertexId num_vertices_;
  std::mutex mu_;
  std::vector<std::vector<VertexId>> free_;
};

/// Extracts the induced subgraph of `graph` on `vertices` (which must be
/// unique); `vertices[i]` becomes local vertex i. Two-pass CSR build: count
/// each member's surviving degree, prefix-sum, then fill preallocated arrays
/// — no push_back growth, and both passes shard over `pool` because every
/// member writes only its own offset range (content and order match the
/// sequential build exactly).
WeightedGraph ExtractSubgraph(const WeightedGraph& graph,
                              const std::vector<VertexId>& vertices,
                              std::vector<VertexId>* global_to_local_scratch,
                              ThreadPool* pool) {
  std::vector<VertexId>& global_to_local = *global_to_local_scratch;
  if (vertices.size() < kExtractParallelMinVertices) {
    pool = nullptr;
  }
  constexpr size_t kGrain = 2048;
  ParallelForChunked(pool, vertices.size(), kGrain,
                     [&](size_t begin, size_t end) {
                       for (size_t i = begin; i < end; ++i) {
                         global_to_local[vertices[i]] =
                             static_cast<VertexId>(i);
                       }
                     });

  WeightedGraph sub;
  sub.offsets.assign(vertices.size() + 1, 0);
  sub.vertex_weights.resize(vertices.size());
  std::vector<EdgeIndex> local_degree(vertices.size(), 0);
  ParallelForChunked(pool, vertices.size(), kGrain,
                     [&](size_t begin, size_t end) {
                       for (size_t i = begin; i < end; ++i) {
                         EdgeIndex kept = 0;
                         for (VertexId nbr : graph.Neighbors(vertices[i])) {
                           if (global_to_local[nbr] != kInvalidVertex) {
                             ++kept;
                           }
                         }
                         local_degree[i] = kept;
                       }
                     });
  for (size_t i = 0; i < vertices.size(); ++i) {
    sub.offsets[i + 1] = sub.offsets[i] + local_degree[i];
  }
  sub.neighbors.resize(sub.offsets.back());
  sub.edge_weights.resize(sub.offsets.back());
  ParallelForChunked(
      pool, vertices.size(), kGrain, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          const VertexId v = vertices[i];
          sub.vertex_weights[i] = graph.vertex_weights[v];
          const auto nbrs = graph.Neighbors(v);
          const auto weights = graph.EdgeWeights(v);
          EdgeIndex out = sub.offsets[i];
          for (size_t j = 0; j < nbrs.size(); ++j) {
            const VertexId local = global_to_local[nbrs[j]];
            if (local != kInvalidVertex) {
              sub.neighbors[out] = local;
              sub.edge_weights[out] = weights[j];
              ++out;
            }
          }
        }
      });
  // Reset the scratch map for the next extraction.
  ParallelForChunked(pool, vertices.size(), kGrain,
                     [&](size_t begin, size_t end) {
                       for (size_t i = begin; i < end; ++i) {
                         global_to_local[vertices[i]] = kInvalidVertex;
                       }
                     });
  return sub;
}

struct RecursionState {
  const WeightedGraph* working;
  const RecursivePartitionerOptions* options;
  Partitioning* partitioning;
  PartitionSketch* sketch;
  /// Null when num_threads == 0; then `group` runs tasks inline and the
  /// traversal is the exact depth-first order of the sequential partitioner.
  ThreadPool* pool;
  ScratchMapPool* scratch_maps;
  TaskGroup* group;
};

/// The pool a node of `num_vertices` hands its bisection and extraction.
ThreadPool* NodePool(const RecursionState& state, size_t num_vertices) {
  return num_vertices >= kIntraNodeParallelMinVertices ? state.pool : nullptr;
}

/// Returns the heap's free pages to the OS. Pool threads allocate from their
/// own glibc arenas, and each arena otherwise keeps the high-water mark of the
/// bisection buffers it has freed, so the partitioner's resident peak would
/// grow with the thread count (DESIGN.md Section 10, "Memory").
void ReleaseFreedMemory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

/// Bisects `graph`, the subgraph of sketch `node`, records the cut in the
/// sketch and in the observability hooks, and returns each vertex's side.
std::vector<uint8_t> BisectNode(RecursionState& state,
                                const WeightedGraph& graph, uint32_t node,
                                ThreadPool* pool) {
  BisectionOptions bisect_options = state.options->bisection;
  bisect_options.seed = MixSeed(state.options->bisection.seed, node);
  bisect_options.pool = pool;
  // The bisection tree level: the root split of node 1 is level 0.
  uint32_t level = 0;
  for (uint32_t n = node; n > 1; n >>= 1) {
    ++level;
  }
  obs::Tracer* tracer = state.options->tracer;
  obs::MetricsRegistry* metrics = state.options->metrics;
  const bool timed = tracer != nullptr || metrics != nullptr;
  const auto wall_start = std::chrono::steady_clock::now();
  const double trace_start_us = tracer != nullptr ? tracer->WallNowUs() : 0.0;
  BisectionResult result = Bisect(graph, bisect_options);
  const double elapsed_s =
      timed ? std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            wall_start)
                  .count()
            : 0.0;
  state.sketch->SetBisectionCut(node, result.cut_weight);
  if (tracer != nullptr) {
    tracer->RecordComplete(
        obs::TraceClock::kWall, "bisect[node=" + std::to_string(node) + "]",
        "partition", trace_start_us, elapsed_s * 1e6,
        obs::Tracer::CurrentThreadLane(),
        {{"level", std::to_string(level)},
         {"vertices", std::to_string(graph.num_vertices())},
         {"cut", std::to_string(result.cut_weight)}});
  }
  if (metrics != nullptr) {
    const obs::Labels level_label = {{"level", std::to_string(level)}};
    metrics->CounterRef("partition_bisections_total").Increment();
    metrics->GaugeRef("partition_edge_cut", level_label)
        .Add(static_cast<double>(result.cut_weight));
    metrics->HistogramRef("partition_bisection_seconds", level_label)
        .Observe(elapsed_s);
  }
  return std::move(result.side);
}

void PartitionNode(RecursionState& state, std::vector<VertexId> vertices,
                   uint32_t node);

/// Splits a bisected node's vertices by side and submits the two child
/// subtrees; `vertices[i]` is the global ID of the node's local vertex i.
/// Both buffers are freed before the children are submitted: with a null
/// pool the group runs them inline, so anything still held here would stay
/// resident for the whole depth-first descent.
void SubmitChildren(RecursionState& state, uint32_t node,
                    std::vector<uint8_t> side,
                    std::vector<VertexId> vertices) {
  const size_t left_size =
      static_cast<size_t>(std::count(side.begin(), side.end(), 0));
  std::vector<VertexId> left;
  std::vector<VertexId> right;
  left.reserve(left_size);
  right.reserve(side.size() - left_size);
  for (size_t i = 0; i < side.size(); ++i) {
    (side[i] == 0 ? left : right).push_back(vertices[i]);
  }
  side = {};
  vertices = {};
  ReleaseFreedMemory();
  RecursionState* shared = &state;
  state.group->Submit([shared, left = std::move(left), node]() mutable {
    PartitionNode(*shared, std::move(left), PartitionSketch::Left(node));
  });
  state.group->Submit([shared, right = std::move(right), node]() mutable {
    PartitionNode(*shared, std::move(right), PartitionSketch::Right(node));
  });
}

/// Bisects the subgraph on `vertices` for sketch `node`; assigns partition
/// IDs once single-partition nodes are reached, and submits the two child
/// subtrees to the task group.
///
/// Determinism and race-freedom under task parallelism:
///  - The node's seed is MixSeed(base, node), a pure function of the sketch
///    node, and its input subgraph is fixed by the parent's bisection — so
///    every node's result is independent of task execution order.
///  - Concurrent tasks write disjoint state: `assignment[v]` only for the
///    leaf's own vertex set (leaves partition the vertex space), and
///    `SetBisectionCut(node, ...)` exactly once per distinct heap slot.
///    Distinct vector elements make both race-free.
void PartitionNode(RecursionState& state, std::vector<VertexId> vertices,
                   uint32_t node) {
  if (state.sketch->IsLeaf(node)) {
    const PartitionId partition =
        static_cast<PartitionId>(node - state.sketch->num_partitions());
    for (VertexId v : vertices) {
      state.partitioning->assignment[v] = partition;
    }
    return;
  }
  ThreadPool* pool = NodePool(state, vertices.size());
  std::vector<uint8_t> side;
  {
    std::vector<VertexId> global_to_local = state.scratch_maps->Acquire();
    const WeightedGraph sub =
        ExtractSubgraph(*state.working, vertices, &global_to_local, pool);
    state.scratch_maps->Release(std::move(global_to_local));
    side = BisectNode(state, sub, node, pool);
  }  // the subgraph is freed here, before the children run
  SubmitChildren(state, node, std::move(side), std::move(vertices));
}

}  // namespace

uint32_t DefaultPartitionerThreads() {
  const unsigned cores = std::thread::hardware_concurrency();
  return cores > 1 ? cores - 1 : 0;
}

Result<RecursivePartitionResult> RecursivePartition(
    const Graph& graph, const RecursivePartitionerOptions& options) {
  const uint32_t p = options.num_partitions;
  if (p == 0 || (p & (p - 1)) != 0) {
    return Status::InvalidArgument(
        "num_partitions must be a power of two, got " + std::to_string(p));
  }
  if (graph.num_vertices() < p) {
    return Status::InvalidArgument("fewer vertices than partitions");
  }

  RecursivePartitionResult result;
  result.partitioning.num_partitions = p;
  result.partitioning.assignment.assign(graph.num_vertices(), 0);
  result.sketch = PartitionSketch(p);
  if (p == 1) {
    return result;
  }

  std::unique_ptr<ThreadPool> pool;
  if (options.num_threads > 0) {
    pool = std::make_unique<ThreadPool>(options.num_threads);
  }
  const WeightedGraph working =
      WeightedGraph::FromDataGraph(graph, pool.get());
  ScratchMapPool scratch_maps(graph.num_vertices());
  TaskGroup group(pool.get());
  RecursionState state{&working,       &options,  &result.partitioning,
                       &result.sketch, pool.get(), &scratch_maps,
                       &group};
  // The root's subgraph is the whole working graph, so it bisects that in
  // place rather than through an identical ExtractSubgraph copy.
  std::vector<uint8_t> side =
      BisectNode(state, working, /*node=*/1,
                 NodePool(state, graph.num_vertices()));
  std::vector<VertexId> all(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    all[v] = v;
  }
  SubmitChildren(state, /*node=*/1, std::move(side), std::move(all));
  // Subtree tasks fan out through the group; state outlives them because
  // this wait (helping, so the caller's thread works too) ends the fan-out.
  group.Wait();
  return result;
}

}  // namespace surfer

#ifndef SURFER_PARTITION_BISECTION_H_
#define SURFER_PARTITION_BISECTION_H_

#include <cstdint>
#include <vector>

#include "partition/weighted_graph.h"

namespace surfer {

class ThreadPool;

/// Options for one multilevel graph bisection (Appendix A.2): coarsening via
/// heavy-edge matching completed by two-hop and isolated-vertex matching,
/// initial partitioning via GGGP (greedy graph growing), and FM boundary
/// refinement during uncoarsening.
struct BisectionOptions {
  /// Allowed imbalance: each side's weight stays within
  /// (1 + balance_epsilon) * total / 2 whenever achievable.
  double balance_epsilon = 0.02;
  /// Coarsening stops when the graph has at most this many vertices
  /// ("the scale of thousands of vertices" per the paper; smaller is fine
  /// for our graph sizes).
  uint32_t coarsen_target = 256;
  /// Number of random GGGP seed growths; each gets at most two FM passes,
  /// and the best cut wins.
  uint32_t gggp_trials = 8;
  /// Maximum FM passes at each uncoarsening level, and for the winning GGGP
  /// trial. Each pass is bounded: it stops after n moves, or once
  /// max(50, n / 4) moves have gone by without beating its best prefix
  /// (n = vertices being refined), and refinement stops after the first pass
  /// that does not improve.
  uint32_t refine_passes = 8;
  uint64_t seed = 1;
  /// Optional worker pool (not owned; may be null) for intra-bisection
  /// parallelism: cut evaluation, FM gain initialization, and the coarse
  /// graph build all shard over it on large graphs. The matching and the FM
  /// move loop stay sequential, so the result is bit-identical to a null
  /// pool at every pool size (see DESIGN.md Section 10).
  ThreadPool* pool = nullptr;
};

/// The outcome of a bisection: a side (0/1) per vertex, the cut weight, and
/// the two side weights.
struct BisectionResult {
  std::vector<uint8_t> side;
  int64_t cut_weight = 0;
  int64_t side_weight[2] = {0, 0};

  /// Fraction by which the heavier side exceeds the perfect half.
  double Imbalance() const {
    const int64_t total = side_weight[0] + side_weight[1];
    if (total == 0) {
      return 0.0;
    }
    const int64_t heavier = std::max(side_weight[0], side_weight[1]);
    return 2.0 * static_cast<double>(heavier) / static_cast<double>(total) -
           1.0;
  }
};

/// Computes the cut weight of an assignment (for verification). With a pool,
/// vertices are sharded into fixed chunks whose partial sums combine in chunk
/// order; integer addition makes that exact, so the result never depends on
/// the pool or its size.
int64_t ComputeCutWeight(const WeightedGraph& graph,
                         const std::vector<uint8_t>& side,
                         ThreadPool* pool = nullptr);

/// Runs a full multilevel bisection of `graph`.
BisectionResult Bisect(const WeightedGraph& graph,
                       const BisectionOptions& options);

namespace internal {

/// One level of coarsening. The matching visits vertices in a seeded shuffle
/// and pairs each unmatched vertex with its heaviest unmatched neighbor; then
/// pairs the vertices that left single through a shared neighbor (two-hop:
/// leaves of one hub, twins, relatives), and the isolated vertices with each
/// other, so every level roughly halves the graph. `fine_to_coarse` maps
/// each fine vertex to its coarse vertex; the coarse graph merges matched
/// pairs, sums parallel edge weights, and drops intra-pair edges. Both the
/// matching and the coarse-graph build are sequential; the build ignores
/// `pool` (a sharded build measured no faster), which stays so callers that
/// pass one keep compiling.
WeightedGraph CoarsenOnce(const WeightedGraph& graph, uint64_t seed,
                          std::vector<VertexId>* fine_to_coarse,
                          ThreadPool* pool = nullptr);

/// GGGP initial bisection on a (small) graph: `gggp_trials` seeded growths,
/// each polished by at most two FM passes; the best is refined for the rest
/// of `refine_passes`.
BisectionResult InitialBisection(const WeightedGraph& graph,
                                 const BisectionOptions& options);

/// FM refinement; improves `result` in place. Returns the number of passes
/// that improved the cut. `result`'s cut and side weights must match its
/// sides on entry: the passes update them move by move instead of
/// rescanning the graph.
uint32_t FmRefine(const WeightedGraph& graph, const BisectionOptions& options,
                  BisectionResult* result);

}  // namespace internal
}  // namespace surfer

#endif  // SURFER_PARTITION_BISECTION_H_

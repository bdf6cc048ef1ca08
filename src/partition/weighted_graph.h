#ifndef SURFER_PARTITION_WEIGHTED_GRAPH_H_
#define SURFER_PARTITION_WEIGHTED_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace surfer {

class ThreadPool;

/// The largest edge weight a WeightedGraph may hold. Weights are stored in
/// 32 bits to halve the partitioner's edge arrays; coarsening sums weights in
/// 64 bits and checks each merged weight against this bound before narrowing
/// it. Gains and cuts stay 64-bit, and gain updates widen a weight before
/// doubling it.
inline constexpr int64_t kMaxEdgeWeight = int64_t{1} << 30;

/// An undirected weighted graph in CSR form, the working representation of
/// the multilevel partitioner. Every edge appears in both endpoint lists
/// with the same weight. Vertex weights carry the "size" being balanced
/// (for data graphs: the stored record bytes, so partitions balance edges;
/// for machine graphs: 1 per machine).
struct WeightedGraph {
  std::vector<EdgeIndex> offsets;
  std::vector<VertexId> neighbors;
  std::vector<int32_t> edge_weights;   ///< parallel to `neighbors`
  std::vector<int64_t> vertex_weights;

  VertexId num_vertices() const {
    return offsets.empty() ? 0 : static_cast<VertexId>(offsets.size() - 1);
  }
  /// Number of stored half-edges (2x the undirected edge count).
  EdgeIndex num_half_edges() const { return neighbors.size(); }

  std::span<const VertexId> Neighbors(VertexId v) const {
    return {neighbors.data() + offsets[v], neighbors.data() + offsets[v + 1]};
  }
  std::span<const int32_t> EdgeWeights(VertexId v) const {
    return {edge_weights.data() + offsets[v],
            edge_weights.data() + offsets[v + 1]};
  }

  int64_t TotalVertexWeight() const;

  /// Sum of the weighted degree of v.
  int64_t WeightedDegree(VertexId v) const;

  /// Builds the partitioner's working graph from a directed data graph:
  /// symmetrize, drop self-loops, merge parallel edges (weight = number of
  /// directed edges between the endpoints, i.e. 1 or 2), and set vertex
  /// weight to the stored adjacency-record size so that balancing vertex
  /// weight balances partition bytes (constraint of Section 2). The
  /// per-vertex sort/merge pass (the dominant cost) shards over `pool` when
  /// given; every vertex's list is built independently into a preallocated
  /// range, so the result is identical to the sequential build.
  static WeightedGraph FromDataGraph(const Graph& graph,
                                     ThreadPool* pool = nullptr);

  /// Builds a complete machine graph: vertex per machine, edge weight =
  /// pairwise bandwidth scaled to integers, vertex weight 1 (the paper's
  /// balance constraint is "around the same number of machines").
  static WeightedGraph CompleteFromWeights(
      const std::vector<std::vector<double>>& bandwidth);
};

}  // namespace surfer

#endif  // SURFER_PARTITION_WEIGHTED_GRAPH_H_

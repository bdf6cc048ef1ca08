#include "partition/weighted_graph.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/thread_pool.h"

namespace surfer {

int64_t WeightedGraph::TotalVertexWeight() const {
  return std::accumulate(vertex_weights.begin(), vertex_weights.end(),
                         static_cast<int64_t>(0));
}

int64_t WeightedGraph::WeightedDegree(VertexId v) const {
  int64_t sum = 0;
  for (int32_t w : EdgeWeights(v)) {
    sum += w;
  }
  return sum;
}

WeightedGraph WeightedGraph::FromDataGraph(const Graph& graph,
                                           ThreadPool* pool) {
  const VertexId n = graph.num_vertices();
  // First pass: count symmetrized half-edges per vertex (over-allocate, then
  // compact after merging parallels). The scatter increments to arbitrary
  // endpoints keep this pass and the fill below sequential.
  std::vector<EdgeIndex> degree(n, 0);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v : graph.OutNeighbors(u)) {
      if (u == v) {
        continue;
      }
      ++degree[u];
      ++degree[v];
    }
  }
  std::vector<EdgeIndex> offsets(n + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v] + degree[v];
  }
  std::vector<VertexId> adj(offsets[n]);
  std::vector<EdgeIndex> cursor(offsets.begin(), offsets.end() - 1);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v : graph.OutNeighbors(u)) {
      if (u == v) {
        continue;
      }
      adj[cursor[u]++] = v;
      adj[cursor[v]++] = u;
    }
  }

  // Second pass, sharded: sort each vertex's slice of `adj` and count its
  // distinct neighbors (slices are disjoint, so chunks never conflict).
  std::vector<EdgeIndex> merged_degree(n, 0);
  ParallelForChunked(pool, n, /*grain=*/2048, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const VertexId v = static_cast<VertexId>(i);
      std::sort(adj.begin() + offsets[v], adj.begin() + offsets[v + 1]);
      EdgeIndex distinct = 0;
      for (EdgeIndex e = offsets[v]; e < offsets[v + 1];) {
        EdgeIndex j = e;
        while (j < offsets[v + 1] && adj[j] == adj[e]) {
          ++j;
        }
        ++distinct;
        e = j;
      }
      merged_degree[v] = distinct;
    }
  });

  WeightedGraph result;
  result.offsets.assign(n + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    result.offsets[v + 1] = result.offsets[v] + merged_degree[v];
  }
  result.neighbors.resize(result.offsets[n]);
  result.edge_weights.resize(result.offsets[n]);
  result.vertex_weights.resize(n);
  // Third pass, sharded: emit each vertex's merged run into its
  // preallocated range. Identical content and order to the sequential
  // push_back build, at any pool size.
  ParallelForChunked(pool, n, /*grain=*/2048, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const VertexId v = static_cast<VertexId>(i);
      EdgeIndex out = result.offsets[v];
      for (EdgeIndex e = offsets[v]; e < offsets[v + 1];) {
        EdgeIndex j = e;
        while (j < offsets[v + 1] && adj[j] == adj[e]) {
          ++j;
        }
        result.neighbors[out] = adj[e];
        result.edge_weights[out] = static_cast<int32_t>(j - e);
        ++out;
        e = j;
      }
      result.vertex_weights[v] =
          static_cast<int64_t>(StoredVertexRecordBytes(graph.OutDegree(v)));
    }
  });
  return result;
}

WeightedGraph WeightedGraph::CompleteFromWeights(
    const std::vector<std::vector<double>>& bandwidth) {
  const VertexId n = static_cast<VertexId>(bandwidth.size());
  WeightedGraph result;
  result.offsets.assign(n + 1, 0);
  result.vertex_weights.assign(n, 1);
  if (n == 0) {
    return result;
  }
  // Scale bandwidths into integer weights preserving ratios.
  double max_bw = 0.0;
  for (VertexId a = 0; a < n; ++a) {
    for (VertexId b = 0; b < n; ++b) {
      if (a != b && std::isfinite(bandwidth[a][b])) {
        max_bw = std::max(max_bw, bandwidth[a][b]);
      }
    }
  }
  const double scale = max_bw > 0.0 ? 1e6 / max_bw : 1.0;
  for (VertexId a = 0; a < n; ++a) {
    for (VertexId b = 0; b < n; ++b) {
      if (a == b) {
        continue;
      }
      result.neighbors.push_back(b);
      result.edge_weights.push_back(std::max<int32_t>(
          1, static_cast<int32_t>(std::llround(bandwidth[a][b] * scale))));
    }
    result.offsets[a + 1] = result.neighbors.size();
  }
  return result;
}

}  // namespace surfer

#include "partition/vertex_encoding.h"

#include <algorithm>

#include "graph/graph_builder.h"

namespace surfer {

VertexEncoding VertexEncoding::Create(const Partitioning& partitioning) {
  VertexEncoding enc;
  const VertexId n = static_cast<VertexId>(partitioning.assignment.size());
  const uint32_t p = partitioning.num_partitions;

  std::vector<VertexId> sizes(p, 0);
  for (VertexId v = 0; v < n; ++v) {
    ++sizes[partitioning.assignment[v]];
  }
  enc.starts_.assign(p + 1, 0);
  for (uint32_t i = 0; i < p; ++i) {
    enc.starts_[i + 1] = enc.starts_[i] + sizes[i];
  }
  enc.to_encoded_.resize(n);
  enc.to_original_.resize(n);
  std::vector<VertexId> cursor(enc.starts_.begin(), enc.starts_.end() - 1);
  for (VertexId v = 0; v < n; ++v) {
    const VertexId encoded = cursor[partitioning.assignment[v]]++;
    enc.to_encoded_[v] = encoded;
    enc.to_original_[encoded] = v;
  }
  enc.BuildOwners();
  return enc;
}

Result<VertexEncoding> VertexEncoding::FromMapping(
    std::vector<VertexId> to_original, std::vector<VertexId> starts) {
  const VertexId n = static_cast<VertexId>(to_original.size());
  if (starts.empty() || starts.front() != 0 || starts.back() != n) {
    return Status::InvalidArgument("starts must tile [0, num_vertices]");
  }
  if (!std::is_sorted(starts.begin(), starts.end())) {
    return Status::InvalidArgument("starts must be non-decreasing");
  }
  VertexEncoding enc;
  enc.to_original_ = std::move(to_original);
  enc.starts_ = std::move(starts);
  enc.to_encoded_.assign(n, kInvalidVertex);
  for (VertexId encoded = 0; encoded < n; ++encoded) {
    const VertexId original = enc.to_original_[encoded];
    if (original >= n || enc.to_encoded_[original] != kInvalidVertex) {
      return Status::Corruption("to_original is not a permutation");
    }
    enc.to_encoded_[original] = encoded;
  }
  enc.BuildOwners();
  return enc;
}

void VertexEncoding::BuildOwners() {
  const auto n = static_cast<size_t>(starts_.back());
  const auto p = static_cast<PartitionId>(starts_.size() - 1);
  owner_.resize(n + 1);
  // Each partition fills its own range; an empty one fills nothing.
  for (PartitionId k = 0; k < p; ++k) {
    std::fill(owner_.begin() + starts_[k], owner_.begin() + starts_[k + 1], k);
  }
  owner_[n] = p;
}

Graph VertexEncoding::Reencode(const Graph& graph) const {
  const VertexId n = graph.num_vertices();
  std::vector<EdgeIndex> offsets(n + 1, 0);
  for (VertexId encoded = 0; encoded < n; ++encoded) {
    offsets[encoded + 1] =
        offsets[encoded] + graph.OutDegree(to_original_[encoded]);
  }
  std::vector<VertexId> neighbors(graph.num_edges());
  EdgeIndex write = 0;
  for (VertexId encoded = 0; encoded < n; ++encoded) {
    const VertexId original = to_original_[encoded];
    const EdgeIndex begin = write;
    for (VertexId nbr : graph.OutNeighbors(original)) {
      neighbors[write++] = to_encoded_[nbr];
    }
    std::sort(neighbors.begin() + begin, neighbors.begin() + write);
  }
  return Graph(std::move(offsets), std::move(neighbors));
}

}  // namespace surfer

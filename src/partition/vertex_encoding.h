#ifndef SURFER_PARTITION_VERTEX_ENCODING_H_
#define SURFER_PARTITION_VERTEX_ENCODING_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "partition/partitioning.h"

namespace surfer {

/// The vertex-ID encoding of Appendix B: vertices are renumbered so that
/// each partition owns a consecutive ID range (partition k starts at
/// sum of sizes of partitions 0..k-1). The P+1 range starts are the whole
/// serialized form of the vertex->partition map, which is what makes
/// Combine-task recovery cheap. In memory the encoding also keeps a dense
/// owner array derived from the starts (4 B per vertex, never serialized),
/// so the engines route every message with one load.
class VertexEncoding {
 public:
  VertexEncoding() = default;

  /// Builds the encoding for `partitioning` (vertices keep their relative
  /// order within a partition).
  static VertexEncoding Create(const Partitioning& partitioning);

  /// Rebuilds an encoding from its serialized pieces: the encoded->original
  /// map and the P+1 partition range starts. Validates that `to_original`
  /// is a permutation and the starts tile [0, n].
  static Result<VertexEncoding> FromMapping(std::vector<VertexId> to_original,
                                            std::vector<VertexId> starts);

  VertexId ToEncoded(VertexId original) const { return to_encoded_[original]; }
  VertexId ToOriginal(VertexId encoded) const { return to_original_[encoded]; }

  /// Partition owning an encoded vertex ID: the last start <= `encoded`
  /// (an empty partition shares its start with the next one and never
  /// owns an ID). One load from the owner array, since the engines route
  /// every message through it. Defined for `encoded` <= num_vertices();
  /// num_vertices() itself maps to P, the end fencepost's index.
  PartitionId PartitionOf(VertexId encoded) const { return owner_[encoded]; }

  /// Encoded ID range [begin, end) of a partition.
  std::pair<VertexId, VertexId> Range(PartitionId partition) const {
    return {starts_[partition], starts_[partition + 1]};
  }

  uint32_t num_partitions() const {
    return static_cast<uint32_t>(starts_.size()) - 1;
  }
  VertexId num_vertices() const {
    return static_cast<VertexId>(to_encoded_.size());
  }
  const std::vector<VertexId>& starts() const { return starts_; }

  /// Rewrites `graph` into the encoded ID space. The rewritten graph,
  /// together with the ranges, is what the storage layer splits into
  /// partition files.
  Graph Reencode(const Graph& graph) const;

 private:
  std::vector<VertexId> to_encoded_;
  std::vector<VertexId> to_original_;
  std::vector<VertexId> starts_;  // size P+1
  /// owner_[id] = PartitionOf(id) for id in [0, n]; derived from starts_.
  std::vector<PartitionId> owner_;

  void BuildOwners();
};

}  // namespace surfer

#endif  // SURFER_PARTITION_VERTEX_ENCODING_H_

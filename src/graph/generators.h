#ifndef SURFER_GRAPH_GENERATORS_H_
#define SURFER_GRAPH_GENERATORS_H_

#include <cstdint>

#include "common/result.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace surfer {

/// Parameters for the R-MAT recursive generator (Chakrabarti et al., the
/// generator the paper cites for its synthetic graphs). Probabilities must be
/// positive and sum to 1.
struct RmatOptions {
  VertexId num_vertices = 1 << 14;  ///< rounded up to a power of two
  uint64_t num_edges = 1 << 17;
  double a = 0.57;
  double b = 0.19;
  double c = 0.19;
  double d = 0.05;
  /// Randomly permute vertex IDs so locality does not leak from the
  /// generation order. The partitioner has to *discover* structure.
  bool permute = true;
  uint64_t seed = 42;
};

/// Generates a directed R-MAT graph (duplicates removed, self-loops kept out).
Result<Graph> GenerateRmat(const RmatOptions& options);

/// Erdős–Rényi G(n, m): m directed edges chosen uniformly.
struct ErdosRenyiOptions {
  VertexId num_vertices = 1 << 14;
  uint64_t num_edges = 1 << 17;
  uint64_t seed = 42;
};
Result<Graph> GenerateErdosRenyi(const ErdosRenyiOptions& options);

/// The paper's synthetic recipe (Appendix F.1): generate `num_components`
/// small graphs with small-world characteristics, then rewire a ratio
/// `rewire_ratio` (p_r, default 5%) of all edges to connect the components
/// into one large graph.
struct CompositeSmallWorldOptions {
  uint32_t num_components = 16;
  VertexId vertices_per_component = 1 << 12;
  uint64_t edges_per_component = 1 << 15;
  double rewire_ratio = 0.05;  ///< the paper's default p_r = 5%
  RmatOptions component_rmat{};  ///< shape of each component (sizes overridden)
  uint64_t seed = 42;
};
Result<Graph> GenerateCompositeSmallWorld(
    const CompositeSmallWorldOptions& options);

/// A scaled-down stand-in for the MSN social-network snapshot: a composite
/// small-world graph whose edge/vertex ratio (~58 edges per vertex in the
/// real snapshot is impractical at laptop scale; we keep a configurable
/// multiplier) and community structure mimic a social network.
struct SocialGraphOptions {
  VertexId num_vertices = 1 << 16;
  double avg_out_degree = 16.0;
  uint32_t num_communities = 32;
  double rewire_ratio = 0.05;
  uint64_t seed = 2007;  ///< the snapshot year, for flavor
};
Result<Graph> GenerateSocialGraph(const SocialGraphOptions& options);

}  // namespace surfer

#endif  // SURFER_GRAPH_GENERATORS_H_

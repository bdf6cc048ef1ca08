// Bit-identity of the task-parallel partitioner: RecursivePartition must
// produce exactly the same assignment and sketch cuts at every thread count,
// including the sequential num_threads = 0 path. The fixtures stress the
// shapes that break naive parallel partitioners: power-law degree skew
// (uneven subtree sizes), stars (one giant vertex), grids (deep balanced
// recursion), disconnected graphs (the GGGP frontier empties and the
// first-unassigned cursor takes over), and leafy power-law graphs (most
// coarsening pairs come from two-hop and isolated-vertex matching).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "partition/bisection.h"
#include "partition/recursive_partitioner.h"
#include "partition/weighted_graph.h"

namespace surfer {
namespace {

Graph PowerLawGraph(uint64_t seed = 3) {
  auto g = GenerateRmat(
      {.num_vertices = 4096, .num_edges = 32768, .seed = seed});
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

// A power-law core, milder than PowerLawGraph's (whose R-MAT skew leaves
// ~40% of its vertices with degree 0 or 1), plus 384 leaves hung on random
// core vertices and 384 isolated vertices: about a fifth of the graph has
// degree 0 or 1.
Graph LeafyGraph(uint64_t seed = 5) {
  constexpr VertexId kCore = 4096;
  constexpr VertexId kLeaves = 384;
  constexpr VertexId kIsolated = 384;
  auto core = GenerateRmat({.num_vertices = kCore,
                            .num_edges = 65536,
                            .a = 0.45,
                            .b = 0.22,
                            .c = 0.22,
                            .d = 0.11,
                            .seed = seed});
  EXPECT_TRUE(core.ok());
  GraphBuilder builder(kCore + kLeaves + kIsolated);
  for (VertexId u = 0; u < kCore; ++u) {
    for (VertexId v : core->OutNeighbors(u)) {
      EXPECT_TRUE(builder.AddEdge(u, v).ok());
    }
  }
  Rng rng(seed);
  for (VertexId leaf = kCore; leaf < kCore + kLeaves; ++leaf) {
    EXPECT_TRUE(
        builder.AddEdge(leaf, static_cast<VertexId>(rng.Uniform(kCore))).ok());
  }
  return std::move(builder).Build();
}

Graph StarGraph(VertexId n = 2048) {
  GraphBuilder builder(n);
  for (VertexId v = 1; v < n; ++v) {
    EXPECT_TRUE(builder.AddEdge(0, v).ok());
  }
  return std::move(builder).Build();
}

Graph GridGraph(VertexId rows = 48, VertexId cols = 48) {
  GraphBuilder builder(rows * cols);
  for (VertexId r = 0; r < rows; ++r) {
    for (VertexId c = 0; c < cols; ++c) {
      const VertexId v = r * cols + c;
      if (c + 1 < cols) {
        EXPECT_TRUE(builder.AddEdge(v, v + 1).ok());
      }
      if (r + 1 < rows) {
        EXPECT_TRUE(builder.AddEdge(v, v + cols).ok());
      }
    }
  }
  return std::move(builder).Build();
}

Graph DisconnectedGraph() {
  // Eight disjoint 64-cliques followed by 512 isolated vertices; nothing
  // bridges them, so every bisection below the top level sees disconnected
  // remainders.
  constexpr VertexId kCliques = 8;
  constexpr VertexId kCliqueSize = 64;
  constexpr VertexId kIsolated = 512;
  GraphBuilder builder(kCliques * kCliqueSize + kIsolated);
  for (VertexId k = 0; k < kCliques; ++k) {
    const VertexId base = k * kCliqueSize;
    for (VertexId a = 0; a < kCliqueSize; ++a) {
      for (VertexId b = a + 1; b < kCliqueSize; ++b) {
        EXPECT_TRUE(builder.AddEdge(base + a, base + b).ok());
      }
    }
  }
  return std::move(builder).Build();
}

RecursivePartitionResult Partition(const Graph& graph, uint32_t num_threads,
                                   uint32_t num_partitions = 8,
                                   uint64_t seed = 17) {
  RecursivePartitionerOptions options;
  options.num_partitions = num_partitions;
  options.num_threads = num_threads;
  options.bisection.seed = seed;
  auto result = RecursivePartition(graph, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

void ExpectIdentical(const RecursivePartitionResult& baseline,
                     const RecursivePartitionResult& other,
                     const std::string& label) {
  ASSERT_EQ(baseline.partitioning.assignment.size(),
            other.partitioning.assignment.size());
  EXPECT_EQ(baseline.partitioning.assignment, other.partitioning.assignment)
      << label << ": assignment diverged";
  for (uint32_t node = 1; node < baseline.sketch.num_partitions(); ++node) {
    EXPECT_EQ(baseline.sketch.BisectionCut(node),
              other.sketch.BisectionCut(node))
        << label << ": sketch cut diverged at node " << node;
  }
}

class ParallelPartitionerFixtures
    : public ::testing::TestWithParam<const char*> {
 protected:
  Graph MakeGraph() const {
    const std::string name = GetParam();
    if (name == "power_law") {
      return PowerLawGraph();
    }
    if (name == "star") {
      return StarGraph();
    }
    if (name == "grid") {
      return GridGraph();
    }
    if (name == "leafy") {
      return LeafyGraph();
    }
    return DisconnectedGraph();
  }
};

TEST_P(ParallelPartitionerFixtures, BitIdenticalAcrossThreadCounts) {
  const Graph graph = MakeGraph();
  const RecursivePartitionResult baseline = Partition(graph, /*threads=*/0);
  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    const RecursivePartitionResult parallel = Partition(graph, threads);
    ExpectIdentical(baseline, parallel,
                    std::string(GetParam()) + " @ " +
                        std::to_string(threads) + " threads");
  }
}

TEST_P(ParallelPartitionerFixtures, RepeatedRunsDeterministic) {
  const Graph graph = MakeGraph();
  const RecursivePartitionResult first = Partition(graph, /*threads=*/8);
  const RecursivePartitionResult second = Partition(graph, /*threads=*/8);
  ExpectIdentical(first, second, std::string(GetParam()) + " repeat @ 8");
}

INSTANTIATE_TEST_SUITE_P(Shapes, ParallelPartitionerFixtures,
                         ::testing::Values("power_law", "star", "grid",
                                           "disconnected", "leafy"),
                         [](const auto& shape) { return shape.param; });

TEST(ParallelPartitionerTest, LargerGraphManyPartitionsBitIdentical) {
  // A bigger power-law instance at 32 partitions crosses the intra-node
  // parallelism thresholds (subgraphs above 8192 vertices shard their
  // extraction, coarsening, and refinement over the pool), so this covers
  // the sharded paths, not just the subtree fan-out.
  auto g = GenerateRmat(
      {.num_vertices = 1 << 14, .num_edges = 1 << 17, .seed = 9});
  ASSERT_TRUE(g.ok());
  const RecursivePartitionResult baseline = Partition(*g, 0, 32, 23);
  for (uint32_t threads : {2u, 8u}) {
    const RecursivePartitionResult parallel = Partition(*g, threads, 32, 23);
    ExpectIdentical(baseline, parallel,
                    "large @ " + std::to_string(threads) + " threads");
  }
}

TEST(ParallelPartitionerTest, ParallelFromDataGraphMatchesSequential) {
  const Graph graph = PowerLawGraph(21);
  const WeightedGraph sequential = WeightedGraph::FromDataGraph(graph);
  ThreadPool pool(4);
  const WeightedGraph parallel = WeightedGraph::FromDataGraph(graph, &pool);
  EXPECT_EQ(sequential.offsets, parallel.offsets);
  EXPECT_EQ(sequential.neighbors, parallel.neighbors);
  EXPECT_EQ(sequential.edge_weights, parallel.edge_weights);
  EXPECT_EQ(sequential.vertex_weights, parallel.vertex_weights);
}

// Every pooled helper of one bisection against its sequential path: cut
// evaluation, one coarsening level (map and CSR), and a whole Bisect.
void ExpectPooledHelpersMatchSequential(const WeightedGraph& wg) {
  ThreadPool pool(4);

  std::vector<uint8_t> side(wg.num_vertices());
  for (VertexId v = 0; v < wg.num_vertices(); ++v) {
    side[v] = static_cast<uint8_t>((v * 2654435761u) >> 31);
  }
  EXPECT_EQ(ComputeCutWeight(wg, side), ComputeCutWeight(wg, side, &pool));

  std::vector<VertexId> seq_map;
  const WeightedGraph seq_coarse = internal::CoarsenOnce(wg, 5, &seq_map);
  std::vector<VertexId> par_map;
  const WeightedGraph par_coarse =
      internal::CoarsenOnce(wg, 5, &par_map, &pool);
  EXPECT_EQ(seq_map, par_map);
  EXPECT_EQ(seq_coarse.offsets, par_coarse.offsets);
  EXPECT_EQ(seq_coarse.neighbors, par_coarse.neighbors);
  EXPECT_EQ(seq_coarse.edge_weights, par_coarse.edge_weights);
  EXPECT_EQ(seq_coarse.vertex_weights, par_coarse.vertex_weights);

  BisectionOptions sequential_options;
  sequential_options.seed = 31;
  BisectionOptions pooled_options = sequential_options;
  pooled_options.pool = &pool;
  const BisectionResult seq_result = Bisect(wg, sequential_options);
  const BisectionResult par_result = Bisect(wg, pooled_options);
  EXPECT_EQ(seq_result.side, par_result.side);
  EXPECT_EQ(seq_result.cut_weight, par_result.cut_weight);
  EXPECT_EQ(seq_result.side_weight[0], par_result.side_weight[0]);
  EXPECT_EQ(seq_result.side_weight[1], par_result.side_weight[1]);
}

TEST(ParallelPartitionerTest, PooledBisectionHelpersMatchSequential) {
  const std::pair<const char*, Graph> graphs[] = {
      {"power_law", PowerLawGraph(27)}, {"leafy", LeafyGraph(27)}};
  for (const auto& [name, graph] : graphs) {
    SCOPED_TRACE(name);
    ExpectPooledHelpersMatchSequential(WeightedGraph::FromDataGraph(graph));
  }
}

TEST(ParallelPartitionerTest, DifferentSeedsStillDiffer) {
  // Guard against the seed plumbing collapsing to a constant: two base
  // seeds should (overwhelmingly) produce different partitionings.
  const Graph graph = PowerLawGraph(33);
  const RecursivePartitionResult a = Partition(graph, 2, 8, 100);
  const RecursivePartitionResult b = Partition(graph, 2, 8, 101);
  EXPECT_NE(a.partitioning.assignment, b.partitioning.assignment);
}

}  // namespace
}  // namespace surfer

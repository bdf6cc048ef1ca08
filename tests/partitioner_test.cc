#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "partition/partition_sketch.h"
#include "partition/partitioning.h"
#include "partition/recursive_partitioner.h"
#include "partition/vertex_encoding.h"

namespace surfer {
namespace {

Graph TestGraph(uint64_t seed = 42) {
  auto g = GenerateCompositeSmallWorld({.num_components = 8,
                                        .vertices_per_component = 256,
                                        .edges_per_component = 2048,
                                        .rewire_ratio = 0.05,
                                        .seed = seed});
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

// ---------------------------------------------------------- Partitioning

TEST(RecursivePartitionTest, RejectsBadPartitionCounts) {
  const Graph g = TestGraph();
  RecursivePartitionerOptions options;
  options.num_partitions = 3;
  EXPECT_FALSE(RecursivePartition(g, options).ok());
  options.num_partitions = 0;
  EXPECT_FALSE(RecursivePartition(g, options).ok());
}

TEST(RecursivePartitionTest, SinglePartitionIsTrivial) {
  const Graph g = TestGraph();
  RecursivePartitionerOptions options;
  options.num_partitions = 1;
  auto result = RecursivePartition(g, options);
  ASSERT_TRUE(result.ok());
  for (PartitionId p : result->partitioning.assignment) {
    EXPECT_EQ(p, 0u);
  }
}

TEST(RecursivePartitionTest, CoversAllPartitions) {
  const Graph g = TestGraph();
  RecursivePartitionerOptions options;
  options.num_partitions = 16;
  auto result = RecursivePartition(g, options);
  ASSERT_TRUE(result.ok());
  std::set<PartitionId> seen(result->partitioning.assignment.begin(),
                             result->partitioning.assignment.end());
  EXPECT_EQ(seen.size(), 16u);
  EXPECT_EQ(*seen.rbegin(), 15u);
}

TEST(RecursivePartitionTest, BalancedByStoredBytes) {
  const Graph g = TestGraph();
  RecursivePartitionerOptions options;
  options.num_partitions = 8;
  auto result = RecursivePartition(g, options);
  ASSERT_TRUE(result.ok());
  const PartitionQuality q = ComputeQuality(g, result->partitioning);
  EXPECT_LT(q.balance, 1.35);
}

TEST(RecursivePartitionTest, BeatsRandomPartitioning) {
  const Graph g = TestGraph();
  RecursivePartitionerOptions options;
  options.num_partitions = 8;
  auto result = RecursivePartition(g, options);
  ASSERT_TRUE(result.ok());
  auto random = RandomPartition(g, 8, 7);
  ASSERT_TRUE(random.ok());
  const double our_ier = ComputeQuality(g, result->partitioning).inner_edge_ratio;
  const double random_ier = ComputeQuality(g, *random).inner_edge_ratio;
  EXPECT_GT(our_ier, 3.0 * random_ier);
}

TEST(RecursivePartitionTest, MonotonicityOfPartitionSketch) {
  // T_l is non-decreasing in l (Section 4.1 monotonicity).
  const Graph g = TestGraph();
  RecursivePartitionerOptions options;
  options.num_partitions = 16;
  auto result = RecursivePartition(g, options);
  ASSERT_TRUE(result.ok());
  const PartitionSketch& sketch = result->sketch;
  uint64_t previous = 0;
  for (uint32_t level = 0; level < sketch.num_levels(); ++level) {
    const uint64_t t_l =
        sketch.TotalCrossEdgesAtLevel(g, result->partitioning, level);
    EXPECT_GE(t_l, previous) << "level " << level;
    previous = t_l;
  }
  // Level 0 has a single node: no cross edges.
  EXPECT_EQ(sketch.TotalCrossEdgesAtLevel(g, result->partitioning, 0), 0u);
}

TEST(RecursivePartitionTest, ProximityHoldsOnAverage) {
  // Proximity (Section 4.1): sibling partitions share more cross edges than
  // partitions whose common ancestor is higher. Exact per-node optimality is
  // NP-hard, so assert the aggregate trend.
  const Graph g = TestGraph();
  RecursivePartitionerOptions options;
  options.num_partitions = 16;
  auto result = RecursivePartition(g, options);
  ASSERT_TRUE(result.ok());
  const PartitionSketch& sketch = result->sketch;

  double sibling_sum = 0.0;
  int sibling_count = 0;
  double cousin_sum = 0.0;
  int cousin_count = 0;
  for (PartitionId a = 0; a < 16; ++a) {
    for (PartitionId b = a + 1; b < 16; ++b) {
      const uint32_t lca =
          sketch.LowestCommonAncestor(sketch.LeafNode(a), sketch.LeafNode(b));
      const uint32_t lca_level = sketch.LevelOf(lca);
      const uint64_t cross =
          CrossEdgesBetween(g, result->partitioning, a, b);
      if (lca_level == sketch.num_levels() - 2) {  // siblings
        sibling_sum += static_cast<double>(cross);
        ++sibling_count;
      } else if (lca_level == 0) {  // opposite halves of the root
        cousin_sum += static_cast<double>(cross);
        ++cousin_count;
      }
    }
  }
  ASSERT_GT(sibling_count, 0);
  ASSERT_GT(cousin_count, 0);
  EXPECT_GT(sibling_sum / sibling_count, cousin_sum / cousin_count);
}

TEST(RecursivePartitionTest, SketchCutsRecorded) {
  const Graph g = TestGraph();
  RecursivePartitionerOptions options;
  options.num_partitions = 8;
  auto result = RecursivePartition(g, options);
  ASSERT_TRUE(result.ok());
  // The root bisection must have been recorded with a positive cut (the
  // graph is connected across any split).
  EXPECT_GT(result->sketch.BisectionCut(1), 0);
}

// --------------------------------------------------------------- Quality

TEST(QualityTest, InnerPlusCrossEqualsTotal) {
  const Graph g = TestGraph();
  auto random = RandomPartition(g, 4, 3);
  ASSERT_TRUE(random.ok());
  const PartitionQuality q = ComputeQuality(g, *random);
  EXPECT_EQ(q.inner_edges + q.cross_edges, g.num_edges());
  uint64_t vertex_total = 0;
  for (uint64_t c : q.partition_vertices) {
    vertex_total += c;
  }
  EXPECT_EQ(vertex_total, g.num_vertices());
}

TEST(QualityTest, RandomPartitionIerNearOneOverP) {
  const Graph g = TestGraph();
  for (uint32_t p : {4u, 16u}) {
    auto random = RandomPartition(g, p, 3);
    ASSERT_TRUE(random.ok());
    const PartitionQuality q = ComputeQuality(g, *random);
    EXPECT_NEAR(q.inner_edge_ratio, 1.0 / p, 0.05);
  }
}

TEST(QualityTest, RandomPartitionBalanced) {
  const Graph g = TestGraph();
  auto random = RandomPartition(g, 8, 3);
  ASSERT_TRUE(random.ok());
  EXPECT_LT(ComputeQuality(g, *random).balance, 1.05);
}

TEST(QualityTest, ChooseNumPartitionsRule) {
  EXPECT_EQ(ChooseNumPartitions(100, 1000), 1u);
  EXPECT_EQ(ChooseNumPartitions(1000, 1000), 1u);
  EXPECT_EQ(ChooseNumPartitions(1001, 1000), 2u);
  EXPECT_EQ(ChooseNumPartitions(3000, 1000), 4u);
  EXPECT_EQ(ChooseNumPartitions(100ull << 30, 8ull << 30), 16u);
  EXPECT_EQ(ChooseNumPartitions(1000, 0), 1u);
}

// -------------------------------------------------------- VertexEncoding

TEST(VertexEncodingTest, RoundTripAndRanges) {
  const Graph g = TestGraph();
  RecursivePartitionerOptions options;
  options.num_partitions = 8;
  auto result = RecursivePartition(g, options);
  ASSERT_TRUE(result.ok());
  const VertexEncoding enc = VertexEncoding::Create(result->partitioning);

  EXPECT_EQ(enc.num_vertices(), g.num_vertices());
  EXPECT_EQ(enc.num_partitions(), 8u);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(enc.ToOriginal(enc.ToEncoded(v)), v);
    // Encoded ID falls inside its partition's range.
    const PartitionId p = result->partitioning.assignment[v];
    const auto [begin, end] = enc.Range(p);
    const VertexId e = enc.ToEncoded(v);
    EXPECT_GE(e, begin);
    EXPECT_LT(e, end);
    EXPECT_EQ(enc.PartitionOf(e), p);
  }
  // Ranges tile [0, n).
  EXPECT_EQ(enc.Range(0).first, 0u);
  EXPECT_EQ(enc.Range(7).second, g.num_vertices());
  for (PartitionId p = 0; p + 1 < 8; ++p) {
    EXPECT_EQ(enc.Range(p).second, enc.Range(p + 1).first);
  }
}

TEST(VertexEncodingTest, PartitionOfSkipsEmptyPartitions) {
  // Partitions 0 (front), 2 and 3 (middle) and 6 (end) are empty; each ID
  // belongs to the last partition whose start is <= it, and the ID one past
  // the end maps to P. Both constructors derive the owner table from the
  // starts, so both must agree with that definition.
  std::vector<VertexId> identity(10);
  for (VertexId v = 0; v < 10; ++v) {
    identity[v] = v;
  }
  const std::vector<VertexId> starts = {0, 0, 3, 3, 3, 7, 10, 10};
  const auto last_start_at_or_below = [&](VertexId e) {
    const auto it = std::upper_bound(starts.begin(), starts.end(), e);
    return static_cast<PartitionId>(it - starts.begin()) - 1;
  };
  auto enc = VertexEncoding::FromMapping(identity, starts);
  ASSERT_TRUE(enc.ok());
  for (VertexId e = 0; e <= 10; ++e) {
    EXPECT_EQ(enc->PartitionOf(e), last_start_at_or_below(e)) << "id " << e;
  }
  EXPECT_EQ(enc->PartitionOf(0), 1u);
  EXPECT_EQ(enc->PartitionOf(3), 4u);
  EXPECT_EQ(enc->PartitionOf(9), 5u);

  // Create from an assignment with the same partition sizes, listed in
  // reverse, so the encoding permutes the vertices.
  Partitioning partitioning;
  partitioning.num_partitions = 7;
  for (VertexId v = 0; v < 10; ++v) {
    partitioning.assignment.push_back(last_start_at_or_below(9 - v));
  }
  const VertexEncoding created = VertexEncoding::Create(partitioning);
  EXPECT_EQ(created.starts(), starts);
  for (VertexId e = 0; e <= 10; ++e) {
    EXPECT_EQ(created.PartitionOf(e), last_start_at_or_below(e)) << "id " << e;
  }
  for (VertexId v = 0; v < 10; ++v) {
    EXPECT_EQ(created.PartitionOf(created.ToEncoded(v)),
              partitioning.assignment[v])
        << "vertex " << v;
  }
}

TEST(VertexEncodingTest, ReencodePreservesStructure) {
  const Graph g = TestGraph();
  auto random = RandomPartition(g, 4, 9);
  ASSERT_TRUE(random.ok());
  const VertexEncoding enc = VertexEncoding::Create(*random);
  const Graph encoded = enc.Reencode(g);
  ASSERT_EQ(encoded.num_vertices(), g.num_vertices());
  ASSERT_EQ(encoded.num_edges(), g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(encoded.OutDegree(enc.ToEncoded(v)), g.OutDegree(v));
    for (VertexId n : g.OutNeighbors(v)) {
      EXPECT_TRUE(encoded.HasEdge(enc.ToEncoded(v), enc.ToEncoded(n)));
    }
  }
}

class PartitionCountSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PartitionCountSweep, IerDecreasesWithMorePartitions) {
  // The monotonicity behind Table 5: smaller partitions, more cross edges.
  static const Graph g = TestGraph(11);
  RecursivePartitionerOptions options;
  options.num_partitions = GetParam();
  auto result = RecursivePartition(g, options);
  ASSERT_TRUE(result.ok());
  const double ier = ComputeQuality(g, result->partitioning).inner_edge_ratio;
  static double previous_ier = 1.1;
  // Sweep runs in declaration order: 4, 8, 16, 32.
  EXPECT_LT(ier, previous_ier + 0.02);
  previous_ier = ier;
}

INSTANTIATE_TEST_SUITE_P(PartitionCounts, PartitionCountSweep,
                         ::testing::Values(4, 8, 16, 32));

}  // namespace
}  // namespace surfer

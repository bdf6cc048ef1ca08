#include <numeric>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "partition/bisection.h"
#include "partition/weighted_graph.h"

namespace surfer {
namespace {

// Two k-cliques joined by a single bridge edge: the optimal bisection cuts
// exactly the bridge.
WeightedGraph TwoCliques(VertexId k) {
  GraphBuilder builder(2 * k);
  for (VertexId a = 0; a < k; ++a) {
    for (VertexId b = a + 1; b < k; ++b) {
      EXPECT_TRUE(builder.AddEdge(a, b).ok());
      EXPECT_TRUE(builder.AddEdge(k + a, k + b).ok());
    }
  }
  EXPECT_TRUE(builder.AddEdge(0, k).ok());
  WeightedGraph wg = WeightedGraph::FromDataGraph(std::move(builder).Build());
  // Unit vertex weights keep the clique halves exactly balanced.
  std::fill(wg.vertex_weights.begin(), wg.vertex_weights.end(), 1);
  return wg;
}

TEST(WeightedGraphTest, FromDataGraphSymmetrizesWithMultiplicity) {
  GraphBuilder builder(3);
  ASSERT_TRUE(builder.AddEdges({{0, 1}, {1, 0}, {1, 2}}).ok());
  const WeightedGraph wg =
      WeightedGraph::FromDataGraph(std::move(builder).Build());
  EXPECT_EQ(wg.num_vertices(), 3u);
  // 0<->1 has weight 2 (both directions), 1<->2 weight 1.
  const auto nbrs = wg.Neighbors(1);
  const auto weights = wg.EdgeWeights(1);
  ASSERT_EQ(nbrs.size(), 2u);
  EXPECT_EQ(nbrs[0], 0u);
  EXPECT_EQ(weights[0], 2);
  EXPECT_EQ(nbrs[1], 2u);
  EXPECT_EQ(weights[1], 1);
  // Vertex weight = stored record bytes.
  EXPECT_EQ(wg.vertex_weights[0],
            static_cast<int64_t>(StoredVertexRecordBytes(1)));
  EXPECT_EQ(wg.vertex_weights[1],
            static_cast<int64_t>(StoredVertexRecordBytes(2)));
}

TEST(WeightedGraphTest, CompleteFromWeights) {
  const std::vector<std::vector<double>> bw = {
      {0, 10, 1}, {10, 0, 1}, {1, 1, 0}};
  const WeightedGraph wg = WeightedGraph::CompleteFromWeights(bw);
  EXPECT_EQ(wg.num_vertices(), 3u);
  EXPECT_EQ(wg.Neighbors(0).size(), 2u);
  // Ratios preserved: weight(0,1) / weight(0,2) == 10.
  const auto w0 = wg.EdgeWeights(0);
  EXPECT_NEAR(static_cast<double>(w0[0]) / static_cast<double>(w0[1]), 10.0,
              0.01);
  EXPECT_EQ(wg.TotalVertexWeight(), 3);
}

TEST(BisectionTest, ComputeCutWeight) {
  WeightedGraph wg = TwoCliques(4);
  std::vector<uint8_t> perfect(8, 0);
  for (VertexId v = 4; v < 8; ++v) {
    perfect[v] = 1;
  }
  EXPECT_EQ(ComputeCutWeight(wg, perfect), 1);
  std::vector<uint8_t> all_same(8, 0);
  EXPECT_EQ(ComputeCutWeight(wg, all_same), 0);
}

TEST(BisectionTest, FindsBridgeCut) {
  WeightedGraph wg = TwoCliques(16);
  BisectionOptions options;
  options.seed = 7;
  const BisectionResult result = Bisect(wg, options);
  EXPECT_EQ(result.cut_weight, 1);
  EXPECT_EQ(result.side_weight[0], 16);
  EXPECT_EQ(result.side_weight[1], 16);
  // The two cliques must land on opposite sides, intact.
  for (VertexId v = 1; v < 16; ++v) {
    EXPECT_EQ(result.side[v], result.side[0]);
    EXPECT_EQ(result.side[16 + v], result.side[16]);
  }
  EXPECT_NE(result.side[0], result.side[16]);
}

TEST(BisectionTest, CoarseningPreservesTotals) {
  auto g = GenerateRmat({.num_vertices = 512, .num_edges = 4096, .seed = 2});
  ASSERT_TRUE(g.ok());
  const WeightedGraph wg = WeightedGraph::FromDataGraph(*g);
  std::vector<VertexId> map;
  const WeightedGraph coarse = internal::CoarsenOnce(wg, 11, &map);
  EXPECT_LT(coarse.num_vertices(), wg.num_vertices());
  EXPECT_GE(coarse.num_vertices(), wg.num_vertices() / 2);
  EXPECT_EQ(coarse.TotalVertexWeight(), wg.TotalVertexWeight());
  // Total edge weight is preserved minus collapsed intra-pair edges.
  int64_t fine_total = 0;
  for (int64_t w : wg.edge_weights) {
    fine_total += w;
  }
  int64_t coarse_total = 0;
  for (int64_t w : coarse.edge_weights) {
    coarse_total += w;
  }
  EXPECT_LE(coarse_total, fine_total);
  EXPECT_GT(coarse_total, 0);
  // Every fine vertex maps to a valid coarse vertex.
  for (VertexId c : map) {
    EXPECT_LT(c, coarse.num_vertices());
  }
}

// A 4-cycle whose edges all weigh `w`. Any heavy-edge matching pairs two
// adjacent vertices twice, so the two remaining edges merge into one coarse
// edge of weight 2w.
WeightedGraph FourCycle(int32_t w) {
  WeightedGraph wg;
  wg.offsets = {0, 2, 4, 6, 8};
  wg.neighbors = {1, 3, 0, 2, 1, 3, 0, 2};
  wg.edge_weights.assign(8, w);
  wg.vertex_weights.assign(4, 1);
  return wg;
}

TEST(BisectionTest, CoarseningMergesWeightsUpToTheBound) {
  std::vector<VertexId> map;
  const WeightedGraph coarse = internal::CoarsenOnce(
      FourCycle(static_cast<int32_t>(kMaxEdgeWeight / 2)), 3, &map);
  ASSERT_EQ(coarse.num_vertices(), 2u);
  ASSERT_EQ(coarse.edge_weights.size(), 2u);
  EXPECT_EQ(coarse.edge_weights[0], kMaxEdgeWeight);
  EXPECT_EQ(coarse.edge_weights[1], kMaxEdgeWeight);
}

TEST(BisectionDeathTest, CoarseningRejectsMergedWeightAboveTheBound) {
  // 2 * 2^30 fits the 64-bit accumulator but not the 32-bit edge weights'
  // bound: narrowing it must fail loudly instead of wrapping.
  const WeightedGraph wg = FourCycle(static_cast<int32_t>(kMaxEdgeWeight));
  std::vector<VertexId> map;
  EXPECT_DEATH(internal::CoarsenOnce(wg, 3, &map),
               "exceeds the 32-bit edge-weight bound");
}

// Side weights summed from scratch, for checking a result's recorded ones.
std::pair<int64_t, int64_t> FreshSideWeights(const WeightedGraph& wg,
                                             const std::vector<uint8_t>& side) {
  int64_t w0 = 0;
  int64_t w1 = 0;
  for (VertexId v = 0; v < wg.num_vertices(); ++v) {
    (side[v] == 0 ? w0 : w1) += wg.vertex_weights[v];
  }
  return {w0, w1};
}

// FmRefine reports the cut and side weights it recorded at the best prefix
// rather than rescanning the graph; they must equal a rescan. At 4096
// vertices the last (root-level) refinement's passes end on the stall bound
// rather than the n-move cap.
TEST(BisectionTest, CutConsistentWithSides) {
  for (const VertexId n : {VertexId{1024}, VertexId{4096}}) {
    SCOPED_TRACE("num_vertices=" + std::to_string(n));
    auto g = GenerateRmat({.num_vertices = n, .num_edges = 8 * n, .seed = 5});
    ASSERT_TRUE(g.ok());
    const WeightedGraph wg = WeightedGraph::FromDataGraph(*g);
    BisectionOptions options;
    const BisectionResult result = Bisect(wg, options);
    EXPECT_EQ(result.cut_weight, ComputeCutWeight(wg, result.side));
    const auto [w0, w1] = FreshSideWeights(wg, result.side);
    EXPECT_EQ(result.side_weight[0], w0);
    EXPECT_EQ(result.side_weight[1], w1);
  }
}

class BisectionPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BisectionPropertyTest, BalancedAndBetterThanRandom) {
  auto g = GenerateCompositeSmallWorld({.num_components = 4,
                                        .vertices_per_component = 256,
                                        .edges_per_component = 2048,
                                        .rewire_ratio = 0.05,
                                        .seed = GetParam()});
  ASSERT_TRUE(g.ok());
  const WeightedGraph wg = WeightedGraph::FromDataGraph(*g);
  BisectionOptions options;
  options.seed = GetParam();
  const BisectionResult result = Bisect(wg, options);

  // Balance: within epsilon of half (the giant-vertex caveat aside, these
  // graphs have no vertex heavier than the slack).
  EXPECT_LE(result.Imbalance(), options.balance_epsilon + 0.01);

  // Quality: far better than a random split.
  Rng rng(GetParam() * 17 + 1);
  std::vector<uint8_t> random_side(wg.num_vertices());
  for (auto& s : random_side) {
    s = static_cast<uint8_t>(rng.Uniform(2));
  }
  const int64_t random_cut = ComputeCutWeight(wg, random_side);
  EXPECT_LT(result.cut_weight, random_cut / 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BisectionPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(BisectionTest, FmRefineImprovesBadStart) {
  WeightedGraph wg = TwoCliques(8);
  BisectionResult result;
  // Alternating sides: terrible cut through both cliques.
  result.side.resize(16);
  for (VertexId v = 0; v < 16; ++v) {
    result.side[v] = v % 2;
  }
  result.cut_weight = ComputeCutWeight(wg, result.side);
  result.side_weight[0] = 8;
  result.side_weight[1] = 8;
  const int64_t before = result.cut_weight;
  BisectionOptions options;
  internal::FmRefine(wg, options, &result);
  EXPECT_LT(result.cut_weight, before);
  EXPECT_EQ(result.cut_weight, ComputeCutWeight(wg, result.side));
}

// Every vertex on side 0 is as infeasible as a start gets. Each move off the
// overweight side improves the score and so restarts the stall count, so a
// bounded pass still drains it into balance on a graph large enough for the
// bound to matter.
TEST(BisectionTest, FmRefineRepairsInfeasibleStartUnderStallBound) {
  auto g = GenerateRmat({.num_vertices = 2048, .num_edges = 16384, .seed = 3});
  ASSERT_TRUE(g.ok());
  const WeightedGraph wg = WeightedGraph::FromDataGraph(*g);
  BisectionResult result;
  result.side.assign(wg.num_vertices(), 0);
  result.cut_weight = 0;
  result.side_weight[0] = wg.TotalVertexWeight();
  result.side_weight[1] = 0;
  BisectionOptions options;
  EXPECT_GE(internal::FmRefine(wg, options, &result), 1u);
  EXPECT_LE(result.Imbalance(), options.balance_epsilon);
  EXPECT_GT(result.side_weight[1], 0);
  EXPECT_EQ(result.cut_weight, ComputeCutWeight(wg, result.side));
  const auto [w0, w1] = FreshSideWeights(wg, result.side);
  EXPECT_EQ(result.side_weight[0], w0);
  EXPECT_EQ(result.side_weight[1], w1);
}

TEST(BisectionTest, HandlesTinyGraphs) {
  // Two vertices, one edge.
  GraphBuilder builder(2);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  const WeightedGraph wg =
      WeightedGraph::FromDataGraph(std::move(builder).Build());
  const BisectionResult result = Bisect(wg, BisectionOptions{});
  EXPECT_EQ(result.side.size(), 2u);
  EXPECT_NE(result.side[0], result.side[1]);
}

TEST(BisectionTest, HandlesDisconnectedGraph) {
  // Four isolated vertices: any balanced split has cut 0.
  GraphBuilder builder(4);
  const WeightedGraph wg =
      WeightedGraph::FromDataGraph(std::move(builder).Build());
  const BisectionResult result = Bisect(wg, BisectionOptions{});
  EXPECT_EQ(result.cut_weight, 0);
  // Note: stored-record weights are uniform for isolated vertices.
  EXPECT_EQ(result.side_weight[0], result.side_weight[1]);
}

}  // namespace
}  // namespace surfer

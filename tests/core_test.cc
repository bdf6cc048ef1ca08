#include <gtest/gtest.h>

#include "bench/bench_common.h"
#include "core/sim_scale.h"
#include "core/surfer.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "partition/recursive_partitioner.h"

namespace surfer {
namespace {

Graph TestGraph() {
  auto g = GenerateSocialGraph({.num_vertices = 1 << 11,
                                .avg_out_degree = 8.0,
                                .num_communities = 8,
                                .seed = 12});
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(SurferEngineTest, BuildsWithExplicitPartitions) {
  const Graph g = TestGraph();
  SurferOptions options;
  options.num_partitions = 8;
  auto engine = SurferEngine::Build(g, Topology::T1(4), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->num_partitions(), 8u);
  EXPECT_EQ((*engine)->partitioned_graph().num_partitions(), 8u);
  EXPECT_EQ((*engine)->bandwidth_aware_placement().num_partitions(), 8u);
  EXPECT_EQ((*engine)->random_placement().num_partitions(), 8u);
  EXPECT_GT((*engine)->quality().inner_edge_ratio, 0.0);
}

TEST(SurferEngineTest, DerivesPartitionCountFromMemoryRule) {
  const Graph g = TestGraph();
  SurferOptions options;
  options.num_partitions = 0;
  options.partition_memory_budget = g.StoredBytes() / 5;  // forces P = 8
  auto engine = SurferEngine::Build(g, Topology::T1(4), options);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->num_partitions(), 8u);
}

TEST(SurferEngineTest, MinPartitionsFloorApplies) {
  const Graph g = TestGraph();
  SurferOptions options;
  options.num_partitions = 0;
  options.partition_memory_budget = 1ull << 40;  // graph fits in one
  options.min_partitions = 4;
  auto engine = SurferEngine::Build(g, Topology::T1(4), options);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->num_partitions(), 4u);
}

TEST(SurferEngineTest, RejectsBadInputs) {
  SurferOptions options;
  options.num_partitions = 8;
  EXPECT_FALSE(SurferEngine::Build(Graph{}, Topology::T1(4), options).ok());
  const Graph g = TestGraph();
  options.num_partitions = 6;  // not a power of two
  EXPECT_FALSE(SurferEngine::Build(g, Topology::T1(4), options).ok());
}

TEST(SurferEngineTest, SetupsPointAtTheRightLayout) {
  const Graph g = TestGraph();
  SurferOptions options;
  options.num_partitions = 8;
  auto engine = SurferEngine::Build(g, Topology::T2(8, 2, 1), options);
  ASSERT_TRUE(engine.ok());
  const BenchmarkSetup o1 = (*engine)->MakeSetup(OptimizationLevel::kO1);
  const BenchmarkSetup o2 = (*engine)->MakeSetup(OptimizationLevel::kO2);
  const BenchmarkSetup o3 = (*engine)->MakeSetup(OptimizationLevel::kO3);
  const BenchmarkSetup o4 = (*engine)->MakeSetup(OptimizationLevel::kO4);
  EXPECT_EQ(o1.placement, &(*engine)->random_placement());
  EXPECT_EQ(o3.placement, &(*engine)->random_placement());
  EXPECT_EQ(o2.placement, &(*engine)->bandwidth_aware_placement());
  EXPECT_EQ(o4.placement, &(*engine)->bandwidth_aware_placement());
  EXPECT_EQ(o1.graph, &(*engine)->partitioned_graph());
  EXPECT_EQ(o1.topology, &(*engine)->topology());
}

TEST(SurferEngineTest, PartitionCountCappedByVertices) {
  // A tiny graph cannot have more partitions than vertices.
  GraphBuilder builder(8);
  for (VertexId v = 0; v + 1 < 8; ++v) {
    ASSERT_TRUE(builder.AddEdge(v, v + 1).ok());
  }
  const Graph g = std::move(builder).Build();
  SurferOptions options;
  options.num_partitions = 0;
  options.partition_memory_budget = 1;  // absurdly small: huge derived P
  auto engine = SurferEngine::Build(g, Topology::T1(2), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_LE((*engine)->num_partitions(), 8u);
}

TEST(SurferEngineTest, BuildPartitionMatchesSequentialReference) {
  // Build runs the partitioner at its default thread count, with the root
  // bisected in place; it must reproduce the sequential path bit for bit.
  bench::BenchGraphOptions graph_options;
  graph_options.num_vertices = 1 << 12;
  const Graph g = bench::MakeBenchGraph(graph_options);
  SurferOptions options;
  options.num_partitions = 64;
  options.seed = 5;
  auto engine = SurferEngine::Build(g, Topology::T2(8, 2, 1), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  RecursivePartitionerOptions reference_options;
  reference_options.num_partitions = 64;
  reference_options.bisection = options.bisection;
  reference_options.bisection.seed = options.seed;
  reference_options.num_threads = 0;
  auto reference = RecursivePartition(g, reference_options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  EXPECT_EQ((*engine)->partitioning().assignment,
            reference->partitioning.assignment);
  const PartitionSketch& sketch = (*engine)->sketch();
  for (uint32_t node = 1; node < 64; ++node) {
    EXPECT_EQ(sketch.BisectionCut(node), reference->sketch.BisectionCut(node))
        << "node " << node;
  }
}

TEST(OptimizationLevelTest, NamesAndFlags) {
  EXPECT_EQ(OptimizationLevelName(OptimizationLevel::kO1), "O1");
  EXPECT_EQ(OptimizationLevelName(OptimizationLevel::kO4), "O4");
  EXPECT_FALSE(UsesBandwidthAwareLayout(OptimizationLevel::kO1));
  EXPECT_TRUE(UsesBandwidthAwareLayout(OptimizationLevel::kO2));
  EXPECT_FALSE(UsesLocalOptimizations(OptimizationLevel::kO2));
  EXPECT_TRUE(UsesLocalOptimizations(OptimizationLevel::kO3));
  const PropagationConfig c1 = PropagationConfig::ForLevel(OptimizationLevel::kO1);
  EXPECT_FALSE(c1.local_propagation);
  EXPECT_FALSE(c1.local_combination);
  const PropagationConfig c4 = PropagationConfig::ForLevel(OptimizationLevel::kO4);
  EXPECT_TRUE(c4.local_propagation);
  EXPECT_TRUE(c4.local_combination);
}

}  // namespace
}  // namespace surfer

#include <algorithm>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "partition/recursive_partitioner.h"
#include "storage/partition_store.h"
#include "storage/replication.h"

namespace surfer {
namespace {

class PartitionStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("surfer_store_test_" + std::to_string(::getpid())))
               .string();

    auto g = GenerateCompositeSmallWorld({.num_components = 4,
                                          .vertices_per_component = 128,
                                          .edges_per_component = 1024,
                                          .rewire_ratio = 0.05,
                                          .seed = 61});
    ASSERT_TRUE(g.ok());
    graph_ = std::move(g).value();
    RecursivePartitionerOptions options;
    options.num_partitions = 8;
    auto result = RecursivePartition(graph_, options);
    ASSERT_TRUE(result.ok());
    auto pg = PartitionedGraph::Create(graph_, result->partitioning);
    ASSERT_TRUE(pg.ok());
    pg_ = std::make_unique<PartitionedGraph>(std::move(pg).value());

    const Topology topo = Topology::T2(8, 2, 1);
    std::vector<MachineId> primary;
    for (PartitionId p = 0; p < 8; ++p) {
      primary.push_back(p % 8);
    }
    auto placement = MakeReplicatedPlacement(primary, topo, 4);
    ASSERT_TRUE(placement.ok());
    placement_ = std::move(placement).value();
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  Graph graph_;
  std::unique_ptr<PartitionedGraph> pg_;
  ReplicatedPlacement placement_;
};

/// Checks an encoding's owner table for every ID in [0, n] against its
/// definition: the last range start <= the ID.
void ExpectOwnersMatchStarts(const VertexEncoding& enc) {
  const std::vector<VertexId>& starts = enc.starts();
  for (VertexId e = 0; e <= enc.num_vertices(); ++e) {
    const auto it = std::upper_bound(starts.begin(), starts.end(), e);
    ASSERT_EQ(enc.PartitionOf(e),
              static_cast<PartitionId>(it - starts.begin()) - 1)
        << "id " << e;
  }
}

TEST_F(PartitionStoreTest, RoundTripPreservesEverything) {
  ASSERT_TRUE(PartitionStore::Write(*pg_, placement_, dir_).ok());
  auto loaded = PartitionStore::Load(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const PartitionedGraph& reloaded = loaded->graph;
  EXPECT_EQ(reloaded.encoded_graph(), pg_->encoded_graph());
  EXPECT_EQ(reloaded.num_partitions(), pg_->num_partitions());
  for (PartitionId p = 0; p < pg_->num_partitions(); ++p) {
    const PartitionMeta& original = pg_->partition(p);
    const PartitionMeta& restored = reloaded.partition(p);
    EXPECT_EQ(restored.begin, original.begin);
    EXPECT_EQ(restored.end, original.end);
    // Derived data is recomputed, so it must match exactly.
    EXPECT_EQ(restored.inner_edges, original.inner_edges);
    EXPECT_EQ(restored.cross_out_edges, original.cross_out_edges);
    EXPECT_EQ(restored.boundary, original.boundary);
  }
  // Encoding round trip.
  for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
    EXPECT_EQ(reloaded.encoding().ToEncoded(v), pg_->encoding().ToEncoded(v));
  }
  ExpectOwnersMatchStarts(reloaded.encoding());
  // Placement survives.
  EXPECT_EQ(loaded->placement.replicas, placement_.replicas);
}

TEST_F(PartitionStoreTest, RoundTripRederivesTheOwnerTable) {
  // The store keeps only the range starts; a load rebuilds the owner table.
  // Partitions 0 (front), 3 and 4 (middle) and 7 (end) are left empty.
  const PartitionId used[] = {1, 2, 5, 6};
  Partitioning partitioning;
  partitioning.num_partitions = 8;
  for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
    partitioning.assignment.push_back(used[v % 4]);
  }
  auto pg = PartitionedGraph::Create(graph_, partitioning);
  ASSERT_TRUE(pg.ok());
  ExpectOwnersMatchStarts(pg->encoding());
  ASSERT_TRUE(PartitionStore::Write(*pg, placement_, dir_).ok());
  auto loaded = PartitionStore::Load(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const VertexEncoding& enc = loaded->graph.encoding();
  EXPECT_EQ(enc.starts(), pg->encoding().starts());
  ExpectOwnersMatchStarts(enc);
  for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
    EXPECT_EQ(enc.PartitionOf(enc.ToEncoded(v)), partitioning.assignment[v]);
  }
}

TEST_F(PartitionStoreTest, LoadPartitionRows) {
  ASSERT_TRUE(PartitionStore::Write(*pg_, placement_, dir_).ok());
  const PartitionMeta& meta = pg_->partition(3);
  auto rows = PartitionStore::LoadPartitionRows(dir_, 3);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->num_vertices(), pg_->encoded_graph().num_vertices());
  for (VertexId v = 0; v < rows->num_vertices(); ++v) {
    if (v >= meta.begin && v < meta.end) {
      EXPECT_EQ(rows->OutDegree(v), pg_->encoded_graph().OutDegree(v));
    } else {
      EXPECT_EQ(rows->OutDegree(v), 0u);
    }
  }
  EXPECT_FALSE(PartitionStore::LoadPartitionRows(dir_, 99).ok());
}

TEST_F(PartitionStoreTest, LoadMissingDirectoryFails) {
  auto result = PartitionStore::Load(dir_ + "_nope");
  EXPECT_FALSE(result.ok());
}

TEST_F(PartitionStoreTest, CorruptManifestRejected) {
  ASSERT_TRUE(PartitionStore::Write(*pg_, placement_, dir_).ok());
  std::ofstream out(dir_ + "/MANIFEST", std::ios::trunc);
  out << "not a manifest\n";
  out.close();
  EXPECT_FALSE(PartitionStore::Load(dir_).ok());
}

TEST_F(PartitionStoreTest, TruncatedPartitionRejected) {
  ASSERT_TRUE(PartitionStore::Write(*pg_, placement_, dir_).ok());
  const std::string victim = dir_ + "/partition-0002.bin";
  const auto size = std::filesystem::file_size(victim);
  std::filesystem::resize_file(victim, size / 2);
  auto result = PartitionStore::Load(dir_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST_F(PartitionStoreTest, MismatchedPlacementRejected) {
  ReplicatedPlacement wrong;
  wrong.replicas.resize(3);  // graph has 8 partitions
  EXPECT_FALSE(PartitionStore::Write(*pg_, wrong, dir_).ok());
}

TEST(VertexEncodingFromMappingTest, Validation) {
  // Not a permutation.
  EXPECT_FALSE(VertexEncoding::FromMapping({0, 0, 1}, {0, 3}).ok());
  // Starts do not tile.
  EXPECT_FALSE(VertexEncoding::FromMapping({0, 1, 2}, {0, 2}).ok());
  EXPECT_FALSE(VertexEncoding::FromMapping({0, 1, 2}, {1, 3}).ok());
  // Good.
  auto enc = VertexEncoding::FromMapping({2, 0, 1}, {0, 1, 3});
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(enc->ToOriginal(0), 2u);
  EXPECT_EQ(enc->ToEncoded(2), 0u);
  EXPECT_EQ(enc->PartitionOf(0), 0u);
  EXPECT_EQ(enc->PartitionOf(2), 1u);
}

}  // namespace
}  // namespace surfer

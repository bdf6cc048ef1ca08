#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "propagation/app_traits.h"
#include "runtime/wire_batch.h"

namespace surfer {
namespace runtime {
namespace {

/// Minimal mergeable app for staging tests: uint32 messages, Merge = sum.
struct SumApp {
  using VertexState = uint32_t;
  using Message = uint32_t;

  VertexState InitState(VertexId v, std::span<const VertexId>) const {
    return v;
  }
  void Transfer(VertexId, const VertexState&, std::span<const VertexId>,
                PropagationEmitter<Message>&) const {}
  void Combine(VertexId, VertexState& state, std::span<const VertexId>,
               std::vector<Message>& messages) const {
    for (Message m : messages) {
      state += m;
    }
  }
  Message Merge(const Message& a, const Message& b) const { return a + b; }
  size_t MessageBytes(const Message&) const { return sizeof(Message); }
  size_t StateBytes(const VertexState&) const { return sizeof(VertexState); }
};
static_assert(PropagationApp<SumApp>);
static_assert(MergeableApp<SumApp>);
static_assert(WireSerializableApp<SumApp>);

using Real = std::vector<std::pair<VertexId, uint32_t>>;
using Virtual = std::vector<std::pair<uint64_t, uint32_t>>;

/// Eight partitions of 100 vertices: partition d owns [100 d, 100 d + 100).
const std::vector<VertexId> kStarts = {0,   100, 200, 300, 400,
                                       500, 600, 700, 800};

/// Stages one task through a fresh stager and collects every sealed batch.
struct Harness {
  SumApp app;
  WireBufferPool pool;
  WireBatchOptions options;
  std::vector<WireBatch> sent;

  explicit Harness(WireBatchOptions opts = {}) : options(opts) {}

  WireStager<SumApp> MakeStager(bool combine = true) {
    return WireStager<SumApp>(&app, options, &pool, /*src_machine=*/0,
                              /*num_machines=*/4, combine, kStarts);
  }
  /// Segment record counts of every sent batch, in order.
  std::vector<uint32_t> SegmentCounts() const {
    std::vector<uint32_t> counts;
    for (const WireBatch& batch : sent) {
      WireBatchReader<uint32_t> reader(batch);
      while (auto segment = reader.Next()) {
        counts.push_back(segment->header.count);
      }
    }
    return counts;
  }
  auto Sender() {
    return [this](WireBatch&& batch) {
      sent.push_back(std::move(batch));
      return 0.0;
    };
  }
  /// Decodes all sent batches back into per-kind record streams,
  /// concatenating chunked segments in arrival order.
  std::pair<Real, Virtual> Decode() const {
    Real real;
    Virtual virtuals;
    for (const WireBatch& batch : sent) {
      WireBatchReader<uint32_t> reader(batch);
      while (auto segment = reader.Next()) {
        real.insert(real.end(), segment->real.begin(), segment->real.end());
        virtuals.insert(virtuals.end(), segment->virtuals.begin(),
                        segment->virtuals.end());
      }
    }
    return {std::move(real), std::move(virtuals)};
  }
};

// ------------------------------------------------------- round trips

TEST(WireBatchTest, EmptyTaskSealsNothing) {
  Harness h;
  WireStager<SumApp> stager = h.MakeStager();
  Real real;
  Virtual virtuals;
  stager.StageTask(0, 1, /*dst_machine=*/1, real, virtuals, h.Sender());
  stager.FlushAll(h.Sender());
  EXPECT_TRUE(h.sent.empty());
  EXPECT_EQ(stager.stats().wire_batches_sent, 0u);
  EXPECT_EQ(stager.stats().wire_segments_sent, 0u);
}

TEST(WireBatchTest, SingleMessageRoundTrip) {
  Harness h;
  WireStager<SumApp> stager = h.MakeStager();
  Real real = {{VertexId{542}, 7u}};
  Virtual virtuals;
  stager.StageTask(3, 5, /*dst_machine=*/2, real, virtuals, h.Sender());
  stager.FlushAll(h.Sender());

  ASSERT_EQ(h.sent.size(), 1u);
  const WireBatch& batch = h.sent[0];
  EXPECT_EQ(batch.src_machine, 0u);
  EXPECT_EQ(batch.dst_machine, 2u);
  EXPECT_EQ(batch.num_segments, 1u);
  EXPECT_EQ(batch.num_messages, 1u);
  EXPECT_EQ(batch.priced_bytes, sizeof(uint32_t));
  WireBatchReader<uint32_t> reader(batch);
  auto segment = reader.Next();
  ASSERT_TRUE(segment.has_value());
  EXPECT_EQ(segment->header.src_partition, 3u);
  EXPECT_EQ(segment->header.dst_partition, 5u);
  EXPECT_EQ(segment->header.kind, kWireSegmentReal);
  ASSERT_EQ(segment->real.size(), 1u);
  EXPECT_EQ(segment->real[0], (std::pair<VertexId, uint32_t>{542u, 7u}));
  EXPECT_FALSE(reader.Next().has_value());
}

TEST(WireBatchTest, VirtualRecordsRoundTripWith64BitTargets) {
  Harness h;
  WireStager<SumApp> stager = h.MakeStager();
  Real real = {{201u, 10u}};
  Virtual virtuals = {{1ull << 40, 3u}, {7u, 4u}};
  stager.StageTask(0, 2, /*dst_machine=*/1, real, virtuals, h.Sender());
  stager.FlushAll(h.Sender());

  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.sent[0].num_segments, 2u);  // one real + one virtual
  auto [got_real, got_virtual] = h.Decode();
  EXPECT_EQ(got_real, (Real{{201u, 10u}}));
  EXPECT_EQ(got_virtual, (Virtual{{1ull << 40, 3u}, {7u, 4u}}));
}

TEST(WireBatchTest, FullBatchChunksStreamAcrossBatchesLosslessly) {
  // Caps that fit only a few 8-byte records force mid-stream size flushes:
  // each stream must arrive chunked but complete, in order, with the priced
  // bytes preserved across chunks. A 3-record stream then a 10-record
  // stream go to one machine; the pinned chunkings are those of a
  // record-at-a-time encoder (write a segment's first record always, each
  // later one only while it fits).
  constexpr size_t kHeader = sizeof(WireSegmentHeader);
  constexpr size_t kRecord = sizeof(VertexId) + sizeof(uint32_t);
  const struct {
    const char* name;
    size_t cap;
    std::vector<uint32_t> segment_counts;
    std::vector<uint64_t> batch_priced;
    uint64_t flush_size;
  } cases[] = {
      {"filled exactly", kHeader + 4 * kRecord, {3, 4, 4, 2},
       {12, 16, 16, 8}, 3},
      {"one record short", kHeader + 4 * kRecord - 1, {3, 3, 3, 3, 1},
       {12, 12, 12, 12, 4}, 4},
      {"below header plus one record", kHeader + kRecord - 1,
       std::vector<uint32_t>(13, 1), std::vector<uint64_t>(13, 4), 12},
      {"second stream continues an open batch", 2 * kHeader + 8 * kRecord,
       {3, 5, 5}, {32, 20}, 1},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    WireBatchOptions options;
    options.max_batch_bytes = c.cap;
    Harness h(options);
    WireStager<SumApp> stager = h.MakeStager();
    Real expected;
    Virtual virtuals;
    for (const auto& [dst, size] : {std::pair<PartitionId, uint32_t>{3, 3},
                                    std::pair<PartitionId, uint32_t>{2, 10}}) {
      Real real;
      for (uint32_t i = 0; i < size; ++i) {
        real.emplace_back(VertexId{dst * 100 + i}, i * 2 + 1);
      }
      expected.insert(expected.end(), real.begin(), real.end());
      stager.StageTask(1, dst, /*dst_machine=*/3, real, virtuals, h.Sender());
    }
    stager.FlushAll(h.Sender());

    EXPECT_EQ(h.SegmentCounts(), c.segment_counts);
    std::vector<uint64_t> priced;
    for (const WireBatch& batch : h.sent) {
      // A batch exceeds the cap only to carry its one record.
      EXPECT_LE(batch.wire_size(), std::max(c.cap, kHeader + kRecord));
      priced.push_back(batch.priced_bytes);
    }
    EXPECT_EQ(priced, c.batch_priced);
    EXPECT_EQ(stager.stats().wire_flush_size, c.flush_size);
    EXPECT_EQ(stager.stats().wire_flush_stage_end, 1u);
    auto [got_real, got_virtual] = h.Decode();
    EXPECT_EQ(got_real, expected);
    EXPECT_TRUE(got_virtual.empty());
  }
}

// --------------------------------------------------- wire combination

TEST(WireBatchTest, StageTaskMergesDuplicateTargetsBeforePricing) {
  Harness h;
  WireStager<SumApp> stager = h.MakeStager(/*combine=*/true);
  Real real = {{105u, 1u}, {109u, 10u}, {105u, 2u}, {105u, 4u}};
  Virtual virtuals = {{77u, 1u}, {77u, 1u}};
  stager.StageTask(0, 1, /*dst_machine=*/1, real, virtuals, h.Sender());
  stager.FlushAll(h.Sender());

  // Two real duplicates and one virtual one.
  EXPECT_EQ(stager.stats().wire_messages_combined, 3u);
  ASSERT_EQ(h.sent.size(), 1u);
  // 4 + 2 records collapse to 2 + 1; only post-merge records are priced.
  EXPECT_EQ(h.sent[0].num_messages, 3u);
  EXPECT_EQ(h.sent[0].priced_bytes, 3 * sizeof(uint32_t));
  auto [got_real, got_virtual] = h.Decode();
  // 1+2+4 merged by sum, in first-occurrence order.
  EXPECT_EQ(got_real, (Real{{105u, 7u}, {109u, 10u}}));
  EXPECT_EQ(got_virtual, (Virtual{{77u, 2u}}));
}

TEST(WireBatchTest, CombineOffKeepsEveryRecord) {
  Harness h;
  WireStager<SumApp> stager = h.MakeStager(/*combine=*/false);
  Real real = {{105u, 1u}, {105u, 2u}, {105u, 4u}};
  Virtual virtuals;
  stager.StageTask(0, 1, /*dst_machine=*/1, real, virtuals, h.Sender());
  stager.FlushAll(h.Sender());
  EXPECT_EQ(stager.stats().wire_messages_combined, 0u);
  auto [got_real, got_virtual] = h.Decode();
  EXPECT_EQ(got_real, (Real{{105u, 1u}, {105u, 2u}, {105u, 4u}}));
}

/// Mergeable app with double messages, Merge = +: floating-point addition
/// is not associative, so a merged value reveals its fold order.
struct DoubleSumApp {
  using VertexState = double;
  using Message = double;

  VertexState InitState(VertexId, std::span<const VertexId>) const {
    return 0.0;
  }
  void Transfer(VertexId, const VertexState&, std::span<const VertexId>,
                PropagationEmitter<Message>&) const {}
  void Combine(VertexId, VertexState&, std::span<const VertexId>,
               std::vector<Message>&) const {}
  Message Merge(const Message& a, const Message& b) const { return a + b; }
  size_t MessageBytes(const Message&) const { return sizeof(Message); }
  size_t StateBytes(const VertexState&) const { return sizeof(VertexState); }
};
static_assert(MergeableApp<DoubleSumApp>);

TEST(WireBatchTest, MergeFoldsInEmissionOrderAndResetsSlotsBetweenStreams) {
  // Left fold in emission order: ((1e16 + 1) + -1e16) + 1 == 1, because
  // 1e16 + 1 rounds back to 1e16. Any other order gives 0 or 2.
  const double left_fold = ((1e16 + 1.0) + -1e16) + 1.0;
  ASSERT_EQ(left_fold, 1.0);
  ASSERT_NE(left_fold, (1e16 + -1e16) + (1.0 + 1.0));
  using Records = std::vector<std::pair<VertexId, double>>;
  using VirtualRecords = std::vector<std::pair<uint64_t, double>>;
  // p0 owns [0, 8), p1 owns [8, 16), p2 owns [16, 18). The p1 stream reuses
  // p0's offsets 0, 3 and 7 (each partition's first and last vertex), so a
  // slot left over from the p0 stream would fold a p1 record into the
  // wrong output position. Real targets merge through the dense slot
  // table, virtual ones (ID x belongs to partition x % 3) through the hash
  // map; both must fold the same way.
  const std::vector<VertexId> starts = {0, 8, 16, 18};
  const struct {
    PartitionId dst;
    Records emitted;
    Records merged;
    VirtualRecords virtual_emitted;
    VirtualRecords virtual_merged;
  } streams[] = {
      {0,
       {{7, 1e16}, {0, 5.0}, {7, 1.0}, {3, 2.0}, {7, -1e16}, {0, 0.25},
        {7, 1.0}},
       {{7, left_fold}, {0, 5.25}, {3, 2.0}},
       {{9, 1e16}, {6, 1.0}, {9, 1.0}, {9, -1e16}, {9, 1.0}},
       {{9, left_fold}, {6, 1.0}}},
      {1,
       {{15, 3.0}, {8, 1.0}, {12, 0.5}, {11, 4.0}},
       {{15, 3.0}, {8, 1.0}, {12, 0.5}, {11, 4.0}},
       {},
       {}},
      {0, {{0, 1.0}, {0, 2.0}, {7, 1.0}}, {{0, 3.0}, {7, 1.0}}, {}, {}},
      {2, {{17, 1.0}, {16, 1.0}, {17, 2.0}}, {{17, 3.0}, {16, 1.0}}, {}, {}},
  };
  DoubleSumApp app;
  WireBufferPool pool;
  WireStager<DoubleSumApp> stager(&app, WireBatchOptions{}, &pool,
                                  /*src_machine=*/0, /*num_machines=*/2,
                                  /*combine=*/true, starts);
  std::vector<WireBatch> sent;
  auto send = [&](WireBatch&& batch) {
    sent.push_back(std::move(batch));
    return 0.0;
  };
  uint64_t combined = 0;
  for (const auto& stream : streams) {
    Records real = stream.emitted;
    VirtualRecords virtuals = stream.virtual_emitted;
    stager.StageTask(/*src=*/1, stream.dst, /*dst_machine=*/1, real, virtuals,
                     send);
    combined += stream.emitted.size() - stream.merged.size() +
                stream.virtual_emitted.size() - stream.virtual_merged.size();
    EXPECT_EQ(stager.stats().wire_messages_combined, combined);
  }
  stager.FlushAll(send);

  // Byte-for-byte equality of each merged value, in first-occurrence order.
  auto expect_bits = [](const auto& got, const auto& want) {
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].first, want[i].first);
      EXPECT_EQ(std::memcmp(&got[i].second, &want[i].second, sizeof(double)),
                0)
          << "target " << want[i].first << ": got " << got[i].second;
    }
  };
  ASSERT_EQ(sent.size(), 1u);
  WireBatchReader<double> reader(sent[0], starts);
  for (const auto& stream : streams) {
    auto segment = reader.Next();
    ASSERT_TRUE(segment.has_value());
    EXPECT_EQ(segment->header.dst_partition, stream.dst);
    expect_bits(segment->real, stream.merged);
    if (!stream.virtual_merged.empty()) {
      segment = reader.Next();
      ASSERT_TRUE(segment.has_value());
      expect_bits(segment->virtuals, stream.virtual_merged);
    }
  }
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_TRUE(reader.status().ok());
}

// ------------------------------------------------------- flush policy

TEST(WireBatchTest, DeadlineFlushShipsIdleBatches) {
  WireBatchOptions options;
  options.flush_deadline_seconds = 0.0;  // everything is instantly overdue
  Harness h(options);
  WireStager<SumApp> stager = h.MakeStager();
  Real real = {{101u, 1u}};
  Virtual virtuals;
  stager.StageTask(0, 1, /*dst_machine=*/1, real, virtuals, h.Sender());
  EXPECT_TRUE(h.sent.empty());  // still open after the task
  stager.FlushExpired(h.Sender());
  EXPECT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(stager.stats().wire_flush_deadline, 1u);
  EXPECT_EQ(stager.stats().wire_flush_stage_end, 0u);
  stager.FlushExpired(h.Sender());  // nothing left open
  EXPECT_EQ(h.sent.size(), 1u);
}

TEST(WireBatchTest, StageEndFlushSealsEveryOpenDestination) {
  Harness h;
  WireStager<SumApp> stager = h.MakeStager();
  Virtual virtuals;
  for (MachineId dst = 1; dst < 4; ++dst) {
    Real real = {{dst * 100, dst}};
    stager.StageTask(0, dst, dst, real, virtuals, h.Sender());
  }
  EXPECT_TRUE(h.sent.empty());
  stager.FlushAll(h.Sender());
  EXPECT_EQ(h.sent.size(), 3u);
  EXPECT_EQ(stager.stats().wire_flush_stage_end, 3u);
  EXPECT_EQ(stager.stats().wire_batches_sent, 3u);
}

// ------------------------------------------------------ hostile input

/// One real segment for destination `dst` claiming `count` records, followed
/// by `records`, cut to `keep` bytes. The payload holds no spare capacity, so
/// ASan sees any read past it.
template <typename Records>
WireBatch CraftSegment(uint32_t dst, uint32_t count, const Records& records,
                       size_t keep, uint32_t kind) {
  WireSegmentHeader header;
  header.dst_partition = dst;
  header.kind = kind;
  header.count = count;
  WireBatch batch;
  AppendPod(batch.payload, header);
  for (const auto& [target, value] : records) {
    AppendPod(batch.payload, target);
    AppendPod(batch.payload, value);
  }
  batch.payload.resize(std::min(keep, batch.payload.size()));
  batch.payload.shrink_to_fit();
  return batch;
}

WireBatch CraftBatch(uint32_t dst, uint32_t count, const Real& records,
                     size_t keep = SIZE_MAX, uint32_t kind = kWireSegmentReal) {
  return CraftSegment(dst, count, records, keep, kind);
}

/// One virtual segment for `dst` holding `records`.
WireBatch CraftVirtualBatch(uint32_t dst, const Virtual& records) {
  return CraftSegment(dst, static_cast<uint32_t>(records.size()), records,
                      SIZE_MAX, kWireSegmentVirtual);
}

TEST(WireBatchTest, MalformedBatchesAreCorruption) {
  // Two partitions: p0 owns vertices [0, 10), p1 owns [10, 20). The
  // structural cases decode without the fenceposts, so only the check under
  // test can reject them.
  const std::vector<VertexId> starts = {0, 10, 20};
  const struct {
    const char* name;
    WireBatch batch;
    bool bounded;
  } cases[] = {
      {"count overruns the payload", CraftBatch(1, 4, {{12u, 1u}}), false},
      {"truncated header",
       CraftBatch(1, 0, {}, sizeof(WireSegmentHeader) - 1), false},
      {"unknown kind", CraftBatch(1, 0, {}, SIZE_MAX, /*kind=*/7), false},
      {"destination partition out of range", CraftBatch(2, 1, {{12u, 1u}}),
       true},
      {"real target outside the destination", CraftBatch(1, 1, {{3u, 1u}}),
       true},
      // Virtual ID x belongs to partition x % 2; 4 is not p1's.
      {"virtual target routed to the wrong partition",
       CraftVirtualBatch(1, {{5u, 1u}, {4u, 1u}}), true},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    WireBatchReader<uint32_t> reader(
        c.batch, c.bounded ? std::span<const VertexId>(starts)
                           : std::span<const VertexId>());
    WireBatchReader<uint32_t>::Segment segment;
    EXPECT_FALSE(reader.NextInto(segment));
    EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
    EXPECT_TRUE(segment.real.empty());
    EXPECT_TRUE(segment.virtuals.empty());
    EXPECT_FALSE(reader.NextInto(segment));  // stays stopped
  }

  const WireBatch good = CraftBatch(1, 1, {{12u, 1u}});
  WireBatchReader<uint32_t> reader(good, starts);
  auto segment = reader.Next();
  ASSERT_TRUE(segment.has_value());
  EXPECT_EQ(segment->real, (Real{{12u, 1u}}));
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_TRUE(reader.status().ok());

  const WireBatch good_virtual =
      CraftVirtualBatch(1, {{5u, 1u}, {(1ull << 40) + 1, 2u}});
  WireBatchReader<uint32_t> virtual_reader(good_virtual, starts);
  segment = virtual_reader.Next();
  ASSERT_TRUE(segment.has_value());
  EXPECT_EQ(segment->virtuals, (Virtual{{5u, 1u}, {(1ull << 40) + 1, 2u}}));
  EXPECT_TRUE(virtual_reader.status().ok());
}

// ------------------------------------------------------- buffer pool

TEST(WireBufferPoolTest, RecyclesAllocationsWithoutLeakingOldBytes) {
  WireBufferPool pool;
  std::vector<uint8_t> buffer = pool.Acquire();
  EXPECT_EQ(pool.stats().acquires, 1u);
  EXPECT_EQ(pool.stats().reuses, 0u);

  buffer.assign(1024, 0xAB);
  const uint8_t* allocation = buffer.data();
  pool.Release(std::move(buffer));

  std::vector<uint8_t> recycled = pool.Acquire();
  EXPECT_EQ(pool.stats().acquires, 2u);
  EXPECT_EQ(pool.stats().reuses, 1u);
  // Same allocation back (capacity retained), handed out empty.
  EXPECT_EQ(recycled.data(), allocation);
  EXPECT_TRUE(recycled.empty());
  EXPECT_GE(recycled.capacity(), 1024u);
  // Growing it again must never expose the previous batch's bytes: the
  // release path poisons the stored contents with 0xDD and re-extension
  // value-initializes, so 0xAB is unrecoverable.
  recycled.resize(1024);
  for (uint8_t byte : recycled) {
    ASSERT_NE(byte, 0xAB);
  }
  pool.Release(std::move(recycled));
}

TEST(WireBufferPoolTest, EmptyBuffersAreNotPooled) {
  WireBufferPool pool;
  pool.Release(std::vector<uint8_t>{});  // capacity 0: nothing worth keeping
  std::vector<uint8_t> buffer = pool.Acquire();
  EXPECT_EQ(pool.stats().reuses, 0u);
  EXPECT_EQ(buffer.capacity(), 0u);
}

}  // namespace
}  // namespace runtime
}  // namespace surfer

#include <algorithm>
#include <cstdint>
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

/// Stages one task through a fresh stager and collects every sealed batch.
struct Harness {
  SumApp app;
  WireBufferPool pool;
  WireBatchOptions options;
  std::vector<WireBatch> sent;

  explicit Harness(WireBatchOptions opts = {}) : options(opts) {}

  WireStager<SumApp> MakeStager(bool combine = true) {
    return WireStager<SumApp>(&app, options, &pool, /*src_machine=*/0,
                              /*num_machines=*/4, combine);
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
  EXPECT_EQ(stager.stats().batches_sealed, 0u);
  EXPECT_EQ(stager.stats().segments_sealed, 0u);
}

TEST(WireBatchTest, SingleMessageRoundTrip) {
  Harness h;
  WireStager<SumApp> stager = h.MakeStager();
  Real real = {{VertexId{42}, 7u}};
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
  EXPECT_EQ(segment->real[0], (std::pair<VertexId, uint32_t>{42u, 7u}));
  EXPECT_FALSE(reader.Next().has_value());
}

TEST(WireBatchTest, VirtualRecordsRoundTripWith64BitTargets) {
  Harness h;
  WireStager<SumApp> stager = h.MakeStager();
  Real real = {{1u, 10u}};
  Virtual virtuals = {{1ull << 40, 3u}, {7u, 4u}};
  stager.StageTask(0, 2, /*dst_machine=*/1, real, virtuals, h.Sender());
  stager.FlushAll(h.Sender());

  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.sent[0].num_segments, 2u);  // one real + one virtual
  auto [got_real, got_virtual] = h.Decode();
  EXPECT_EQ(got_real, (Real{{1u, 10u}}));
  EXPECT_EQ(got_virtual, (Virtual{{1ull << 40, 3u}, {7u, 4u}}));
}

TEST(WireBatchTest, FullBatchChunksStreamAcrossBatchesLosslessly) {
  // A cap that fits the header plus only a few records forces mid-stream
  // size flushes: the stream must arrive chunked but complete, in order,
  // with the priced bytes preserved across chunks.
  WireBatchOptions options;
  options.max_batch_bytes = sizeof(WireSegmentHeader) + 4 * 8;
  Harness h(options);
  WireStager<SumApp> stager = h.MakeStager();
  Real real;
  for (uint32_t i = 0; i < 100; ++i) {
    real.emplace_back(VertexId{i}, i * 2 + 1);
  }
  const Real expected = real;
  Virtual virtuals;
  stager.StageTask(1, 2, /*dst_machine=*/3, real, virtuals, h.Sender());
  stager.FlushAll(h.Sender());

  EXPECT_GT(h.sent.size(), 1u);
  uint64_t priced_total = 0;
  for (const WireBatch& batch : h.sent) {
    EXPECT_LE(batch.wire_size(), options.max_batch_bytes);
    priced_total += batch.priced_bytes;
  }
  EXPECT_EQ(priced_total, 100 * sizeof(uint32_t));
  auto [got_real, got_virtual] = h.Decode();
  EXPECT_EQ(got_real, expected);
  EXPECT_TRUE(got_virtual.empty());
  EXPECT_GT(stager.stats().flush_size, 0u);
}

// --------------------------------------------------- wire combination

TEST(WireBatchTest, StageTaskMergesDuplicateTargetsBeforePricing) {
  Harness h;
  WireStager<SumApp> stager = h.MakeStager(/*combine=*/true);
  Real real = {{5u, 1u}, {9u, 10u}, {5u, 2u}, {5u, 4u}};
  Virtual virtuals = {{77u, 1u}, {77u, 1u}};
  stager.StageTask(0, 1, /*dst_machine=*/1, real, virtuals, h.Sender());
  stager.FlushAll(h.Sender());

  EXPECT_EQ(stager.stats().messages_combined, 3u);  // two real + one virtual
  ASSERT_EQ(h.sent.size(), 1u);
  // 4 + 2 records collapse to 2 + 1; only post-merge records are priced.
  EXPECT_EQ(h.sent[0].num_messages, 3u);
  EXPECT_EQ(h.sent[0].priced_bytes, 3 * sizeof(uint32_t));
  auto [got_real, got_virtual] = h.Decode();
  ASSERT_EQ(got_real.size(), 2u);
  for (const auto& [target, value] : got_real) {
    EXPECT_EQ(value, target == 5u ? 7u : 10u);  // 1+2+4 merged by sum
  }
  EXPECT_EQ(got_virtual, (Virtual{{77u, 2u}}));
}

TEST(WireBatchTest, CombineOffKeepsEveryRecord) {
  Harness h;
  WireStager<SumApp> stager = h.MakeStager(/*combine=*/false);
  Real real = {{5u, 1u}, {5u, 2u}, {5u, 4u}};
  Virtual virtuals;
  stager.StageTask(0, 1, /*dst_machine=*/1, real, virtuals, h.Sender());
  stager.FlushAll(h.Sender());
  EXPECT_EQ(stager.stats().messages_combined, 0u);
  auto [got_real, got_virtual] = h.Decode();
  EXPECT_EQ(got_real, (Real{{5u, 1u}, {5u, 2u}, {5u, 4u}}));
}

// ------------------------------------------------------- flush policy

TEST(WireBatchTest, DeadlineFlushShipsIdleBatches) {
  WireBatchOptions options;
  options.flush_deadline_seconds = 0.0;  // everything is instantly overdue
  Harness h(options);
  WireStager<SumApp> stager = h.MakeStager();
  Real real = {{1u, 1u}};
  Virtual virtuals;
  stager.StageTask(0, 1, /*dst_machine=*/1, real, virtuals, h.Sender());
  EXPECT_TRUE(h.sent.empty());  // still open after the task
  stager.FlushExpired(h.Sender());
  EXPECT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(stager.stats().flush_deadline, 1u);
  EXPECT_EQ(stager.stats().flush_stage_end, 0u);
  stager.FlushExpired(h.Sender());  // nothing left open
  EXPECT_EQ(h.sent.size(), 1u);
}

TEST(WireBatchTest, StageEndFlushSealsEveryOpenDestination) {
  Harness h;
  WireStager<SumApp> stager = h.MakeStager();
  Virtual virtuals;
  for (MachineId dst = 1; dst < 4; ++dst) {
    Real real = {{dst, dst}};
    stager.StageTask(0, dst, dst, real, virtuals, h.Sender());
  }
  EXPECT_TRUE(h.sent.empty());
  stager.FlushAll(h.Sender());
  EXPECT_EQ(h.sent.size(), 3u);
  EXPECT_EQ(stager.stats().flush_stage_end, 3u);
  EXPECT_EQ(stager.stats().batches_sealed, 3u);
}

// ------------------------------------------------------ hostile input

/// One real segment for destination `dst` claiming `count` records, followed
/// by `records`, cut to `keep` bytes. The payload holds no spare capacity, so
/// ASan sees any read past it.
WireBatch CraftBatch(uint32_t dst, uint32_t count, const Real& records,
                     size_t keep = SIZE_MAX, uint32_t kind = kWireSegmentReal) {
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
    EXPECT_FALSE(reader.NextInto(segment));  // stays stopped
  }

  const WireBatch good = CraftBatch(1, 1, {{12u, 1u}});
  WireBatchReader<uint32_t> reader(good, starts);
  auto segment = reader.Next();
  ASSERT_TRUE(segment.has_value());
  EXPECT_EQ(segment->real, (Real{{12u, 1u}}));
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_TRUE(reader.status().ok());
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

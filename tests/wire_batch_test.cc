#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/random.h"
#include "graph/graph.h"
#include "partition/vertex_encoding.h"
#include "propagation/app_traits.h"
#include "runtime/partition_kernel.h"
#include "runtime/wire_batch.h"
#include "storage/partitioned_graph.h"

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

  WireStager<SumApp> MakeStager() {
    return WireStager<SumApp>(&app, options, &pool, /*src_machine=*/0,
                              /*num_machines=*/4);
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

// ------------------------------------------------- emission combination

/// One emission of a scripted Transfer: a real or a virtual target.
template <typename M>
struct Emission {
  bool is_virtual = false;
  uint64_t target = 0;
  M value{};
};

template <typename M>
using Script = std::vector<std::vector<Emission<M>>>;

/// Mergeable app whose Transfer replays script[v] for each vertex v, with
/// Merge = +. With double messages floating-point addition is not
/// associative, so a merged value reveals its fold order.
template <typename M>
struct ScriptApp {
  using VertexState = uint32_t;
  using Message = M;

  const Script<M>* script = nullptr;

  VertexState InitState(VertexId, std::span<const VertexId>) const {
    return 0;
  }
  void Transfer(VertexId v, const VertexState&, std::span<const VertexId>,
                PropagationEmitter<Message>& emitter) const {
    for (const Emission<M>& e : (*script)[v]) {
      if (e.is_virtual) {
        emitter.EmitVirtual(e.target, e.value);
      } else {
        emitter.Emit(static_cast<VertexId>(e.target), e.value);
      }
    }
  }
  void Combine(VertexId, VertexState&, std::span<const VertexId>,
               std::vector<Message>&) const {}
  Message Merge(const Message& a, const Message& b) const { return a + b; }
  size_t MessageBytes(const Message&) const { return sizeof(Message); }
  size_t StateBytes(const VertexState&) const { return sizeof(VertexState); }
};
static_assert(MergeableApp<ScriptApp<double>>);
static_assert(WireSerializableApp<ScriptApp<double>>);

/// An edgeless graph over `starts` (identity encoding), a kernel running
/// ScriptApp over it, and a stager that sends every stream to machine 1.
template <typename M>
struct KernelHarness {
  PartitionedGraph graph;
  Script<M> script;
  ScriptApp<M> app;
  WireBufferPool pool;
  WireStager<ScriptApp<M>> stager;
  std::unique_ptr<PartitionKernel<ScriptApp<M>>> kernel;
  std::vector<uint32_t> states;
  std::vector<WireBatch> sent;
  uint64_t combined = 0;

  KernelHarness(const std::vector<VertexId>& starts, bool combine)
      : graph(MakeGraph(starts)),
        script(starts.back()),
        app{&script},
        stager(&app, WireBatchOptions{}, &pool, /*src_machine=*/0,
               /*num_machines=*/2),
        kernel(std::make_unique<PartitionKernel<ScriptApp<M>>>(
            app, graph, /*frontier_gating=*/false, combine,
            /*num_threads=*/1)),
        states(starts.back(), 0) {}

  static PartitionedGraph MakeGraph(const std::vector<VertexId>& starts) {
    const VertexId n = starts.back();
    std::vector<VertexId> identity(n);
    for (VertexId v = 0; v < n; ++v) {
      identity[v] = v;
    }
    auto encoding = VertexEncoding::FromMapping(identity, starts);
    SURFER_CHECK_OK(encoding.status());
    auto graph = PartitionedGraph::CreateFromEncoded(
        Graph(std::vector<EdgeIndex>(n + 1, 0), {}), std::move(*encoding));
    SURFER_CHECK_OK(graph.status());
    return std::move(*graph);
  }

  /// Runs partition p's Transfer task, staging every stream it produced.
  void RunTask(PartitionId p) {
    const auto tally = kernel->Transfer(
        0, p, states, [&](PartitionId dst, auto& real, auto& virtuals) {
          stager.StageTask(p, dst, /*dst_machine=*/1, real, virtuals,
                           [&](WireBatch&& batch) {
                             sent.push_back(std::move(batch));
                             return 0.0;
                           });
        });
    combined += tally.combined;
  }

  void Flush() {
    stager.FlushAll([&](WireBatch&& batch) {
      sent.push_back(std::move(batch));
      return 0.0;
    });
  }

  /// Every sent segment in arrival order.
  std::vector<typename WireBatchReader<M>::Segment> Segments() const {
    std::vector<typename WireBatchReader<M>::Segment> segments;
    for (const WireBatch& batch : sent) {
      WireBatchReader<M> reader(batch, graph.encoding().starts());
      while (auto segment = reader.Next()) {
        segments.push_back(std::move(*segment));
      }
      EXPECT_TRUE(reader.status().ok()) << reader.status().ToString();
    }
    return segments;
  }
};

template <typename M>
std::vector<Emission<M>> Reals(
    std::initializer_list<std::pair<VertexId, M>> records) {
  std::vector<Emission<M>> out;
  for (const auto& [target, value] : records) {
    out.push_back({false, target, value});
  }
  return out;
}

template <typename M>
std::vector<Emission<M>> Virtuals(
    std::initializer_list<std::pair<uint64_t, M>> records) {
  std::vector<Emission<M>> out;
  for (const auto& [target, value] : records) {
    out.push_back({true, target, value});
  }
  return out;
}

template <typename M>
std::vector<Emission<M>> Concat(std::vector<Emission<M>> a,
                                const std::vector<Emission<M>>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

TEST(WireBatchTest, StageTaskMergesDuplicateTargetsBeforePricing) {
  KernelHarness<uint32_t> h(kStarts, /*combine=*/true);
  h.script[0] = Concat(
      Reals<uint32_t>({{105u, 1u}, {109u, 10u}, {105u, 2u}, {105u, 4u}}),
      Virtuals<uint32_t>({{77u, 1u}, {77u, 1u}}));
  h.RunTask(0);
  h.Flush();

  // Two real duplicates and one virtual one.
  EXPECT_EQ(h.combined, 3u);
  ASSERT_EQ(h.sent.size(), 1u);
  // 4 + 2 records collapse to 2 + 1; only post-merge records are priced.
  EXPECT_EQ(h.sent[0].num_messages, 3u);
  EXPECT_EQ(h.sent[0].priced_bytes, 3 * sizeof(uint32_t));
  Real got_real;
  Virtual got_virtual;
  for (const auto& segment : h.Segments()) {
    got_real.insert(got_real.end(), segment.real.begin(), segment.real.end());
    got_virtual.insert(got_virtual.end(), segment.virtuals.begin(),
                       segment.virtuals.end());
  }
  // 1+2+4 merged by sum, in first-occurrence order.
  EXPECT_EQ(got_real, (Real{{105u, 7u}, {109u, 10u}}));
  EXPECT_EQ(got_virtual, (Virtual{{77u, 2u}}));
}

TEST(WireBatchTest, CombineOffKeepsEveryRecord) {
  KernelHarness<uint32_t> h(kStarts, /*combine=*/false);
  h.script[0] = Reals<uint32_t>({{105u, 1u}, {105u, 2u}, {105u, 4u}});
  h.RunTask(0);
  h.Flush();
  EXPECT_EQ(h.combined, 0u);
  const auto segments = h.Segments();
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].real, (Real{{105u, 1u}, {105u, 2u}, {105u, 4u}}));
}

/// Byte-for-byte equality of each merged value, in first-occurrence order.
template <typename Got, typename Want>
void ExpectBits(const Got& got, const Want& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first);
    EXPECT_EQ(std::memcmp(&got[i].second, &want[i].second, sizeof(double)), 0)
        << "target " << want[i].first << ": got " << got[i].second;
  }
}

TEST(WireBatchTest, MergeFoldsInEmissionOrderAndResetsSlotsBetweenStreams) {
  // Left fold in emission order: ((1e16 + 1) + -1e16) + 1 == 1, because
  // 1e16 + 1 rounds back to 1e16. Any other order gives 0 or 2.
  const double left_fold = ((1e16 + 1.0) + -1e16) + 1.0;
  ASSERT_EQ(left_fold, 1.0);
  ASSERT_NE(left_fold, (1e16 + -1e16) + (1.0 + 1.0));
  using Records = std::vector<std::pair<VertexId, double>>;
  using VirtualRecords = std::vector<std::pair<uint64_t, double>>;
  // p0 owns [0, 8), p1 owns [8, 16), p2 owns [16, 18). Each stream is one
  // Transfer task of partition 1. The third stream reuses the first one's
  // targets 0 and 7 (p0's first and last vertex), so a slot left over from
  // the first task would fold a record into the wrong output position.
  // Real targets merge through the dense slot table, virtual ones (ID x
  // belongs to partition x % 3) through the hash map; both must fold the
  // same way.
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
  KernelHarness<double> h(starts, /*combine=*/true);
  uint64_t combined = 0;
  for (const auto& stream : streams) {
    auto& emissions = h.script[starts[1]];
    emissions.clear();
    for (const auto& [target, value] : stream.emitted) {
      emissions.push_back({false, target, value});
    }
    for (const auto& [target, value] : stream.virtual_emitted) {
      emissions.push_back({true, target, value});
    }
    h.RunTask(1);
    combined += stream.emitted.size() - stream.merged.size() +
                stream.virtual_emitted.size() - stream.virtual_merged.size();
    EXPECT_EQ(h.combined, combined);
  }
  h.Flush();

  ASSERT_EQ(h.sent.size(), 1u);
  const auto segments = h.Segments();
  size_t next = 0;
  for (const auto& stream : streams) {
    ASSERT_LT(next, segments.size());
    EXPECT_EQ(segments[next].header.src_partition, 1u);
    EXPECT_EQ(segments[next].header.dst_partition, stream.dst);
    ExpectBits(segments[next++].real, stream.merged);
    if (!stream.virtual_merged.empty()) {
      ASSERT_LT(next, segments.size());
      ExpectBits(segments[next++].virtuals, stream.virtual_merged);
    }
  }
  EXPECT_EQ(next, segments.size());
}

TEST(WireBatchTest, OneTaskMergesPerTargetAcrossInterleavedDestinations) {
  // p0 owns [0, 8), p1 owns [8, 16), p2 owns [16, 24). One task of p0
  // interleaves duplicates bound for all three partitions, spread over two
  // emitting vertices; targets 1, 9 and 17 share their offset inside their
  // partitions, so a table keyed by offset, or one slot index read against
  // another destination's stream, would fold into the wrong record. A
  // second task, of p2, emits to the same targets and must start clean.
  const std::vector<VertexId> starts = {0, 8, 16, 24};
  using Records = std::vector<std::pair<VertexId, double>>;
  using VirtualRecords = std::vector<std::pair<uint64_t, double>>;
  KernelHarness<double> h(starts, /*combine=*/true);
  h.script[0] = Concat(
      Reals<double>({{9, 1.0}, {1, 2.0}, {17, 4.0}, {9, 8.0}, {3, 16.0},
                     {17, 32.0}}),
      Virtuals<double>({{4, 1.0}, {3, 2.0}, {4, 4.0}}));
  h.script[1] = Concat(
      Reals<double>({{1, 64.0}, {16, 128.0}, {9, 256.0}, {17, 512.0}}),
      Virtuals<double>({{5, 8.0}, {3, 16.0}}));
  h.script[16] = Concat(Reals<double>({{17, 1.5}, {1, 2.5}, {9, 3.5},
                                       {1, 4.5}}),
                        Virtuals<double>({{4, 0.5}}));
  h.RunTask(0);
  EXPECT_EQ(h.combined, 7u);  // 9 twice, 1 once, 17 twice; 4 and 3 once
  h.RunTask(2);
  EXPECT_EQ(h.combined, 8u);  // 1 once more
  h.Flush();

  const struct {
    PartitionId src;
    PartitionId dst;
    Records real;
    VirtualRecords virtuals;
  } want[] = {
      {0, 0, {{1, 66.0}, {3, 16.0}}, {{3, 18.0}}},
      {0, 1, {{9, 265.0}}, {{4, 5.0}}},
      {0, 2, {{17, 548.0}, {16, 128.0}}, {{5, 8.0}}},
      {2, 0, {{1, 7.0}}, {}},
      {2, 1, {{9, 3.5}}, {{4, 0.5}}},
      {2, 2, {{17, 1.5}}, {}},
  };
  const auto segments = h.Segments();
  size_t next = 0;
  uint64_t messages = 0;
  for (const auto& w : want) {
    SCOPED_TRACE("stream " + std::to_string(w.src) + " -> " +
                 std::to_string(w.dst));
    ASSERT_LT(next, segments.size());
    EXPECT_EQ(segments[next].header.src_partition, w.src);
    EXPECT_EQ(segments[next].header.dst_partition, w.dst);
    ExpectBits(segments[next++].real, w.real);
    if (!w.virtuals.empty()) {
      ASSERT_LT(next, segments.size());
      EXPECT_EQ(segments[next].header.dst_partition, w.dst);
      ExpectBits(segments[next++].virtuals, w.virtuals);
    }
    messages += w.real.size() + w.virtuals.size();
  }
  EXPECT_EQ(next, segments.size());
  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.sent[0].num_messages, messages);
  EXPECT_EQ(h.sent[0].priced_bytes, messages * sizeof(double));
}

// ------------------------------------------------------- flush policy

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

constexpr size_t kRealRecord = sizeof(VertexId) + sizeof(uint32_t);
constexpr size_t kVirtualRecord = sizeof(uint64_t) + sizeof(uint32_t);

/// Decodes `batch` against kStarts to the end and checks the reader's
/// contract on any input: it stops OK or with Corruption, never sizes a
/// segment's records past what the bytes left can hold, and an OK decode
/// re-encodes to exactly the input bytes. `want_corruption` also requires
/// Corruption.
testing::AssertionResult DecodesWithinContract(const WireBatch& batch,
                                               bool want_corruption) {
  WireBatchReader<uint32_t> reader(batch, kStarts);
  std::vector<uint8_t> reencoded;
  for (;;) {
    const size_t left = batch.payload.size() - reader.offset();
    // A fresh segment each call, so its capacity is this call's allocation.
    WireBatchReader<uint32_t>::Segment segment;
    const bool more = reader.NextInto(segment);
    if (segment.real.capacity() * kRealRecord > left ||
        segment.virtuals.capacity() * kVirtualRecord > left) {
      return testing::AssertionFailure()
             << "records sized past the " << left << " bytes left";
    }
    if (!more) {
      break;
    }
    AppendPod(reencoded, segment.header);
    for (const auto& [target, value] : segment.real) {
      AppendPod(reencoded, target);
      AppendPod(reencoded, value);
    }
    for (const auto& [target, value] : segment.virtuals) {
      AppendPod(reencoded, target);
      AppendPod(reencoded, value);
    }
  }
  const Status& status = reader.status();
  if (status.ok()) {
    if (want_corruption) {
      return testing::AssertionFailure() << "decoded OK";
    }
    if (reencoded != batch.payload) {
      return testing::AssertionFailure() << "OK decode does not re-encode";
    }
  } else if (status.code() != StatusCode::kCorruption) {
    return testing::AssertionFailure() << status.ToString();
  }
  return testing::AssertionSuccess();
}

TEST(WireBatchTest, SeededMutationsDecodeToOkOrCorruption) {
  // Stager-made batches: real and virtual segments for three destinations
  // on two machines, the longer streams chunked across batches by a small
  // cap. Virtual ID x belongs to partition x % 8.
  WireBatchOptions options;
  options.max_batch_bytes = 160;
  Harness h(options);
  WireStager<SumApp> stager = h.MakeStager();
  for (PartitionId dst : {1u, 4u, 7u}) {
    Real real;
    for (uint32_t i = 0; i < 3 * dst; ++i) {
      real.emplace_back(dst * 100 + (i * 7) % 100, i);
    }
    Virtual virtuals = {{dst + 8, 1u}, {dst + (1ull << 36), 2u}};
    stager.StageTask(0, dst, /*dst_machine=*/dst % 2, real, virtuals,
                     h.Sender());
  }
  stager.FlushAll(h.Sender());
  const std::vector<WireBatch>& seeds = h.sent;
  ASSERT_GE(seeds.size(), 3u);

  // Where each seed's segment headers and records start.
  struct Layout {
    std::vector<size_t> headers;
    std::vector<std::pair<size_t, uint32_t>> records;  // offset, kind
  };
  std::vector<Layout> layouts;
  for (const WireBatch& seed : seeds) {
    ASSERT_TRUE(DecodesWithinContract(seed, false));
    Layout layout;
    size_t at = 0;
    while (at < seed.payload.size()) {
      const auto header = ReadPod<WireSegmentHeader>(seed.payload.data() + at);
      layout.headers.push_back(at);
      at += sizeof(WireSegmentHeader);
      const size_t record = header.kind == kWireSegmentReal ? kRealRecord
                                                            : kVirtualRecord;
      for (uint32_t i = 0; i < header.count; ++i, at += record) {
        layout.records.emplace_back(at, header.kind);
      }
    }
    layouts.push_back(std::move(layout));
  }

  // Truncation at every prefix.
  for (const WireBatch& seed : seeds) {
    for (size_t keep = 0; keep < seed.payload.size(); ++keep) {
      WireBatch cut = seed;
      cut.payload.resize(keep);
      cut.payload.shrink_to_fit();
      ASSERT_TRUE(DecodesWithinContract(cut, false)) << "prefix " << keep;
    }
  }

  constexpr size_t kHeaderKind = offsetof(WireSegmentHeader, kind);
  constexpr size_t kHeaderCount = offsetof(WireSegmentHeader, count);
  constexpr size_t kHeaderDst = offsetof(WireSegmentHeader, dst_partition);
  Rng rng(0x5eed'f022);
  for (int i = 0; i < 10000; ++i) {
    const size_t which = rng.Uniform(seeds.size());
    const Layout& layout = layouts[which];
    WireBatch batch = seeds[which];
    std::vector<uint8_t>& bytes = batch.payload;
    const size_t header = layout.headers[rng.Uniform(layout.headers.size())];
    const auto put32 = [&](size_t at, uint32_t value) {
      std::memcpy(bytes.data() + at, &value, sizeof(value));
    };
    bool corrupt = false;
    const uint64_t mutation = rng.Uniform(6);
    switch (mutation) {
      case 0:  // a byte flip in a header field
        bytes[header + rng.Uniform(sizeof(WireSegmentHeader))] ^=
            static_cast<uint8_t>(1 + rng.Uniform(255));
        break;
      case 1: {  // a count past the end of the payload
        const size_t records_at = header + sizeof(WireSegmentHeader);
        const uint64_t fit = (bytes.size() - records_at) / kRealRecord;
        put32(header + kHeaderCount,
              static_cast<uint32_t>(std::min<uint64_t>(
                  fit + 1 + rng.Uniform(1u << 20), UINT32_MAX)));
        corrupt = true;
        break;
      }
      case 2:  // an unknown kind
        put32(header + kHeaderKind,
              static_cast<uint32_t>(2 + rng.Uniform(UINT32_MAX - 2)));
        corrupt = true;
        break;
      case 3:  // a destination partition past the last one
        put32(header + kHeaderDst,
              static_cast<uint32_t>(8 + rng.Uniform(UINT32_MAX - 8)));
        corrupt = true;
        break;
      case 4: {  // a target its destination does not own
        const auto [at, kind] =
            layout.records[rng.Uniform(layout.records.size())];
        if (kind == kWireSegmentReal) {
          const VertexId target = ReadPod<VertexId>(bytes.data() + at);
          const VertexId shift = 100 * static_cast<VertexId>(
                                           1 + rng.Uniform(1u << 20));
          put32(at, target + shift);
        } else {
          const uint64_t target = ReadPod<uint64_t>(bytes.data() + at);
          const uint64_t moved = target + 1 + rng.Uniform(7);
          std::memcpy(bytes.data() + at, &moved, sizeof(moved));
        }
        corrupt = true;
        break;
      }
      default:  // a byte flip anywhere
        bytes[rng.Uniform(bytes.size())] ^=
            static_cast<uint8_t>(1 + rng.Uniform(255));
        break;
    }
    ASSERT_TRUE(DecodesWithinContract(batch, corrupt))
        << "mutation " << i << " (kind " << mutation << ") of seed " << which;
  }
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

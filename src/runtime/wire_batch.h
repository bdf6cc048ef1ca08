#ifndef SURFER_RUNTIME_WIRE_BATCH_H_
#define SURFER_RUNTIME_WIRE_BATCH_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/logging.h"
#include "common/status.h"
#include "graph/types.h"
#include "obs/telemetry.h"
#include "propagation/app_traits.h"
#include "runtime/stats.h"

namespace surfer {
namespace runtime {

/// Apps whose messages can go on the wire: serialization is a raw memcpy of
/// the message value, so the type must be trivially copyable. Every paper
/// app with O(1)-sized messages (NR, VDD, the recommender, ...) qualifies;
/// list-valued messages (RLG, TC, TFL) stay on the analytic engine.
template <typename App>
concept WireSerializableApp =
    std::is_trivially_copyable_v<typename App::Message>;

/// Tuning knobs of the wire plane. Batches seal when they reach
/// `max_batch_bytes` (size flush), when they have been open longer than
/// `flush_deadline_seconds` (deadline flush, checked between tasks), or at
/// the end of a machine's stage work (stage-end flush).
struct WireBatchOptions {
  size_t max_batch_bytes = 64 << 10;
  double flush_deadline_seconds = 0.002;
};

/// A sealed chunk of wire traffic between two machines: the unit of channel
/// transfer. The payload is a pooled byte buffer holding one or more
/// *segments*, each a contiguous run of one (src partition -> dst partition)
/// message stream. Channel capacity weighs batches by wire_size(), so a
/// link's bounded channel models bytes-in-flight rather than item count.
struct WireBatch {
  MachineId src_machine = kInvalidMachine;
  MachineId dst_machine = kInvalidMachine;
  uint32_t num_segments = 0;
  uint64_t num_messages = 0;
  /// Post-combine cost-model bytes (sum of app MessageBytes), the quantity
  /// the analytic runner prices; distinct from wire_size(), which includes
  /// framing and fixed-width record encoding.
  uint64_t priced_bytes = 0;
  std::vector<uint8_t> payload;

  size_t wire_size() const { return payload.size(); }
};

inline constexpr uint32_t kWireSegmentReal = 0;
inline constexpr uint32_t kWireSegmentVirtual = 1;

/// Frames one segment inside a batch payload. `count` records follow the
/// header: a real record is (VertexId, Message), a virtual record is
/// (uint64_t id, Message), both raw little-endian pods. A stream split
/// across batches by a size/deadline flush appears as several segments with
/// the same (src_partition, dst_partition); per-segment priced_bytes sum to
/// the stream's post-combine cost, which keeps recovery refetch accounting
/// exact at chunk granularity.
struct WireSegmentHeader {
  uint32_t src_partition = 0;
  uint32_t dst_partition = 0;
  uint32_t kind = kWireSegmentReal;
  uint32_t count = 0;
  uint64_t priced_bytes = 0;
};
static_assert(std::is_trivially_copyable_v<WireSegmentHeader>);
static_assert(sizeof(WireSegmentHeader) == 24);

template <typename T>
inline void AppendPod(std::vector<uint8_t>& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const size_t offset = out.size();
  out.resize(offset + sizeof(T));
  std::memcpy(out.data() + offset, &value, sizeof(T));
}

template <typename T>
inline T ReadPod(const uint8_t* data) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value;
  std::memcpy(&value, data, sizeof(T));
  return value;
}

/// Freelist of payload buffers shared by all staging machines of one run.
/// Released buffers are poisoned with 0xDD (the whole stored size) so a
/// reader holding a stale view of a recycled buffer fails loudly in tests
/// rather than silently seeing the next batch's bytes; Acquire clears the
/// buffer (keeping its capacity) before handing it out, so steady state
/// performs no per-message — and after warm-up no per-batch — allocation.
class WireBufferPool {
 public:
  struct Stats {
    uint64_t acquires = 0;
    uint64_t reuses = 0;
  };

  std::vector<uint8_t> Acquire();
  void Release(std::vector<uint8_t> buffer);
  Stats stats() const;

  /// Lock-free occupancy mirrors for the telemetry sampler. Outstanding is
  /// acquires minus releases: buffers currently filling or in flight.
  /// Sustained zero free with nonzero outstanding means every acquire
  /// allocates fresh — pool exhaustion.
  uint64_t ApproxFreeBuffers() const {
    return approx_free_.load(std::memory_order_relaxed);
  }
  uint64_t ApproxOutstandingBuffers() const {
    return approx_outstanding_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::vector<uint8_t>> free_;
  Stats stats_;
  std::atomic<uint64_t> approx_free_{0};
  std::atomic<uint64_t> approx_outstanding_{0};
};

/// Decodes a batch payload segment by segment. The reader copies records out
/// into typed vectors (the partition kernel moves them straight into inbox
/// chunks).
///
/// Payloads can come from another process, so decoding never trusts them: a
/// partial segment header, a `count` that overruns the payload, or an
/// unknown `kind` stops the reader with Corruption. Given the P+1 partition
/// fenceposts (VertexEncoding::starts()), it also rejects a destination
/// partition >= P, a real target outside the destination's vertex range,
/// and a virtual target x with x % P != destination (the routing rule every
/// engine applies).
template <typename Message>
class WireBatchReader {
  static_assert(std::is_trivially_copyable_v<Message>);

 public:
  struct Segment {
    WireSegmentHeader header;
    std::vector<std::pair<VertexId, Message>> real;
    std::vector<std::pair<uint64_t, Message>> virtuals;
  };

  /// Borrows `batch` and `partition_starts`; both must outlive the reader.
  explicit WireBatchReader(const WireBatch& batch,
                           std::span<const VertexId> partition_starts = {})
      : batch_(batch), starts_(partition_starts) {}

  std::optional<Segment> Next() {
    Segment segment;
    if (!NextInto(segment)) {
      return std::nullopt;
    }
    return segment;
  }

  /// Decode-into variant that reuses the segment's record-vector capacity:
  /// the kernel feeds recycled inbox-chunk buffers through this, so after
  /// warm-up deserialization performs no per-segment allocation. Returns
  /// false (with both vectors cleared) at the end of the payload or at the
  /// first malformed segment; status() tells the two apart.
  bool NextInto(Segment& segment) {
    segment.real.clear();
    segment.virtuals.clear();
    const size_t size = batch_.payload.size();
    if (!status_.ok() || offset_ == size) {
      return false;
    }
    if (size - offset_ < sizeof(WireSegmentHeader)) {
      return Fail("truncated segment header, bytes left:", size - offset_);
    }
    const uint8_t* base = batch_.payload.data();
    const auto header = ReadPod<WireSegmentHeader>(base + offset_);
    const bool real = header.kind == kWireSegmentReal;
    if (!real && header.kind != kWireSegmentVirtual) {
      return Fail("unknown segment kind", header.kind);
    }
    const size_t record_bytes =
        (real ? sizeof(VertexId) : sizeof(uint64_t)) + sizeof(Message);
    if (header.count >
        (size - offset_ - sizeof(WireSegmentHeader)) / record_bytes) {
      return Fail("segment overruns the payload, records claimed:",
                  header.count);
    }
    const bool bounded = !starts_.empty();
    const uint32_t num_partitions =
        bounded ? static_cast<uint32_t>(starts_.size() - 1) : 0;
    if (bounded && header.dst_partition >= num_partitions) {
      return Fail("destination partition out of range:",
                  header.dst_partition);
    }
    segment.header = header;
    offset_ += sizeof(WireSegmentHeader);
    if (real) {
      const VertexId lo = bounded ? starts_[header.dst_partition] : 0;
      const VertexId hi = bounded ? starts_[header.dst_partition + 1] : 0;
      return DecodeRecords(
          segment.real, header.count,
          [&](VertexId target) {
            return !bounded || (target >= lo && target < hi);
          },
          "real target outside its destination partition:");
    }
    // Every engine routes virtual ID x to partition x % P.
    return DecodeRecords(
        segment.virtuals, header.count,
        [&](uint64_t target) {
          return !bounded || target % num_partitions == header.dst_partition;
        },
        "virtual target routed to the wrong partition:");
  }

  /// OK through the clean end of the payload; Corruption once NextInto met
  /// a malformed segment (the reader then stays stopped).
  const Status& status() const { return status_; }

  /// Payload bytes consumed: the end of the last decoded segment.
  size_t offset() const { return offset_; }

 private:
  /// Decodes `count` records at offset_ into `records`: sized once (bounded,
  /// since count fits in the bytes left), then filled by index. Stops at the
  /// first target `valid` rejects, leaving `records` empty and offset_ at
  /// the bad record.
  template <typename K, typename Valid>
  bool DecodeRecords(std::vector<std::pair<K, Message>>& records,
                     uint32_t count, Valid&& valid, const char* invalid) {
    const uint8_t* base = batch_.payload.data();
    const uint8_t* cursor = base + offset_;
    records.resize(count);
    for (auto& [target, message] : records) {
      std::memcpy(&target, cursor, sizeof(K));
      if (!valid(target)) {
        const K bad = target;
        records.clear();
        offset_ = static_cast<size_t>(cursor - base);
        return Fail(invalid, bad);
      }
      std::memcpy(&message, cursor + sizeof(K), sizeof(Message));
      cursor += sizeof(K) + sizeof(Message);
    }
    offset_ = static_cast<size_t>(cursor - base);
    return true;
  }

  /// Stops the reader. Out of line and cold, so the decode loop stays small.
  [[gnu::noinline, gnu::cold]] bool Fail(const char* what, uint64_t value) {
    status_ = Status::Corruption("wire batch byte " +
                                 std::to_string(offset_) + ": " + what + " " +
                                 std::to_string(value));
    return false;
  }

  const WireBatch& batch_;
  std::span<const VertexId> starts_;
  size_t offset_ = 0;
  Status status_;
};

/// Wire-plane tallies of one staging machine. The stager counts straight
/// into the RuntimeCounters wire fields it feeds (wire_batches_sent through
/// wire_flush_stage_end) and leaves the rest at zero, so an engine folds it
/// in with `+=`; only the batch-fill histogram is its own.
struct WireStagerStats : RuntimeCounters {
  Histogram batch_fill;  ///< payload/max_batch_bytes at each seal
};

/// Serializes one machine's outbound message streams into pooled WireBatch
/// payloads, one open batch per destination machine. Accessed only by the
/// machine's owner worker, so it needs no locking of its own.
///
/// Wire-level local combination happens here, at staging time: a task hands
/// over its complete (src -> dst) stream, duplicates merge in emission order
/// with the same Merge(acc, next) folds the analytic runner performs, and
/// only the post-merge records are serialized and priced. Because the whole
/// stream is combined before any of it is written, a mid-stream size flush
/// can split the stream across batches without changing the priced byte
/// count — the invariant that keeps the runtime's per-link bytes
/// reconciling exactly with PropagationRunner::link_network_bytes().
template <typename App>
  requires PropagationApp<App> && WireSerializableApp<App>
class WireStager {
 public:
  using Message = typename App::Message;
  using Clock = std::chrono::steady_clock;

  /// `partition_starts` (the P+1 VertexEncoding::starts(), borrowed for
  /// the stager's lifetime) sizes the dense merge's slot table; every real
  /// target staged for partition d must lie in [starts[d], starts[d+1]).
  WireStager(const App* app, const WireBatchOptions& options,
             WireBufferPool* pool, MachineId src_machine,
             uint32_t num_machines, bool combine,
             std::span<const VertexId> partition_starts)
      : app_(app),
        options_(options),
        pool_(pool),
        src_machine_(src_machine),
        combine_(combine),
        starts_(partition_starts),
        open_(num_machines) {
    VertexId largest = 0;
    for (size_t i = 0; i + 1 < starts_.size(); ++i) {
      largest = std::max(largest, starts_[i + 1] - starts_[i]);
    }
    if (combine_ && MergeableApp<App>) {
      slots_.assign(largest, kNoSlot);
    }
  }

  /// Stages one task's complete (src -> dst) stream: merges duplicates (when
  /// combination is on), prices the post-merge records, and serializes them
  /// into the destination machine's open batch, sealing and shipping batches
  /// that hit the size cap along the way. `send` takes a sealed WireBatch
  /// and returns the seconds it spent blocked on channel backpressure; the
  /// summed blocked time is returned to the caller for phase attribution.
  /// Both record vectors are consumed.
  template <typename SendFn>
  double StageTask(PartitionId src, PartitionId dst, MachineId dst_machine,
                   std::vector<std::pair<VertexId, Message>>& real,
                   std::vector<std::pair<uint64_t, Message>>& virtuals,
                   SendFn&& send) {
    if (combine_) {
      if constexpr (MergeableApp<App>) {
        MergeDense(dst, real);
        MergeHashed(virtuals);
      }
    }
    double blocked_s = 0.0;
    if (!real.empty()) {
      blocked_s +=
          WriteSegment(src, dst, dst_machine, kWireSegmentReal, real, send);
      real.clear();
    }
    if (!virtuals.empty()) {
      blocked_s += WriteSegment(src, dst, dst_machine, kWireSegmentVirtual,
                                virtuals, send);
      virtuals.clear();
    }
    return blocked_s;
  }

  /// Seals and ships open batches older than the flush deadline. Called
  /// between tasks so a trickle of traffic to a quiet destination is not
  /// held hostage to the stage end.
  template <typename SendFn>
  double FlushExpired(SendFn&& send) {
    double blocked_s = 0.0;
    const auto now = Clock::now();
    for (OpenBatch& open : open_) {
      if (open.active &&
          std::chrono::duration<double>(now - open.opened).count() >=
              options_.flush_deadline_seconds) {
        ++stats_.wire_flush_deadline;
        blocked_s += Seal(open, send);
      }
    }
    return blocked_s;
  }

  /// Seals and ships every open batch (stage end, or a machine kill whose
  /// completed tasks' output must still reach its destinations).
  template <typename SendFn>
  double FlushAll(SendFn&& send) {
    double blocked_s = 0.0;
    for (OpenBatch& open : open_) {
      if (open.active) {
        ++stats_.wire_flush_stage_end;
        blocked_s += Seal(open, send);
      }
    }
    return blocked_s;
  }

  const WireStagerStats& stats() const { return stats_; }

  /// Payload bytes sitting in open (unsealed) batches right now — the
  /// staging backlog a worker heartbeat reports as staged_wire_bytes.
  size_t OpenBytes() const {
    size_t total = 0;
    for (const OpenBatch& open : open_) {
      if (open.active) {
        total += open.batch.payload.size();
      }
    }
    return total;
  }

 private:
  struct OpenBatch {
    WireBatch batch;
    Clock::time_point opened;
    bool active = false;
  };

  static constexpr uint32_t kNoSlot = UINT32_MAX;

  /// Merges duplicate targets in place: the first occurrence of a target
  /// keeps its position (output is in first-occurrence order) and every
  /// later one folds into it as Merge(acc, next), in emission order — the
  /// analytic runner's exact fold sequence, so merged values match it to the
  /// bit. `slot_of(target)` names the target's slot, which holds kNoSlot
  /// until the target's first record has been kept. Order within a merged
  /// stream is irrelevant downstream: it carries at most one message per
  /// target and Combine's counting scatter groups by target.
  template <typename K, typename SlotOf>
  void Compact(std::vector<std::pair<K, Message>>& records, SlotOf&& slot_of) {
    size_t kept = 0;
    for (size_t i = 0; i < records.size(); ++i) {
      uint32_t& slot = slot_of(records[i].first);
      if (slot == kNoSlot) {
        slot = static_cast<uint32_t>(kept);
        if (kept != i) {
          records[kept] = std::move(records[i]);
        }
        ++kept;
      } else {
        Message& acc = records[slot].second;
        acc = app_->Merge(acc, records[i].second);
        ++stats_.wire_messages_combined;
      }
    }
    records.erase(records.begin() + static_cast<std::ptrdiff_t>(kept),
                  records.end());
  }

  /// Real targets of destination partition `dst`: slot = slots_[target -
  /// start of dst]. Only the merged output's slots were written, so walking
  /// it resets the table for the next stream.
  void MergeDense(PartitionId dst,
                  std::vector<std::pair<VertexId, Message>>& records) {
    if (records.size() < 2) {
      return;
    }
    const VertexId lo = starts_[dst];
    const VertexId size = starts_[dst + 1] - lo;
    Compact(records, [&](VertexId target) -> uint32_t& {
      if (target - lo >= size) [[unlikely]] {
        OutsidePartition(target, dst);
      }
      return slots_[target - lo];
    });
    for (const auto& record : records) {
      slots_[record.first - lo] = kNoSlot;
    }
  }

  /// The engines route every real target into its owner's stream, so this
  /// is a bug, not bad input.
  [[noreturn, gnu::noinline, gnu::cold]] static void OutsidePartition(
      VertexId target, PartitionId dst) {
    SURFER_CHECK(false) << "staged target " << target
                        << " lies outside destination partition " << dst;
    std::abort();
  }

  /// Virtual IDs are arbitrary 64-bit values with no dense index, so they
  /// merge through a per-stream hash map.
  template <typename K>
  void MergeHashed(std::vector<std::pair<K, Message>>& records) {
    if (records.size() < 2) {
      return;
    }
    std::unordered_map<K, uint32_t> index;
    index.reserve(records.size());
    Compact(records, [&](K target) -> uint32_t& {
      return index.try_emplace(target, kNoSlot).first->second;
    });
  }

  template <typename K, typename SendFn>
  double WriteSegment(PartitionId src, PartitionId dst, MachineId dst_machine,
                      uint32_t kind,
                      std::vector<std::pair<K, Message>>& records,
                      SendFn&& send) {
    constexpr size_t kRecordBytes = sizeof(K) + sizeof(Message);
    double blocked_s = 0.0;
    OpenBatch& open = open_[dst_machine];
    // A batch close to the cap seals before the segment starts, so a fresh
    // segment header is never immediately orphaned by a size flush.
    if (open.active && !open.batch.payload.empty() &&
        open.batch.payload.size() + sizeof(WireSegmentHeader) + kRecordBytes >
            options_.max_batch_bytes) {
      ++stats_.wire_flush_size;
      blocked_s += Seal(open, send);
    }
    if (!open.active) {
      Open(open, dst_machine);
    }
    size_t next = 0;
    for (;;) {
      std::vector<uint8_t>& payload = open.batch.payload;
      const size_t header_at = BeginSegment(open.batch, src, dst, kind);
      // A segment takes every record that fits under the cap, and always at
      // least one: a batch too small for even one record still makes
      // progress.
      const size_t cap = options_.max_batch_bytes;
      const size_t fit =
          payload.size() < cap ? (cap - payload.size()) / kRecordBytes : 0;
      const size_t take =
          std::min(records.size() - next, std::max<size_t>(fit, 1));
      const size_t at = payload.size();
      payload.resize(at + take * kRecordBytes);
      uint8_t* cursor = payload.data() + at;
      uint64_t priced = 0;
      for (size_t i = next; i < next + take; ++i) {
        std::memcpy(cursor, &records[i].first, sizeof(K));
        std::memcpy(cursor + sizeof(K), &records[i].second, sizeof(Message));
        cursor += kRecordBytes;
        priced += app_->MessageBytes(records[i].second);
      }
      CloseSegment(open.batch, header_at, static_cast<uint32_t>(take), priced);
      next += take;
      if (next == records.size()) {
        return blocked_s;
      }
      // Chunk the stream: ship the full batch and continue the same
      // (src, dst) stream in a fresh segment. Records were combined and
      // priced for the whole task above, so chunking cannot change the cost
      // model's byte count.
      ++stats_.wire_flush_size;
      blocked_s += Seal(open, send);
      Open(open, dst_machine);
    }
  }

  static size_t BeginSegment(WireBatch& batch, PartitionId src,
                             PartitionId dst, uint32_t kind) {
    const size_t at = batch.payload.size();
    WireSegmentHeader header;
    header.src_partition = src;
    header.dst_partition = dst;
    header.kind = kind;
    AppendPod(batch.payload, header);
    return at;
  }

  void CloseSegment(WireBatch& batch, size_t header_at, uint32_t count,
                    uint64_t priced) {
    WireSegmentHeader header =
        ReadPod<WireSegmentHeader>(batch.payload.data() + header_at);
    header.count = count;
    header.priced_bytes = priced;
    std::memcpy(batch.payload.data() + header_at, &header, sizeof(header));
    batch.num_segments += 1;
    batch.num_messages += count;
    batch.priced_bytes += priced;
    ++stats_.wire_segments_sent;
  }

  void Open(OpenBatch& open, MachineId dst_machine) {
    open.batch = WireBatch{};
    open.batch.src_machine = src_machine_;
    open.batch.dst_machine = dst_machine;
    open.batch.payload = pool_->Acquire();
    open.opened = Clock::now();
    open.active = true;
  }

  template <typename SendFn>
  double Seal(OpenBatch& open, SendFn&& send) {
    ++stats_.wire_batches_sent;
    stats_.wire_payload_bytes += open.batch.payload.size();
    stats_.batch_fill.Add(static_cast<double>(open.batch.payload.size()) /
                          static_cast<double>(options_.max_batch_bytes));
    open.active = false;
    return send(std::move(open.batch));
  }

  const App* app_;
  WireBatchOptions options_;
  WireBufferPool* pool_;
  MachineId src_machine_;
  bool combine_;
  std::span<const VertexId> starts_;
  /// Dense-merge slot per vertex offset of the largest partition; kNoSlot
  /// between streams.
  std::vector<uint32_t> slots_;
  std::vector<OpenBatch> open_;
  WireStagerStats stats_;
};

/// The end-of-run readings both real engines take the same way: every
/// stager's wire counters and batch fill, the pool's acquire and reuse
/// counts, the flight recorder's tallies and the process memory.
template <typename Stagers>
void ReadEndOfRunStats(const Stagers& stagers, const WireBufferPool& pool,
                       const obs::TelemetryRecorder& telemetry,
                       RuntimeStats& stats) {
  for (const auto& stager : stagers) {
    stats += stager.stats();
    stats.batch_fill.Merge(stager.stats().batch_fill);
  }
  const WireBufferPool::Stats buffers = pool.stats();
  stats.pool_buffers_acquired = buffers.acquires;
  stats.pool_buffers_reused = buffers.reuses;
  stats.telemetry_samples = telemetry.samples_taken();
  stats.telemetry_samples_dropped = telemetry.total_dropped();
  const obs::MemoryUsage memory = obs::ReadMemoryUsage();
  stats.rss_bytes = memory.rss_bytes;
  stats.peak_rss_bytes = memory.peak_rss_bytes;
}

}  // namespace runtime
}  // namespace surfer

#endif  // SURFER_RUNTIME_WIRE_BATCH_H_

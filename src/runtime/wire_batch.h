#ifndef SURFER_RUNTIME_WIRE_BATCH_H_
#define SURFER_RUNTIME_WIRE_BATCH_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
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
#include "common/status.h"
#include "graph/types.h"
#include "propagation/app_traits.h"

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
/// partition >= P and a real target outside the destination's vertex range.
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
    if (bounded && header.dst_partition >= starts_.size() - 1) {
      return Fail("destination partition out of range:",
                  header.dst_partition);
    }
    segment.header = header;
    offset_ += sizeof(WireSegmentHeader);
    // Both reserves are bounded: count fits in the bytes left.
    if (real) {
      const VertexId lo = bounded ? starts_[header.dst_partition] : 0;
      const VertexId hi = bounded ? starts_[header.dst_partition + 1] : 0;
      segment.real.reserve(header.count);
      for (uint32_t i = 0; i < header.count; ++i) {
        const VertexId target = ReadPod<VertexId>(base + offset_);
        if (bounded && (target < lo || target >= hi)) {
          segment.real.clear();
          return Fail("real target outside its destination partition:",
                      target);
        }
        offset_ += sizeof(VertexId);
        segment.real.emplace_back(target, ReadPod<Message>(base + offset_));
        offset_ += sizeof(Message);
      }
    } else {
      segment.virtuals.reserve(header.count);
      for (uint32_t i = 0; i < header.count; ++i) {
        const uint64_t target = ReadPod<uint64_t>(base + offset_);
        offset_ += sizeof(uint64_t);
        segment.virtuals.emplace_back(target,
                                      ReadPod<Message>(base + offset_));
        offset_ += sizeof(Message);
      }
    }
    return true;
  }

  /// OK through the clean end of the payload; Corruption once NextInto met
  /// a malformed segment (the reader then stays stopped).
  const Status& status() const { return status_; }

  /// Payload bytes consumed: the end of the last decoded segment.
  size_t offset() const { return offset_; }

 private:
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

/// Wire-plane counters of one staging machine, merged into RuntimeStats
/// after the workers join.
struct WireStagerStats {
  uint64_t batches_sealed = 0;
  uint64_t segments_sealed = 0;
  uint64_t payload_bytes = 0;       ///< wire bytes across sealed batches
  uint64_t messages_staged = 0;     ///< records serialized (post-combine)
  uint64_t messages_combined = 0;   ///< duplicates folded at seal time
  uint64_t flush_size = 0;
  uint64_t flush_deadline = 0;
  uint64_t flush_stage_end = 0;
  Histogram batch_fill;             ///< payload/max_batch_bytes at each seal
};

/// Adds one stager's counters into an engine's wire_* totals: RuntimeStats,
/// or the distributed WorkerStatsMsg, which has the same fields except the
/// batch-fill histogram.
template <typename Totals>
void AddWireStagerStats(const WireStagerStats& ws, Totals& totals) {
  totals.wire_batches_sent += ws.batches_sealed;
  totals.wire_segments_sent += ws.segments_sealed;
  totals.wire_payload_bytes += ws.payload_bytes;
  totals.wire_messages_combined += ws.messages_combined;
  totals.wire_flush_size += ws.flush_size;
  totals.wire_flush_deadline += ws.flush_deadline;
  totals.wire_flush_stage_end += ws.flush_stage_end;
  if constexpr (requires { totals.batch_fill; }) {
    totals.batch_fill.Merge(ws.batch_fill);
  }
}

/// Serializes one machine's outbound message streams into pooled WireBatch
/// payloads, one open batch per destination machine. Accessed only by the
/// machine's owner worker, so it needs no locking of its own.
///
/// Wire-level local combination happens here, at staging time: a task hands
/// over its complete (src -> dst) stream, duplicates merge through the same
/// insertion-ordered map replay the analytic runner uses, and only the
/// post-merge records are serialized and priced. Because the whole stream is
/// combined before any of it is written, a mid-stream size flush can split
/// the stream across batches without changing the priced byte count — the
/// invariant that keeps the runtime's per-link bytes reconciling exactly
/// with PropagationRunner::link_network_bytes().
template <typename App>
  requires PropagationApp<App> && WireSerializableApp<App>
class WireStager {
 public:
  using Message = typename App::Message;
  using Clock = std::chrono::steady_clock;

  WireStager(const App* app, const WireBatchOptions& options,
             WireBufferPool* pool, MachineId src_machine,
             uint32_t num_machines, bool combine)
      : app_(app),
        options_(options),
        pool_(pool),
        src_machine_(src_machine),
        combine_(combine),
        open_(num_machines) {}

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
        MergeDuplicates(real);
        MergeDuplicates(virtuals);
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
        ++stats_.flush_deadline;
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
        ++stats_.flush_stage_end;
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

  /// Merges duplicate targets by replaying the records through an
  /// insertion-ordered map walk, exactly the sequence of emplace/Merge calls
  /// the analytic runner performs — so merged values are bit-identical. The
  /// map's iteration order is irrelevant downstream: a merged stream carries
  /// at most one message per target, and the combine side's stable sort by
  /// target normalizes stream-internal order away.
  template <typename K>
  void MergeDuplicates(std::vector<std::pair<K, Message>>& records) {
    if (records.size() < 2) {
      return;
    }
    std::unordered_map<K, Message> merged;
    merged.reserve(records.size());
    for (auto& [key, message] : records) {
      auto it = merged.find(key);
      if (it == merged.end()) {
        merged.emplace(key, std::move(message));
      } else {
        it->second = app_->Merge(it->second, message);
        ++stats_.messages_combined;
      }
    }
    if (merged.size() == records.size()) {
      return;  // no duplicates: keep emission order as-is
    }
    records.clear();
    for (auto& [key, message] : merged) {
      records.emplace_back(key, std::move(message));
    }
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
      ++stats_.flush_size;
      blocked_s += Seal(open, send);
    }
    if (!open.active) {
      Open(open, dst_machine);
    }
    size_t header_at = BeginSegment(open.batch, src, dst, kind);
    uint32_t count = 0;
    uint64_t priced = 0;
    for (auto& [key, message] : records) {
      if (count > 0 &&
          open.batch.payload.size() + kRecordBytes >
              options_.max_batch_bytes) {
        // Chunk the stream: close this segment, ship the batch, continue the
        // same (src, dst) stream in a fresh segment. Records were combined
        // and priced for the whole task above, so chunking cannot change the
        // cost model's byte count.
        CloseSegment(open.batch, header_at, count, priced);
        ++stats_.flush_size;
        blocked_s += Seal(open, send);
        Open(open, dst_machine);
        header_at = BeginSegment(open.batch, src, dst, kind);
        count = 0;
        priced = 0;
      }
      AppendPod(open.batch.payload, key);
      AppendPod(open.batch.payload, message);
      priced += app_->MessageBytes(message);
      ++count;
    }
    CloseSegment(open.batch, header_at, count, priced);
    return blocked_s;
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
    ++stats_.segments_sealed;
    stats_.messages_staged += count;
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
    ++stats_.batches_sealed;
    stats_.payload_bytes += open.batch.payload.size();
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
  std::vector<OpenBatch> open_;
  WireStagerStats stats_;
};

}  // namespace runtime
}  // namespace surfer

#endif  // SURFER_RUNTIME_WIRE_BATCH_H_

#ifndef SURFER_RUNTIME_PARTITION_KERNEL_H_
#define SURFER_RUNTIME_PARTITION_KERNEL_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "propagation/app_traits.h"
#include "runtime/combine_plan.h"
#include "runtime/wire_batch.h"
#include "storage/partitioned_graph.h"

namespace surfer {
namespace runtime {

/// The execution of the paper's transfer/combine pair over one partition,
/// shared by the threaded RuntimeExecutor and the distributed worker. An
/// engine supplies only its policies: where combined states land (Combine's
/// `states`), where a task's streams go (Transfer's sink), and which machine
/// is the partition's primary (refetch pricing). The analytic
/// PropagationRunner keeps its own loops: it is the reference both engines
/// are tested against, and it prices every vertex for the cost model.
///
/// Bit-identity with that runner: Transfer merges duplicate targets with the
/// runner's fold sequence and hands each (src -> dst) stream over whole and
/// in first-occurrence order; one machine produces a given stream per stage
/// over FIFO links, so its chunks arrive in that order and Combine's stable
/// sort by source partition recreates the sequential inbox; the counting
/// scatter then reproduces a stable sort by target.
///
/// Scratch is per caller-named `thread`. Receives into a partition come from
/// one thread at a time, and a barrier separates them from that partition's
/// Combine (the engines' single-writer discipline).
template <typename App>
  requires PropagationApp<App> && WireSerializableApp<App>
class PartitionKernel {
 public:
  using VertexState = typename App::VertexState;
  using Message = typename App::Message;
  using VirtualOutput = typename internal::VirtualOutputOf<App>::type;
  using RealStream = std::vector<std::pair<VertexId, Message>>;
  using VirtualStream = std::vector<std::pair<uint64_t, Message>>;
  using VirtualResults = std::vector<std::pair<uint64_t, VirtualOutput>>;

  struct TransferTally {
    double emit_s = 0.0;    ///< user Transfer calls, routing and merging
    double sink_s = 0.0;    ///< inside the sink
    uint64_t combined = 0;  ///< emissions folded into an earlier record
  };

  struct CombineTally {
    uint64_t scattered = 0;      ///< real messages placed by the scatter
    uint64_t skipped = 0;        ///< vertices the frontier gate skipped
    uint64_t refetch_bytes = 0;  ///< priced bytes a non-primary re-fetches
    double regroup_s = 0.0;      ///< inbox reconstruction, scatter included
    double scatter_s = 0.0;      ///< the placement pass alone
    double compute_s = 0.0;      ///< user Combine calls plus the virtual fold
  };

  /// `combine` is the job's local_combination; it merges only for an app
  /// with Merge.
  PartitionKernel(const App& app, const PartitionedGraph& graph,
                  bool frontier_gating, bool combine, uint32_t num_threads)
      : app_(app),
        graph_(graph),
        frontier_gating_(frontier_gating),
        combine_(combine && MergeableApp<App>),
        threads_(num_threads),
        inboxes_(graph.num_partitions()),
        plans_(graph.num_partitions()),
        virtual_results_(graph.num_partitions()),
        inbox_chunks_(std::make_unique<std::atomic<uint64_t>[]>(
            graph.num_partitions())) {}

  /// Runs Transfer over partition p's vertices against `states`, routes
  /// each emission into its destination partition's stream (merging
  /// duplicate targets when the job combines, see Emit), then calls
  /// sink(dst, real, virtuals) for every non-empty destination in ascending
  /// order. The sink sees nothing until the whole task has emitted, so each
  /// stream is priced after its last merge, which exact byte reconciliation
  /// needs. The sink may consume the streams.
  template <typename Sink>
  TransferTally Transfer(uint32_t thread, PartitionId p,
                         const std::vector<VertexState>& states, Sink&& sink) {
    const auto start = Clock::now();
    const uint32_t num_partitions = graph_.num_partitions();
    ThreadScratch& ts = threads_[thread];
    ts.real_out.resize(num_partitions);
    ts.virtual_out.resize(num_partitions);
    for (PartitionId dst = 0; dst < num_partitions; ++dst) {
      ts.real_out[dst].clear();
      ts.virtual_out[dst].clear();
    }
    TransferTally tally;
    // combine_ implies MergeableApp, which keeps Merge out of other apps.
    tally.combined = combine_ ? Emit<MergeableApp<App>>(ts, p, states)
                              : Emit<false>(ts, p, states);
    const auto emitted = Clock::now();
    for (PartitionId dst = 0; dst < num_partitions; ++dst) {
      if (!ts.real_out[dst].empty() || !ts.virtual_out[dst].empty()) {
        sink(dst, ts.real_out[dst], ts.virtual_out[dst]);
      }
    }
    tally.emit_s = Seconds(emitted - start);
    tally.sink_s = Seconds(Clock::now() - emitted);
    return tally;
  }

  /// Decodes one batch into its destination partitions' inboxes, counting
  /// each real record into the partition's combine plan on arrival: the
  /// counting overlaps the senders' compute, leaving Combine a prefix sum
  /// and one placement pass. Malformed bytes (see WireBatchReader) return
  /// Corruption; segments before the bad one stay queued, so callers treat
  /// the error as fatal.
  Status Receive(uint32_t thread, const WireBatch& batch) {
    WireBatchReader<Message> reader(batch, graph_.encoding().starts());
    std::vector<InboxChunk>& pool = threads_[thread].chunk_pool;
    for (;;) {
      InboxChunk chunk;
      if (!pool.empty()) {
        chunk = std::move(pool.back());
        pool.pop_back();
      }
      if (!reader.NextInto(chunk.segment)) {
        Park(chunk, pool);
        return reader.status();
      }
      chunk.src_machine = batch.src_machine;
      const PartitionId dst = chunk.segment.header.dst_partition;
      CombineScratch& plan = plans_[dst];
      if (!plan.active()) {
        const PartitionMeta& meta = graph_.partition(dst);
        plan.BeginRange(meta.begin, meta.end);
      }
      for (const auto& record : chunk.segment.real) {
        plan.Count(record.first);
      }
      inbox_chunks_[dst].fetch_add(1, std::memory_order_relaxed);
      inboxes_[dst].push_back(std::move(chunk));
    }
  }

  /// Runs partition p's Combine on `exec_machine`, updating `states` in
  /// place: stable-sorts the inbox chunks by source partition (a stream
  /// split across batches keeps its emission order), prices what a
  /// non-primary executor re-fetches (Appendix B), places the messages with
  /// the counting scatter, calls Combine per vertex (only on the frontier
  /// for a SilentVertexSkippableApp under gating) and folds the virtual
  /// groups into virtual_results(p).
  CombineTally Combine(uint32_t thread, PartitionId p, MachineId exec_machine,
                       MachineId primary, std::vector<VertexState>& states) {
    CombineTally tally;
    const auto start = Clock::now();
    const Graph& g = graph_.encoded_graph();
    const PartitionMeta& meta = graph_.partition(p);
    ThreadScratch& ts = threads_[thread];
    std::vector<InboxChunk>& chunks = inboxes_[p];
    std::stable_sort(chunks.begin(), chunks.end(),
                     [](const InboxChunk& a, const InboxChunk& b) {
                       return a.segment.header.src_partition <
                              b.segment.header.src_partition;
                     });
    if (exec_machine != primary) {
      for (const InboxChunk& chunk : chunks) {
        if (chunk.src_machine != exec_machine) {
          tally.refetch_bytes += chunk.segment.header.priced_bytes;
        }
      }
    }
    CombineScratch& plan = plans_[p];
    if (!plan.active()) {
      plan.BeginRange(meta.begin, meta.end);  // the partition received nothing
    }
    const auto scatter_start = Clock::now();
    plan.FinishCounts();
    ts.grouped.clear();
    ts.grouped.resize(static_cast<size_t>(plan.total()));
    ts.virtual_messages.clear();
    for (InboxChunk& chunk : chunks) {
      for (auto& [target, message] : chunk.segment.real) {
        ts.grouped[plan.PlaceIndex(target)] = std::move(message);
      }
      std::move(chunk.segment.virtuals.begin(), chunk.segment.virtuals.end(),
                std::back_inserter(ts.virtual_messages));
    }
    tally.scattered = plan.total();
    tally.scatter_s = Seconds(Clock::now() - scatter_start);
    RecycleInbox(p, ts.chunk_pool);
    const auto compute_start = Clock::now();
    tally.regroup_s = Seconds(compute_start - start);

    const size_t range = plan.range_size();
    auto combine_vertex = [&](size_t i) {
      const VertexId v = meta.begin + static_cast<VertexId>(i);
      ts.vertex_messages.clear();
      for (size_t j = plan.RunBegin(i), end = plan.RunEnd(i); j < end; ++j) {
        ts.vertex_messages.push_back(std::move(ts.grouped[j]));
      }
      app_.Combine(v, states[v], g.OutNeighbors(v), ts.vertex_messages);
    };
    bool gated = false;
    if constexpr (SilentVertexSkippableApp<App>) {
      gated = frontier_gating_;
    }
    if (gated) {
      // The app's kSkipSilentVertices contract makes skipping the vertices
      // that received nothing the identity.
      uint64_t visited = 0;
      for (size_t i = plan.NextReceived(0); i < range;
           i = plan.NextReceived(i + 1)) {
        combine_vertex(i);
        ++visited;
      }
      tally.skipped = static_cast<uint64_t>(range) - visited;
    } else {
      for (size_t i = 0; i < range; ++i) {
        combine_vertex(i);
      }
    }
    plan.Reset();

    VirtualResults& results = virtual_results_[p];
    results.clear();
    if constexpr (VirtualVertexApp<App>) {
      // Virtual IDs are arbitrary 64-bit values: rank the distinct IDs and
      // scatter instead of sorting every record.
      GroupVirtualMessages(ts.vgroups, ts.virtual_messages, ts.virtual_grouped);
      for (size_t i = 0; i < ts.vgroups.ids.size(); ++i) {
        const uint64_t id = ts.vgroups.ids[i];
        ts.virtual_group.clear();
        for (size_t j = ts.vgroups.offsets[i]; j < ts.vgroups.offsets[i + 1];
             ++j) {
          ts.virtual_group.push_back(std::move(ts.virtual_grouped[j]));
        }
        results.emplace_back(id, app_.CombineVirtual(id, ts.virtual_group));
      }
    }
    tally.compute_s = Seconds(Clock::now() - compute_start);
    return tally;
  }

  /// Drops partition p's queued chunks and counts, for a recovery round
  /// that rebuilds the inbox from re-sent batches.
  void ClearInbox(uint32_t thread, PartitionId p) {
    RecycleInbox(p, threads_[thread].chunk_pool);
    plans_[p].Reset();
  }

  /// Virtual-vertex outputs of p's last Combine, in ascending ID order.
  VirtualResults& virtual_results(PartitionId p) { return virtual_results_[p]; }

  /// Chunks queued for partition p; a relaxed read for the telemetry sampler.
  uint64_t ApproxInboxChunks(PartitionId p) const {
    return inbox_chunks_[p].load(std::memory_order_relaxed);
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// One decoded wire segment waiting in a partition's inbox; the producing
  /// machine is kept for refetch pricing.
  struct InboxChunk {
    MachineId src_machine = kInvalidMachine;
    typename WireBatchReader<Message>::Segment segment;
  };

  static constexpr uint32_t kNoSlot = UINT32_MAX;

  /// One thread's buffers, reused across its tasks (cleared, capacity kept).
  struct ThreadScratch {
    PropagationEmitter<Message> emitter;
    std::vector<RealStream> real_out;
    std::vector<VirtualStream> virtual_out;
    /// Merge slots: slots[target] is the index of target's record in its
    /// stream, kNoSlot between tasks. Sized to every vertex on first use.
    std::vector<uint32_t> slots;
    /// The same for virtual targets, which have no dense index.
    std::unordered_map<uint64_t, uint32_t> virtual_slots;
    std::vector<Message> grouped;
    std::vector<Message> vertex_messages;
    VirtualStream virtual_messages;
    std::vector<Message> virtual_grouped;
    std::vector<Message> virtual_group;
    VirtualGroupScratch vgroups;
    /// Consumed chunks parked with their record capacity, so decoding
    /// allocates nothing in steady state. Bounded: overflow deallocates.
    std::vector<InboxChunk> chunk_pool;
  };

  static constexpr size_t kChunkPoolCap = 256;

  static double Seconds(Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  }

  /// Transfer's emission loop: each record drained from the emitter goes
  /// to its owner's stream (one load, VertexEncoding::PartitionOf). With
  /// kCombine, a record whose target already has one in its stream folds
  /// into it as Merge(acc, next), so every stream holds one record per
  /// target in first-occurrence order, each the left fold of its target's
  /// emissions in emission order: the analytic runner's fold sequence, so
  /// merged values match it to the bit. Returns the records folded away.
  template <bool kCombine>
  uint64_t Emit(ThreadScratch& ts, PartitionId p,
                const std::vector<VertexState>& states) {
    const Graph& g = graph_.encoded_graph();
    const VertexEncoding& encoding = graph_.encoding();
    const VertexId n = encoding.num_vertices();
    const PartitionMeta& meta = graph_.partition(p);
    const uint32_t num_partitions = graph_.num_partitions();
    uint64_t combined = 0;
    if constexpr (kCombine) {
      ts.slots.resize(n, kNoSlot);
    }
    for (VertexId v = meta.begin; v < meta.end; ++v) {
      app_.Transfer(v, states[v], g.OutNeighbors(v), ts.emitter);
      ts.emitter.Drain(
          [&](VertexId target, Message message) {
            if (target >= n) [[unlikely]] {
              TargetOutOfRange(target, p, n);
            }
            RealStream& out = ts.real_out[encoding.PartitionOf(target)];
            if constexpr (kCombine) {
              uint32_t& slot = ts.slots[target];
              if (slot != kNoSlot) {
                Message& acc = out[slot].second;
                acc = app_.Merge(acc, message);
                ++combined;
                return;
              }
              slot = static_cast<uint32_t>(out.size());
            }
            out.emplace_back(target, std::move(message));
          },
          [&](uint64_t target, Message message) {
            VirtualStream& out = ts.virtual_out[target % num_partitions];
            if constexpr (kCombine) {
              const auto [it, first] = ts.virtual_slots.try_emplace(
                  target, static_cast<uint32_t>(out.size()));
              if (!first) {
                Message& acc = out[it->second].second;
                acc = app_.Merge(acc, message);
                ++combined;
                return;
              }
            }
            out.emplace_back(target, std::move(message));
          });
    }
    if constexpr (kCombine) {
      // Only the kept records' slots were written, so walking them resets
      // the table for the next task.
      for (const RealStream& out : ts.real_out) {
        for (const auto& record : out) {
          ts.slots[record.first] = kNoSlot;
        }
      }
      ts.virtual_slots.clear();
    }
    return combined;
  }

  /// An app emitted a real target past the last vertex. Caught before the
  /// owner lookup, which would read out of bounds; out of line and cold, so
  /// the emission loop stays small.
  [[noreturn, gnu::noinline, gnu::cold]] static void TargetOutOfRange(
      VertexId target, PartitionId src, VertexId num_vertices) {
    SURFER_CHECK(false) << "partition " << src << " emitted target "
                        << target << ", but the graph has only "
                        << num_vertices << " vertices";
    std::abort();
  }

  static void Park(InboxChunk& chunk, std::vector<InboxChunk>& pool) {
    if (pool.size() < kChunkPoolCap) {
      chunk.segment.real.clear();
      chunk.segment.virtuals.clear();
      pool.push_back(std::move(chunk));
    }
  }

  void RecycleInbox(PartitionId p, std::vector<InboxChunk>& pool) {
    for (InboxChunk& chunk : inboxes_[p]) {
      Park(chunk, pool);
    }
    inboxes_[p].clear();
    inbox_chunks_[p].store(0, std::memory_order_relaxed);
  }

  const App& app_;
  const PartitionedGraph& graph_;
  const bool frontier_gating_;
  /// Merge at emission: the job's local_combination and a mergeable app.
  const bool combine_;
  std::vector<ThreadScratch> threads_;
  std::vector<std::vector<InboxChunk>> inboxes_;
  /// plans_[p]: p's counting-scatter plan, counted as its chunks arrive.
  std::vector<CombineScratch> plans_;
  std::vector<VirtualResults> virtual_results_;
  /// Lock-free mirror of each inbox's size for the telemetry sampler.
  std::unique_ptr<std::atomic<uint64_t>[]> inbox_chunks_;
};

}  // namespace runtime
}  // namespace surfer

#endif  // SURFER_RUNTIME_PARTITION_KERNEL_H_

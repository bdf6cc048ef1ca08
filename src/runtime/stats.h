#ifndef SURFER_RUNTIME_STATS_H_
#define SURFER_RUNTIME_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/histogram.h"
#include "graph/types.h"
#include "runtime/channel.h"
#include "runtime/timeline.h"

namespace surfer {
namespace runtime {

/// The additive counters of a run: every RuntimeStats field that is summed
/// across worker threads and worker processes. ForEachCounter below is the
/// single list of them. It alone drives the sum (operator+=), the counter
/// keys of the run report's runtime block (RuntimeStatsToJson), the
/// runtime_<key> metrics-registry series (ExportRuntimeStats) and the
/// counter part of the distributed engine's stats message
/// (net::EncodeWorkerStats), so a counter added here and listed there is
/// summed, reported, exported and shipped with no other edit.
struct RuntimeCounters {
  uint64_t tasks_executed = 0;    ///< transfer + combine tasks run, incl. retries
  uint64_t tasks_reexecuted = 0;  ///< tasks re-run on a replica after a kill
  uint64_t machine_failures = 0;

  uint64_t messages_sent = 0;  ///< materialized messages through channels
  uint64_t buffers_sent = 0;   ///< channel items (wire batches put on a link)
  uint64_t send_stalls = 0;    ///< stall *attempts* across all channels
  uint64_t items_stalled = 0;  ///< distinct batches that hit a full channel

  // Wire-batch plane (see runtime/wire_batch.h). A batch is one pooled
  // buffer sent to one destination machine; a segment is one (src, dst)
  // partition stream chunk inside a batch.
  uint64_t wire_batches_sent = 0;
  uint64_t wire_segments_sent = 0;
  uint64_t wire_payload_bytes = 0;       ///< serialized bytes across batches
  uint64_t wire_messages_combined = 0;   ///< messages merged at emission
  uint64_t wire_flush_size = 0;          ///< seals forced by max_batch_bytes
  uint64_t wire_flush_stage_end = 0;     ///< seals at end-of-stage FlushAll
  uint64_t pool_buffers_acquired = 0;    ///< WireBufferPool::Acquire calls
  uint64_t pool_buffers_reused = 0;      ///< acquires served from the freelist

  // Sort-free combine regroup (see runtime/combine_plan.h). Scatter
  // throughput (messages / scatter seconds) is the bench-gated quantity:
  // it is what the counting scatter buys over the legacy O(M log M) sort.
  uint64_t combine_messages_scattered = 0;  ///< records placed by the scatter
  double combine_scatter_seconds = 0.0;     ///< prefix-sum + placement time
  /// Vertices the frontier-gated combine loop skipped (apps declaring
  /// kSkipSilentVertices only; 0 when gating is off or not opted into).
  uint64_t frontier_vertices_skipped = 0;

  double barrier_wait_seconds = 0.0;  ///< summed across workers + main
  /// Barrier waits released while still spinning vs after parking (workers
  /// and main; see BspBarrier::WaitCounts). Spun stays 0 when the host
  /// cannot give every worker its own hardware thread.
  uint64_t barrier_waits_spun = 0;
  uint64_t barrier_waits_parked = 0;
  uint64_t refetch_bytes = 0;  ///< replica re-reads triggered by recovery

  // Distributed engine (net/distributed.h) only; all zero elsewhere.
  uint64_t tcp_bytes_sent = 0;    ///< bytes on mesh sockets, headers included
  uint64_t tcp_frames_sent = 0;   ///< mesh frames (data, updates, EOS, acks)
  uint64_t resend_bytes = 0;      ///< recovery replay + re-executed transfer
  uint64_t replication_bytes = 0; ///< post-combine state updates to replicas

  /// Flight-recorder tallies (0 when telemetry is off). Like trace drops,
  /// sample drops only mean the recorded window is partial — the oldest
  /// samples were overwritten, the run was untouched.
  uint64_t telemetry_samples = 0;
  uint64_t telemetry_samples_dropped = 0;

  /// Calls fn(name, member pointer) once per counter, in report order. The
  /// name is the counter's run-report key.
  template <typename Fn>
  static constexpr void ForEachCounter(Fn&& fn) {
    fn("tasks_executed", &RuntimeCounters::tasks_executed);
    fn("tasks_reexecuted", &RuntimeCounters::tasks_reexecuted);
    fn("machine_failures", &RuntimeCounters::machine_failures);
    fn("messages_sent", &RuntimeCounters::messages_sent);
    fn("buffers_sent", &RuntimeCounters::buffers_sent);
    fn("send_stalls", &RuntimeCounters::send_stalls);
    fn("items_stalled", &RuntimeCounters::items_stalled);
    fn("wire_batches_sent", &RuntimeCounters::wire_batches_sent);
    fn("wire_segments_sent", &RuntimeCounters::wire_segments_sent);
    fn("wire_payload_bytes", &RuntimeCounters::wire_payload_bytes);
    fn("wire_messages_combined", &RuntimeCounters::wire_messages_combined);
    fn("wire_flush_size", &RuntimeCounters::wire_flush_size);
    fn("wire_flush_stage_end", &RuntimeCounters::wire_flush_stage_end);
    fn("pool_buffers_acquired", &RuntimeCounters::pool_buffers_acquired);
    fn("pool_buffers_reused", &RuntimeCounters::pool_buffers_reused);
    fn("combine_messages_scattered",
       &RuntimeCounters::combine_messages_scattered);
    fn("combine_scatter_seconds", &RuntimeCounters::combine_scatter_seconds);
    fn("frontier_vertices_skipped",
       &RuntimeCounters::frontier_vertices_skipped);
    fn("barrier_wait_seconds", &RuntimeCounters::barrier_wait_seconds);
    fn("barrier_waits_spun", &RuntimeCounters::barrier_waits_spun);
    fn("barrier_waits_parked", &RuntimeCounters::barrier_waits_parked);
    fn("refetch_bytes", &RuntimeCounters::refetch_bytes);
    fn("tcp_bytes_sent", &RuntimeCounters::tcp_bytes_sent);
    fn("tcp_frames_sent", &RuntimeCounters::tcp_frames_sent);
    fn("resend_bytes", &RuntimeCounters::resend_bytes);
    fn("replication_bytes", &RuntimeCounters::replication_bytes);
    fn("telemetry_samples", &RuntimeCounters::telemetry_samples);
    fn("telemetry_samples_dropped",
       &RuntimeCounters::telemetry_samples_dropped);
  }

  RuntimeCounters& operator+=(const RuntimeCounters& other) {
    ForEachCounter(
        [&](const char*, auto member) { this->*member += other.*member; });
    return *this;
  }
};

/// Number of listed counters.
inline constexpr size_t kNumRuntimeCounters = [] {
  size_t n = 0;
  RuntimeCounters::ForEachCounter([&n](const char*, auto) { ++n; });
  return n;
}();

// Every counter is 8 bytes wide (uint64_t or double), so a field declared
// above but missing from ForEachCounter breaks this.
static_assert(sizeof(RuntimeCounters) == kNumRuntimeCounters * 8,
              "every RuntimeCounters field must be listed in ForEachCounter");

/// Wall-clock execution statistics for one RuntimeExecutor run. Collected
/// after the worker threads join, so everything here is plain data. The
/// additive counters live in the RuntimeCounters base; the rest describes
/// the run as a whole and is not summed.
struct RuntimeStats : RuntimeCounters {
  uint32_t num_workers = 0;
  uint32_t num_machines = 0;
  /// Worker OS processes in a distributed run (0 for in-process engines).
  uint32_t num_processes = 0;
  int iterations = 0;

  /// Per-worker distribution of barrier_wait_seconds (workers only, main
  /// thread excluded). barrier_wait_seconds adds N workers' overlapping
  /// idle time and so routinely exceeds wall_seconds on wide runs; mean and
  /// max are the per-worker quantities that compare against the wall clock.
  double barrier_wait_mean_s = 0.0;
  double barrier_wait_max_s = 0.0;
  uint64_t barrier_generations = 0;
  /// Stage hand-off latency summed over supersteps: per stage, the time from
  /// the start barrier's flip to the last worker leaving it (see
  /// SuperstepProfile::handoff_s). 0 for engines without a shared barrier.
  double handoff_seconds = 0.0;
  double wall_seconds = 0.0;

  /// Row-major M x M actual bytes moved per (src machine -> dst machine).
  /// Off-diagonal entries are network traffic and, absent faults, must
  /// reconcile exactly with PropagationRunner::link_network_bytes().
  std::vector<uint64_t> link_bytes;

  /// Snapshot of every channel, indexed src * M + dst.
  std::vector<ChannelStats> channels;

  Histogram channel_depth;  ///< queue depth observed at each send, merged
  Histogram barrier_wait;   ///< per-wait seconds, merged across workers
  Histogram batch_fill;     ///< sealed-batch payload bytes / max_batch_bytes

  /// Per-superstep per-machine phase breakdown ({compute, serialize,
  /// blocked, barrier}), one entry per (iteration, stage) in execution
  /// order. Feeds the run report's "timeline" block and the critical-path
  /// analysis; see runtime/timeline.h.
  std::vector<SuperstepProfile> timeline;

  /// Hot-path trace events lost to full ring shards (0 when tracing is off
  /// or every shard kept up). A nonzero value means the Chrome trace is
  /// incomplete, never that the run itself was perturbed.
  uint64_t trace_events_dropped = 0;

  /// Process memory at the end of the run (/proc/self/status; 0 where
  /// unavailable). Peak RSS is the regression-gated quantity: it is
  /// dominated by the run's buffers, pools, and inboxes, so a leak or an
  /// unpooled allocation path shows up here before it shows up in wall time.
  /// Combined across processes by max, never summed.
  uint64_t rss_bytes = 0;
  uint64_t peak_rss_bytes = 0;

  /// Adds a row-major M x M link matrix into link_bytes, element by element.
  /// Entries past either matrix's end are ignored, so the distributed
  /// coordinator rejects a worker's matrix of the wrong shape before it gets
  /// here (net::ValidateWorkerStats).
  void AddLinkBytes(const std::vector<uint64_t>& other) {
    for (size_t i = 0; i < other.size() && i < link_bytes.size(); ++i) {
      link_bytes[i] += other[i];
    }
  }

  uint64_t TotalNetworkBytes() const {
    // Tolerate a default-constructed or truncated matrix: stats objects are
    // plain data that callers may build by hand (reports, tests), and a
    // short `link_bytes` must degrade to "no traffic seen", not index out
    // of bounds.
    uint64_t total = 0;
    const uint32_t n = num_machines;
    for (uint32_t src = 0; src < n; ++src) {
      for (uint32_t dst = 0; dst < n; ++dst) {
        const size_t idx = static_cast<size_t>(src) * n + dst;
        if (src != dst && idx < link_bytes.size()) {
          total += link_bytes[idx];
        }
      }
    }
    return total;
  }
};

}  // namespace runtime
}  // namespace surfer

#endif  // SURFER_RUNTIME_STATS_H_

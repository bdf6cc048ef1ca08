#ifndef SURFER_RUNTIME_STATS_H_
#define SURFER_RUNTIME_STATS_H_

#include <cstdint>
#include <vector>

#include "common/histogram.h"
#include "graph/types.h"
#include "runtime/channel.h"
#include "runtime/timeline.h"

namespace surfer {
namespace runtime {

/// Wall-clock execution statistics for one RuntimeExecutor run. Collected
/// after the worker threads join, so everything here is plain data.
struct RuntimeStats {
  uint32_t num_workers = 0;
  uint32_t num_machines = 0;
  /// Worker OS processes in a distributed run (0 for in-process engines).
  uint32_t num_processes = 0;
  int iterations = 0;

  uint64_t tasks_executed = 0;    ///< transfer + combine tasks run, incl. retries
  uint64_t tasks_reexecuted = 0;  ///< tasks re-run on a replica after a kill
  uint32_t machine_failures = 0;

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
  uint64_t wire_messages_combined = 0;   ///< messages merged away at seal time
  uint64_t wire_flush_size = 0;          ///< seals forced by max_batch_bytes
  uint64_t wire_flush_deadline = 0;      ///< seals forced by the flush deadline
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
  /// Per-worker distribution of the summed wait (workers only, main thread
  /// excluded). barrier_wait_seconds adds N workers' overlapping idle time
  /// and so routinely exceeds wall_seconds on wide runs; mean and max are
  /// the per-worker quantities that compare against the wall clock.
  double barrier_wait_mean_s = 0.0;
  double barrier_wait_max_s = 0.0;
  uint64_t barrier_generations = 0;
  /// Barrier waits released while still spinning vs after parking (workers
  /// and main; see BspBarrier::WaitCounts). Spun stays 0 when the host
  /// cannot give every worker its own hardware thread.
  uint64_t barrier_waits_spun = 0;
  uint64_t barrier_waits_parked = 0;
  /// Stage hand-off latency summed over supersteps: per stage, the time from
  /// the start barrier's flip to the last worker leaving it (see
  /// SuperstepProfile::handoff_s). 0 for engines without a shared barrier.
  double handoff_seconds = 0.0;
  uint64_t refetch_bytes = 0;  ///< replica re-reads triggered by recovery
  double wall_seconds = 0.0;

  // Distributed engine (net/distributed.h) only; all zero elsewhere.
  uint64_t tcp_bytes_sent = 0;    ///< bytes on mesh sockets, headers included
  uint64_t tcp_frames_sent = 0;   ///< mesh frames (data, updates, EOS, acks)
  uint64_t resend_bytes = 0;      ///< recovery replay + re-executed transfer
  uint64_t replication_bytes = 0; ///< post-combine state updates to replicas

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

  /// Flight-recorder tallies (0 when RuntimeOptions::telemetry is off).
  /// Like trace drops, sample drops only mean the recorded window is
  /// partial — the oldest samples were overwritten, the run was untouched.
  uint64_t telemetry_samples = 0;
  uint64_t telemetry_samples_dropped = 0;

  /// Process memory at the end of the run (/proc/self/status; 0 where
  /// unavailable). Peak RSS is the regression-gated quantity: it is
  /// dominated by the run's buffers, pools, and inboxes, so a leak or an
  /// unpooled allocation path shows up here before it shows up in wall time.
  uint64_t rss_bytes = 0;
  uint64_t peak_rss_bytes = 0;

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

#ifndef SURFER_RUNTIME_TIMELINE_H_
#define SURFER_RUNTIME_TIMELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/types.h"
#include "obs/json.h"
#include "runtime/fault.h"

namespace surfer {
namespace runtime {

/// Where one machine's time went during one BSP superstep stage. The four
/// phases mirror the paper's propagation cost decomposition: user compute
/// (Transfer/Combine bodies), serialization (building and reconstructing
/// message buffers), channel-blocked (backpressure stalls on saturated
/// links), and barrier-wait (idle time behind stragglers).
struct PhaseSeconds {
  double compute_s = 0.0;
  double serialize_s = 0.0;
  double blocked_s = 0.0;
  double barrier_s = 0.0;
  /// Wire-batch payload bytes received by this machine during the stage
  /// (batch-level attribution; not a duration, but it rides the same
  /// per-(superstep, machine) slot so reports can correlate bytes with
  /// serialize time).
  double wire_bytes = 0.0;
  /// Messages this machine regrouped through the sort-free counting scatter
  /// during the stage's combine tasks (count, not a duration; rides the slot
  /// like wire_bytes so reports can derive per-stage scatter throughput).
  double scatter_messages = 0.0;
  /// Vertices the frontier-gated combine loop skipped (silent vertices of
  /// SilentVertexSkippableApp partitions; zero for non-conforming apps or
  /// when gating is off).
  double frontier_skipped = 0.0;

  /// Busy time: everything except waiting at the barrier. This is the
  /// quantity the critical path chains, because barrier wait is by
  /// definition time spent behind some *other* machine's busy time.
  double Busy() const { return compute_s + serialize_s + blocked_s; }

  void MergeFrom(const PhaseSeconds& other) {
    compute_s += other.compute_s;
    serialize_s += other.serialize_s;
    blocked_s += other.blocked_s;
    barrier_s += other.barrier_s;
    wire_bytes += other.wire_bytes;
    scatter_messages += other.scatter_messages;
    frontier_skipped += other.frontier_skipped;
  }
};

/// One superstep stage (a Transfer or Combine half of a BSP iteration) with
/// a per-machine phase breakdown. Recovery rounds triggered by faults fold
/// into the same superstep.
struct SuperstepProfile {
  int iteration = 0;
  RuntimeStage stage = RuntimeStage::kTransfer;
  /// Wall-clock bounds of the stage relative to the run's start (schema
  /// v3), stamped by the main thread around the barrier rounds. Both zero
  /// on profiles built by v1/v2-era producers; consumers correlating
  /// telemetry timestamps against supersteps must tolerate that.
  double start_s = 0.0;
  double end_s = 0.0;
  /// Hand-off latency: from the start barrier's flip to the last worker
  /// leaving it. It is the largest per-worker lag, each worker's lag summed
  /// over the stage's recovery rounds, so at most end_s - start_s. Wake-up
  /// cost that no machine's phases see; 0 where the engine does not
  /// measure it.
  double handoff_s = 0.0;
  /// Indexed by machine id; machines that ran nothing stay all-zero.
  std::vector<PhaseSeconds> machines;
};

/// Straggler/skew statistics of one superstep: who was slowest, by how much
/// relative to the mean, and which phase dominated its time.
struct StragglerStats {
  MachineId machine = kInvalidMachine;
  double max_busy_s = 0.0;
  double mean_busy_s = 0.0;
  /// max/mean over machines that did any work; 1.0 means perfectly level.
  double skew = 0.0;
  /// "compute", "serialize", or "blocked" — the slowest machine's top phase.
  std::string dominant_phase;
};

/// One link of the critical path: the slowest machine of one superstep.
struct CriticalPathEntry {
  size_t step = 0;  ///< iteration * 2 + (stage == kCombine)
  int iteration = 0;
  RuntimeStage stage = RuntimeStage::kTransfer;
  MachineId machine = kInvalidMachine;
  double busy_s = 0.0;
};

const char* RuntimeStageName(RuntimeStage stage);

StragglerStats ComputeStraggler(const SuperstepProfile& step);

/// The critical path through the BSP DAG: every barrier generation is a full
/// synchronization point, so the chain of per-superstep slowest machines is
/// exactly the path that bounds response time. Entries for supersteps where
/// no machine did any work are still emitted (busy_s == 0) so the chain
/// always has one entry per superstep.
std::vector<CriticalPathEntry> ComputeCriticalPath(
    const std::vector<SuperstepProfile>& timeline);

/// Serializes the timeline into the run report's "timeline" block (schema
/// v2): {"steps": [...], "critical_path": {...}}. Each step carries its
/// per-machine phase breakdown plus derived straggler stats; the critical
/// path block chains the per-step slowest machines and sums their busy time.
obs::JsonValue TimelineToJson(const std::vector<SuperstepProfile>& timeline);

// ------------------------------------------------------------------ cluster
//
// The distributed engine's cluster-wide view: the coordinator records when
// it broadcast each round and when each worker *process* reported its
// barrier, and the workers' transports record per-(round, inbound link)
// frame-stamp aggregates. Folded together they attribute every round of the
// run to the process that bounded it and the link that fed that process.

/// One BSP round as the coordinator saw it: broadcast time and each
/// process's kRoundDone arrival (coordinator clock throughout).
struct ClusterRoundRecord {
  uint64_t seq = 0;
  int iteration = 0;
  int kind = 0;  ///< net::RoundKind value: 0 transfer, 1 combine, 2 resend
  uint64_t broadcast_unix_us = 0;
  std::vector<uint64_t> done_unix_us;  ///< per process; 0 = never reported
};

/// One per-(round, directed link) latency aggregate derived from frame
/// send/recv stamps. Latencies are clock-offset corrected by the caller
/// before they reach the analysis (the raw transport records are in mixed
/// clocks).
struct ClusterLinkSample {
  uint64_t seq = 0;
  uint32_t from_proc = 0;
  uint32_t to_proc = 0;
  uint32_t frames = 0;
  uint64_t bytes = 0;
  double mean_latency_us = 0.0;
  double max_latency_us = 0.0;
};

/// One round of the cluster critical path: the process whose barrier report
/// bounded the round, and the worst inbound link feeding it that round.
struct ClusterCriticalPathEntry {
  uint64_t seq = 0;
  int iteration = 0;
  int kind = 0;
  uint32_t proc = 0xFFFFFFFFu;  ///< 0xFFFFFFFF = no process reported
  double duration_s = 0.0;
  bool has_link = false;  ///< false when no data frames reached `proc`
  uint32_t link_from = 0;
  double link_mean_latency_us = 0.0;
  double link_max_latency_us = 0.0;
  uint64_t link_bytes = 0;
};

/// Stage name of a net::RoundKind value ("transfer"/"combine"/"resend").
const char* RoundKindName(int kind);

/// Chains the per-round slowest process (latest kRoundDone relative to the
/// round broadcast); every barrier is a full synchronization point, so this
/// is the cluster-level analogue of ComputeCriticalPath. Each entry is
/// annotated with the highest-latency inbound link of its process.
std::vector<ClusterCriticalPathEntry> ComputeClusterCriticalPath(
    const std::vector<ClusterRoundRecord>& rounds,
    const std::vector<ClusterLinkSample>& links);

/// Serializes the cluster view into the merged report's "cluster" block:
/// {"rounds": [...], "links": [...], "critical_path": {...},
///  "stragglers_flagged": n}.
obs::JsonValue ClusterTimelineToJson(
    const std::vector<ClusterRoundRecord>& rounds,
    const std::vector<ClusterLinkSample>& links,
    uint64_t stragglers_flagged);

}  // namespace runtime
}  // namespace surfer

#endif  // SURFER_RUNTIME_TIMELINE_H_

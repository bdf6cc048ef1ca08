#ifndef SURFER_NET_CONTROL_H_
#define SURFER_NET_CONTROL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/types.h"
#include "net/frame.h"
#include "runtime/fault.h"
#include "runtime/stats.h"

namespace surfer {
namespace net {

/// What a BSP round asks the workers to do. kTransfer and kCombine map to
/// the two halves of a superstep; kResend is the recovery-only round that
/// rebuilds a re-homed partition's inbox (retained-batch resend plus
/// re-execution of transfer tasks whose producer died) before its combine
/// task runs on the first alive replica.
enum class RoundKind : uint8_t {
  kTransfer = 0,
  kCombine = 1,
  kResend = 2,
};

/// worker -> coordinator, first control frame: which process this is and
/// where its mesh listener is.
struct HelloMsg {
  uint32_t proc = 0;
  uint16_t mesh_port = 0;
};

/// coordinator -> workers: every process's mesh listener port, indexed by
/// process. Workers build the full mesh from this (process i dials every
/// j < i, accepts from every j > i).
struct PeersMsg {
  std::vector<uint16_t> ports;
};

/// coordinator -> workers: the replica placement table (row-major partition
/// x replica machine ids) and the fault schedule. The placement crossing the
/// control plane — rather than being inherited through fork — is what makes
/// the coordinator the single source of truth for task routing.
struct PlacementMsg {
  uint32_t num_machines = 0;
  uint32_t num_partitions = 0;
  uint32_t replication = 0;
  /// Faults (or a scheduled SIGTERM) are possible this run: workers retain
  /// sent batches for resend and replicate post-combine state to replica
  /// holders. Off on clean runs so the no-fault path pays nothing.
  uint8_t fault_tolerant = 0;
  std::vector<MachineId> replicas;  ///< partition-major, num_partitions x replication
  std::vector<runtime::RuntimeFaultPlan> faults;
  /// Health-plane knobs. heartbeat_period_ms == 0 disables heartbeats;
  /// clock_sync_pings == 0 disables the handshake clock-offset exchange.
  uint32_t heartbeat_period_ms = 0;
  uint32_t clock_sync_pings = 0;
  /// Straggler-injection knob for tests: process `stall_proc` sleeps
  /// `stall_ms` milliseconds at the start of iteration `stall_iteration`'s
  /// combine stage (UINT32_MAX = no stall).
  uint32_t stall_proc = 0xFFFFFFFFu;
  int32_t stall_iteration = 0;
  uint32_t stall_ms = 0;
};

/// coordinator -> workers (kJob): start one job on the session's group.
/// `kind` indexes the worker's table of job entry points, one per app type;
/// `app` is the job's App value as raw bytes, which the entry point checks
/// against sizeof(App) before it uses them.
struct JobMsg {
  uint32_t kind = 0;
  std::vector<uint8_t> app;
};

/// coordinator -> workers: one round of the barrier protocol. `seq` is a
/// monotone round counter over the whole session (EOS frames carry it, so
/// drain progress is unambiguous across recovery rounds and across jobs). `exec[p]` names the machine running
/// partition p's task this round (kInvalidMachine = not scheduled);
/// `route[d]` names the machine to which dst-partition-d traffic must be
/// sent (transfer and resend rounds); `reexec[q]` names the machine that
/// must re-run q's transfer task during a resend round because the original
/// executor died with its retained output.
struct RoundMsg {
  uint32_t seq = 0;
  int32_t iteration = 0;
  RoundKind kind = RoundKind::kTransfer;
  uint8_t recovery = 0;
  std::vector<uint8_t> alive;       ///< per machine
  std::vector<MachineId> exec;      ///< per partition
  std::vector<MachineId> route;     ///< per partition
  std::vector<MachineId> reexec;    ///< per partition
};

/// worker -> coordinator after each completed task.
struct TaskDoneMsg {
  uint32_t partition = 0;
  uint32_t machine = 0;
  int32_t iteration = 0;
  uint8_t kind = 0;  ///< RoundKind of the round the task ran in
};

/// worker -> coordinator (kRoundDone) and worker -> worker (kEos).
struct SeqMsg {
  uint32_t seq = 0;
  uint32_t src_proc = 0;
};

/// worker -> coordinator, periodic (kHeartbeat): a snapshot of the worker's
/// load, sourced from the same providers that feed the TelemetryRecorder
/// gauges. The coordinator folds these into its live status table and the
/// straggler detector; losing one is harmless (the next one supersedes it).
struct HeartbeatMsg {
  uint32_t proc = 0;
  uint32_t stage = 0;          ///< RoundKind of the active round; kIdleStage between rounds
  int32_t iteration = 0;
  uint64_t round_seq = 0;      ///< seq of the round being executed (0 = none yet)
  uint64_t mailbox_frames = 0; ///< undrained inbound frames across all links
  uint64_t inflight_bytes = 0; ///< inbound payload bytes not yet consumed
  uint64_t staged_wire_bytes = 0;  ///< bytes staged for sending
  uint64_t rss_bytes = 0;      ///< 0 when /proc-based sampling is unavailable
  uint32_t barrier_waiting = 0;    ///< 1 while blocked in the EOS drain wait
  uint64_t unix_us = 0;        ///< worker clock when the snapshot was taken
};

/// HeartbeatMsg::stage value meaning "no round is executing".
inline constexpr uint32_t kIdleStage = 0xFFFFFFFFu;

/// Clock-sync session payloads (mesh rendezvous). The interesting
/// timestamps ride in the frame headers, not here: t1 is the ping's
/// send_unix_us, t2 the ping's receive stamp at the server (echoed back in
/// the pong), t3 the pong's own send_unix_us, t4 the pong's receive stamp
/// at the client.
struct ClockPingMsg {
  uint32_t seq = 0;
};
struct ClockPongMsg {
  uint32_t seq = 0;
  uint64_t t1 = 0;  ///< echoed ping send stamp (client clock)
  uint64_t t2 = 0;  ///< ping receive stamp (server clock)
};
/// client -> server at session end: the client's offset estimate so both
/// ends of the link agree (the server stores the negation).
struct ClockOffsetMsg {
  int64_t offset_us = 0;       ///< server clock minus client clock
  uint64_t uncertainty_us = 0; ///< half the minimum observed round trip
};

/// One per-(round, inbound link) latency/queueing record accumulated by the
/// transport receiver threads from frame send/recv stamps. Latencies are in
/// raw clock terms (receiver clock minus sender clock, *not* offset
/// corrected); the analysis side applies the handshake offsets. Laid out
/// padding-free so a vector of them ships raw through the control codec.
struct RoundLinkStat {
  uint64_t seq = 0;            ///< round the frames belonged to
  int32_t iteration = 0;
  uint32_t kind = 0;           ///< RoundKind
  uint32_t from_proc = 0;      ///< sending peer (receiver is the reporting worker)
  uint32_t frames = 0;
  uint64_t bytes = 0;          ///< payload bytes received on the link this round
  int64_t latency_sum_us = 0;  ///< sum of (recv - send) per frame, raw clocks
  int64_t latency_max_us = 0;
  uint64_t first_send_us = 0;  ///< earliest send stamp (sender clock)
  uint64_t last_recv_us = 0;   ///< latest recv stamp (receiver clock)
};
static_assert(std::is_trivially_copyable_v<RoundLinkStat>);
static_assert(sizeof(RoundLinkStat) == 64);

/// worker -> worker after combining a partition (fault-tolerant runs only):
/// the partition's fresh vertex states, and the virtual-vertex outputs its
/// combine produced this iteration, shipped to the partition's other replica
/// holders so a first-alive-replica takeover starts from current state.
struct StateUpdateMsg {
  uint32_t partition = 0;
  int32_t iteration = 0;
  uint32_t begin = 0;       ///< first encoded vertex id of the partition
  uint32_t count = 0;       ///< number of vertices
  std::vector<uint8_t> states;    ///< count * sizeof(VertexState) raw bytes
  uint32_t virtual_count = 0;
  std::vector<uint8_t> virtuals;  ///< virtual_count * (u64 id + VirtualOutput)
};

/// worker -> coordinator at finalize: the worker's additive counters (the
/// RuntimeCounters list, summed across processes by the executor) plus what
/// is genuinely per process.
struct WorkerStatsMsg {
  runtime::RuntimeCounters counters;
  uint64_t peak_rss_bytes = 0;  ///< combined across processes by max
  uint64_t heartbeats_sent = 0;
  uint8_t clock_synced = 0;  ///< handshake ping exchange ran on every link
  std::vector<uint64_t> link_bytes;  ///< row-major M x M, this worker's sends
  /// Estimated peer-clock offsets from the handshake ping exchange, indexed
  /// by process ([self] == 0): offset_us[j] = clock_j - clock_self.
  std::vector<int64_t> clock_offset_us;
  std::vector<uint64_t> clock_uncertainty_us;
  /// Per-(round, inbound link) latency records from frame stamps.
  std::vector<RoundLinkStat> round_link_stats;
};

/// worker -> coordinator at finalize: one partition's final vertex states,
/// stamped with the last iteration whose combine produced them. The
/// coordinator keeps the highest stamp per partition, which is how a replica
/// holder's copy wins over a dead primary's lost one.
struct FinalStateMsg {
  uint32_t partition = 0;
  int32_t version = -1;
  uint32_t begin = 0;
  uint32_t count = 0;
  std::vector<uint8_t> states;
};

/// worker -> coordinator at finalize: iteration-stamped virtual-vertex
/// outputs, entries of (u64 id, i32 version, VirtualOutput bytes).
struct FinalVirtualMsg {
  uint32_t entry_bytes = 0;  ///< sizeof(VirtualOutput)
  uint32_t count = 0;
  std::vector<uint8_t> entries;
};

std::vector<uint8_t> EncodeHello(const HelloMsg& msg);
Result<HelloMsg> DecodeHello(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodePeers(const PeersMsg& msg);
Result<PeersMsg> DecodePeers(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodePlacement(const PlacementMsg& msg);
Result<PlacementMsg> DecodePlacement(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeJob(const JobMsg& msg);
/// The app bytes are the rest of the payload after `kind`.
Result<JobMsg> DecodeJob(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeRound(const RoundMsg& msg);
Result<RoundMsg> DecodeRound(const std::vector<uint8_t>& payload);
/// Checks a decoded round against the run's shape before a worker indexes
/// it: a known kind, exec/route/reexec with one entry per partition, alive
/// with one per machine, and every machine id either kInvalidMachine or a
/// real machine. Corruption otherwise.
Status ValidateRound(const RoundMsg& msg, uint32_t num_partitions,
                     uint32_t num_machines);

std::vector<uint8_t> EncodeTaskDone(const TaskDoneMsg& msg);
Result<TaskDoneMsg> DecodeTaskDone(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeSeq(const SeqMsg& msg);
Result<SeqMsg> DecodeSeq(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeHeartbeat(const HeartbeatMsg& msg);
Result<HeartbeatMsg> DecodeHeartbeat(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeClockPing(const ClockPingMsg& msg);
Result<ClockPingMsg> DecodeClockPing(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeClockPong(const ClockPongMsg& msg);
Result<ClockPongMsg> DecodeClockPong(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeClockOffset(const ClockOffsetMsg& msg);
Result<ClockOffsetMsg> DecodeClockOffset(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeStateUpdate(const StateUpdateMsg& msg);
Result<StateUpdateMsg> DecodeStateUpdate(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeWorkerStats(const WorkerStatsMsg& msg);
Result<WorkerStatsMsg> DecodeWorkerStats(const std::vector<uint8_t>& payload);
/// Checks a decoded stats message against the run's shape before the
/// coordinator merges it: a link matrix of exactly M x M entries, clock
/// vectors that are empty or hold one entry per process, and every round
/// link's sender a real process. Corruption otherwise.
Status ValidateWorkerStats(const WorkerStatsMsg& msg, uint32_t num_machines,
                           uint32_t num_processes);

std::vector<uint8_t> EncodeFinalState(const FinalStateMsg& msg);
Result<FinalStateMsg> DecodeFinalState(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeFinalVirtual(const FinalVirtualMsg& msg);
Result<FinalVirtualMsg> DecodeFinalVirtual(const std::vector<uint8_t>& payload);

}  // namespace net
}  // namespace surfer

#endif  // SURFER_NET_CONTROL_H_

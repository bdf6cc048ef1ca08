#ifndef SURFER_NET_COORDINATOR_H_
#define SURFER_NET_COORDINATOR_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <sys/types.h>
#include <vector>

#include "common/result.h"
#include "graph/types.h"
#include "net/control.h"
#include "net/frame.h"
#include "net/socket.h"
#include "obs/json.h"
#include "runtime/timeline.h"
#include "storage/replication.h"

namespace surfer {
namespace net {

/// Everything the coordinator needs to drive a distributed run; the
/// app-typed executor builds this and supplies a fork entry point.
struct CoordinatorParams {
  uint32_t num_processes = 0;
  uint32_t num_machines = 0;
  int iterations = 1;
  /// Broadcast to every worker after the hello round; fault_tolerant and the
  /// fault plans inside gate the recovery machinery on both sides.
  PlacementMsg placement;
  /// The replica table behind `placement` (not owned); the coordinator's
  /// source of first-alive-replica assignment.
  const ReplicatedPlacement* replicas = nullptr;
  /// Deliver a real SIGTERM to the process hosting this machine right before
  /// the given iteration (graceful-decommission drill); kInvalidMachine = off.
  MachineId sigterm_machine = kInvalidMachine;
  int sigterm_iteration = 0;
  /// Online straggler detection: a process still holding up a round after
  /// straggler_multiple x the trailing-median round duration (with an
  /// absolute floor so microsecond rounds don't false-flag) is logged and
  /// counted. Detection needs a few completed rounds of history first.
  double straggler_multiple = 4.0;
  uint32_t straggler_min_ms = 250;
  /// Live-status sink: called with the freshly rendered status table
  /// whenever a heartbeat lands or a straggler is flagged (surfer_dist
  /// --watch wires this to stderr; CI tees it to a file). Null = off.
  std::function<void(const std::string&)> status_sink;
};

/// Where the coordinator's own wall time went in one job. The phases run
/// back to back, so their sum is the time RunJob took (plus Close, for a
/// one-shot run that closes its group). A job on a group that is already
/// formed spends nothing in spawn and handshake; reap counts closing a
/// broken group before re-forming it, and closing the group after a
/// one-shot job.
struct CoordinatorPhases {
  double spawn_s = 0.0;      ///< fork every worker
  double handshake_s = 0.0;  ///< hello -> peers + placement -> ready
  double rounds_s = 0.0;     ///< kJob, then every BSP round, recovery included
  double finalize_s = 0.0;   ///< kFinalize to the last worker's kFinalDone
  double reap_s = 0.0;       ///< wait for every worker's exit
};

/// What a completed job hands back to the executor. Every count is this
/// job's own, never a session total.
struct CoordinatorOutcome {
  uint32_t machine_failures = 0;
  uint64_t rounds = 0;           ///< BSP rounds driven (>= 2 per iteration)
  uint64_t recovery_rounds = 0;  ///< re-assignment + resend rounds
  std::vector<uint8_t> alive;    ///< final per-machine liveness
  /// Per-partition final states as received, possibly several versions of
  /// the same partition from different replica holders; the executor keeps
  /// the highest-version copy.
  std::vector<FinalStateMsg> states;
  std::vector<FinalVirtualMsg> virtuals;
  /// Per-process run-report JSON (empty string for processes that died).
  std::vector<std::string> worker_reports;
  /// Per-process finalize stats as received (default-constructed for dead
  /// processes). The executor sums their counters and link matrices, and
  /// needs each worker's clock-offset table and round link stats
  /// individually for the cluster critical path.
  std::vector<WorkerStatsMsg> worker_stats;
  /// Coordinator-clock timing of every round driven, in order.
  std::vector<runtime::ClusterRoundRecord> round_records;
  /// (round, process) pairs the online detector flagged as stragglers.
  uint64_t stragglers_flagged = 0;
  CoordinatorPhases phases;
  /// Control frames the coordinator read, by type.
  std::map<FrameType, uint64_t> control_frames_read;
};

/// Sets the cluster block's coordinator keys on `cluster`: "coordinator_s"
/// {"spawn", "handshake", "rounds", "finalize", "reap"} and
/// "control_frames_read" {"<type>": n, ...}, which names every type a worker
/// sends on the control plane, zero if none arrived.
void SetCoordinatorCosts(const CoordinatorOutcome& outcome,
                         obs::JsonValue& cluster);

/// Parent-process side of the distributed engine. It keeps one worker
/// group per session: the first job forks one worker process per simulated
/// machine group and runs the setup rendezvous (hello -> peers + placement
/// -> mesh + clock sync -> ready); every job after it reuses the group. A
/// job is one kJob frame carrying the app, the BSP rounds over control
/// frames, and the result collection. Round seqs keep increasing across a
/// session's jobs, so no job's kEos can satisfy a later job's drain.
///
/// Per stage it assigns every pending partition to its first alive replica
/// holder and broadcasts a kRound; workers report kRoundDone when their
/// round (work + mesh drain) is complete. A round that every process
/// reported and none died in completes every task it assigned, so the
/// coordinator marks them done itself; only fault-tolerant runs, where a
/// death can cut a round short, also report kTaskDone per task. A worker
/// process that dies — fault-plan self-kill, delivered SIGTERM, or crash —
/// surfaces as EOF on its control socket; the coordinator marks its hosted
/// machines dead, treats its round as implicitly done, and schedules
/// recovery: re-assignment rounds for unexecuted tasks, and resend rounds
/// (retained-batch replay + transfer re-execution) to rebuild the inboxes of
/// partitions whose holders died before combining. A death in a
/// non-fault-tolerant run aborts the job instead. A group that lost a
/// worker, or whose worker exited or spoke out of turn between jobs, is
/// closed and re-formed before the next job starts; a failed job closes it.
///
/// After sending its results (kFinalDone) a worker waits for the next kJob.
/// It exits on EOF of its control socket: cleanly (0) between jobs, as a
/// fault (2) inside one. Every reap waits for that exit: the worker holds
/// the only other end of its control socket, so its EOF there is the exit,
/// and a blocking waitpid follows.
///
/// Not thread-safe: the session that owns it serializes jobs.
class DistributedCoordinator {
 public:
  /// Runs the worker side in the forked child. Must never return; the child
  /// _exits. Receives the child's process index and control socket.
  using WorkerEntry = std::function<void(uint32_t proc, Socket control)>;

  DistributedCoordinator(CoordinatorParams params, WorkerEntry entry);
  /// Closes the group.
  ~DistributedCoordinator();

  DistributedCoordinator(const DistributedCoordinator&) = delete;
  DistributedCoordinator& operator=(const DistributedCoordinator&) = delete;

  /// Runs one job: forms the group first unless a healthy one is open,
  /// sends `job`, drives every round, and collects the results. Leaves the
  /// group open after a job that succeeded, and closes it (reaping every
  /// child) before returning an error.
  Result<CoordinatorOutcome> RunJob(const JobMsg& job);

  /// Half-closes every control socket and reaps every child; returns the
  /// seconds it took. A no-op on a closed group.
  double Close();

  /// The open group's live worker pids, in process order (empty when
  /// closed).
  std::vector<pid_t> worker_pids() const;

 private:
  struct Proc {
    pid_t pid = -1;
    Socket control;
    bool alive = false;
    bool reaped = false;
  };

  struct Event {
    bool death = false;
    uint32_t proc = 0;
    Frame frame;
  };

  /// True when a group is open, every worker is alive and none has written
  /// to or closed its control socket since the last job.
  bool GroupReady() const;
  Status Spawn();
  Status HandshakeAll();
  /// Broadcasts kJob to every live worker.
  Status StartJob(const JobMsg& job);
  Status RunBsp(CoordinatorOutcome* out);
  Status RunStage(RoundKind stage_kind, int iteration,
                  CoordinatorOutcome* out);
  /// Broadcasts one round and pumps control events until every alive
  /// process reported kRoundDone. `deaths` counts processes lost mid-round.
  Status DriveRound(RoundMsg round, CoordinatorOutcome* out, int* deaths);
  /// Records what the per-task kTaskDone frames of a round that completed
  /// with no death would have: every task the round assigned is done.
  void MarkRoundTasksDone(const RoundMsg& round);
  Status Finalize(CoordinatorOutcome* out);

  /// Reads one frame from a worker's control socket and counts it by type.
  Result<Frame> ReadControl(uint32_t proc);
  Result<Event> WaitControlEvent();
  /// Marks a process (and its hosted machines) dead and reaps it. Returns an
  /// error when the run is not fault tolerant. The group stays short of this
  /// worker until it is re-formed before the next job.
  Status MarkProcDead(uint32_t proc);
  /// Waits for the child's exit (control EOF, then a blocking waitpid),
  /// killing it if it has not exited within the reap grace period, and
  /// closes our end of its control socket.
  void ReapChild(Proc& proc);
  Status DeliverSigterm(CoordinatorOutcome* out);

  /// Live health plane: folds one heartbeat into the status table and
  /// pushes the re-rendered table to the sink.
  void NoteHeartbeat(uint32_t proc, const HeartbeatMsg& hb);
  /// Flags processes still holding up the current round once its elapsed
  /// time exceeds the trailing-median threshold; called on every control
  /// event while a round is in flight.
  void CheckStragglers(const RoundMsg& round, const std::vector<uint8_t>& expect,
                       uint64_t started_us, CoordinatorOutcome* out);
  std::string RenderStatusTable() const;
  void EmitStatus();

  bool HostsMachine(uint32_t proc, MachineId m) const {
    return m % params_.num_processes == proc;
  }

  CoordinatorParams params_;
  WorkerEntry entry_;
  bool fault_tolerant_ = false;

  std::vector<Proc> procs_;  ///< the open group; empty when closed
  std::vector<uint8_t> alive_machines_;
  /// Last round seq sent; never reset, so it increases across the session.
  uint32_t seq_ = 0;
  uint32_t machine_failures_ = 0;
  bool sigterm_delivered_ = false;

  /// Live health plane state.
  struct LiveProc {
    HeartbeatMsg hb;
    uint64_t hb_recv_us = 0;  ///< 0 = no heartbeat yet
    bool straggler = false;   ///< flagged in the round currently in flight
  };
  std::vector<LiveProc> live_;
  std::deque<double> round_durations_s_;  ///< trailing completed rounds
  uint64_t stragglers_flagged_ = 0;
  std::map<FrameType, uint64_t> frames_read_;

  // Per-stage scheduling state.
  std::vector<uint8_t> done_;
  /// holders_[p]: machines that may hold chunks of p's inbox this iteration
  /// (transfer-round routes, collapsed to the resend assignee after a clean
  /// resend). Any dead holder means p's inbox must be rebuilt.
  std::vector<std::vector<MachineId>> holders_;
  /// transfer_exec_[q]: machine whose process holds q's retained transfer
  /// output (last reported executor). Dead executor => re-execute during the
  /// next resend round.
  std::vector<MachineId> transfer_exec_;
};

}  // namespace net
}  // namespace surfer

#endif  // SURFER_NET_COORDINATOR_H_

#include "net/coordinator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <csignal>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#include <utility>

#include "common/logging.h"
#include "net/frame.h"

namespace surfer {
namespace net {

namespace {

/// How long the coordinator waits for any control event before declaring the
/// run wedged. Generous: workers only go quiet while computing.
constexpr int kEventTimeoutMs = 120000;

/// How long a reap waits for the child's exit before SIGKILL.
constexpr int kReapGraceMs = 10000;

/// Completed-round history the straggler detector's trailing median uses.
constexpr size_t kRoundHistory = 16;
/// Completed rounds needed before the detector trusts its median at all.
constexpr size_t kMinRoundHistory = 3;

/// Every frame type a worker sends on the control plane, with its key in
/// the cluster block's control_frames_read.
constexpr std::pair<FrameType, const char*> kWorkerControlFrames[] = {
    {FrameType::kHello, "hello"},
    {FrameType::kReady, "ready"},
    {FrameType::kTaskDone, "task_done"},
    {FrameType::kRoundDone, "round_done"},
    {FrameType::kHeartbeat, "heartbeat"},
    {FrameType::kWorkerStats, "worker_stats"},
    {FrameType::kFinalState, "final_state"},
    {FrameType::kFinalVirtual, "final_virtual"},
    {FrameType::kWorkerReport, "worker_report"},
    {FrameType::kFinalDone, "final_done"},
};

/// Half-closes `fd` and discards what the peer still writes until its EOF.
/// Returns false if no EOF came within `grace_ms`.
bool AwaitPeerEof(int fd, int grace_ms) {
  ::shutdown(fd, SHUT_WR);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(grace_ms);
  char sink[4096];
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() < 0) {
      return false;
    }
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(left.count()) + 1);
    if (rc < 0 && errno == EINTR) {
      continue;
    }
    if (rc <= 0) {
      return false;
    }
    const ssize_t n = ::read(fd, sink, sizeof(sink));
    if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN)) {
      return true;  // EOF, or the reset of a peer that closed unread input
    }
  }
}

double SecondsSince(std::chrono::steady_clock::time_point& mark) {
  const auto now = std::chrono::steady_clock::now();
  const double s = std::chrono::duration<double>(now - mark).count();
  mark = now;
  return s;
}

}  // namespace

void SetCoordinatorCosts(const CoordinatorOutcome& outcome,
                         obs::JsonValue& cluster) {
  const CoordinatorPhases& p = outcome.phases;
  obs::JsonValue::Object phases = {{"spawn", p.spawn_s},
                                   {"handshake", p.handshake_s},
                                   {"rounds", p.rounds_s},
                                   {"finalize", p.finalize_s},
                                   {"reap", p.reap_s}};
  cluster.Set("coordinator_s", std::move(phases));
  obs::JsonValue::Object frames;
  for (const auto& [type, name] : kWorkerControlFrames) {
    const auto it = outcome.control_frames_read.find(type);
    frames.emplace_back(name, it == outcome.control_frames_read.end()
                                  ? uint64_t{0}
                                  : it->second);
  }
  cluster.Set("control_frames_read", std::move(frames));
}

DistributedCoordinator::DistributedCoordinator(CoordinatorParams params,
                                               WorkerEntry entry)
    : params_(std::move(params)), entry_(std::move(entry)) {}

DistributedCoordinator::~DistributedCoordinator() { Close(); }

Result<CoordinatorOutcome> DistributedCoordinator::RunJob(const JobMsg& job) {
  if (params_.num_processes == 0 || params_.num_machines == 0 ||
      params_.replicas == nullptr || entry_ == nullptr) {
    return Status::InvalidArgument("coordinator params incomplete");
  }
  fault_tolerant_ = params_.placement.fault_tolerant != 0;
  alive_machines_.assign(params_.num_machines, 1);
  machine_failures_ = 0;
  sigterm_delivered_ = false;
  live_.assign(params_.num_processes, LiveProc{});
  round_durations_s_.clear();
  stragglers_flagged_ = 0;
  frames_read_.clear();

  CoordinatorOutcome out;
  out.worker_reports.assign(params_.num_processes, "");
  out.worker_stats.assign(params_.num_processes, WorkerStatsMsg{});

  Status st;
  auto mark = std::chrono::steady_clock::now();
  if (!GroupReady()) {
    // A closed group, or one that lost or broke a worker: (re-)form it.
    out.phases.reap_s = Close();
    mark = std::chrono::steady_clock::now();
    st = Spawn();
    out.phases.spawn_s = SecondsSince(mark);
    if (st.ok()) {
      st = HandshakeAll();
      out.phases.handshake_s = SecondsSince(mark);
    }
  }
  if (st.ok()) {
    st = StartJob(job);
  }
  if (st.ok()) {
    st = RunBsp(&out);
    out.phases.rounds_s = SecondsSince(mark);
  }
  if (st.ok()) {
    st = Finalize(&out);
    out.phases.finalize_s = SecondsSince(mark);
  }
  if (!st.ok()) {
    Close();
    return st;
  }
  out.alive = alive_machines_;
  out.machine_failures = machine_failures_;
  out.stragglers_flagged = stragglers_flagged_;
  out.control_frames_read = frames_read_;
  return out;
}

double DistributedCoordinator::Close() {
  if (procs_.empty()) {
    return 0.0;
  }
  auto mark = std::chrono::steady_clock::now();
  // Half-close them all first, so no worker's exit waits on a reap order.
  for (Proc& proc : procs_) {
    if (proc.control.valid()) {
      ::shutdown(proc.control.fd(), SHUT_WR);
    }
  }
  for (Proc& proc : procs_) {
    ReapChild(proc);
  }
  procs_.clear();
  return SecondsSince(mark);
}

std::vector<pid_t> DistributedCoordinator::worker_pids() const {
  std::vector<pid_t> pids;
  for (const Proc& proc : procs_) {
    if (proc.alive) {
      pids.push_back(proc.pid);
    }
  }
  return pids;
}

bool DistributedCoordinator::GroupReady() const {
  if (procs_.empty()) {
    return false;
  }
  for (const Proc& proc : procs_) {
    if (!proc.alive) {
      return false;
    }
    // An idle worker writes nothing, so readable control is an exit (EOF)
    // or a protocol fault; either way the group is re-formed.
    pollfd pfd{proc.control.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 0) != 0) {
      return false;
    }
  }
  return true;
}

Status DistributedCoordinator::Spawn() {
  procs_.clear();
  procs_.resize(params_.num_processes);
  for (uint32_t i = 0; i < params_.num_processes; ++i) {
    SURFER_ASSIGN_OR_RETURN(auto pair, Socket::Pair());
    Socket parent_end = std::move(pair.first);
    Socket child_end = std::move(pair.second);
    const pid_t pid = ::fork();
    if (pid < 0) {
      return Status::IOError("fork failed");
    }
    if (pid == 0) {
      // Child: drop every inherited parent-side control socket (earlier
      // children's and our own) so control EOF tracks process death exactly,
      // then hand off to the worker entry. The entry must _exit.
      for (uint32_t j = 0; j < i; ++j) {
        procs_[j].control.Close();
      }
      parent_end.Close();
      entry_(i, std::move(child_end));
      ::_exit(3);  // entry returned: protocol bug, die loudly
    }
    procs_[i].pid = pid;
    procs_[i].control = std::move(parent_end);
    procs_[i].alive = true;
    // child_end closes here in the parent (scope exit).
  }
  return Status::OK();
}

Status DistributedCoordinator::HandshakeAll() {
  PeersMsg peers;
  peers.ports.assign(params_.num_processes, 0);
  for (uint32_t i = 0; i < params_.num_processes; ++i) {
    SURFER_ASSIGN_OR_RETURN(Frame frame, ReadControl(i));
    if (frame.type != FrameType::kHello) {
      return Status::Internal("expected kHello from worker " +
                              std::to_string(i));
    }
    SURFER_ASSIGN_OR_RETURN(HelloMsg hello, DecodeHello(frame.payload));
    if (hello.proc != i) {
      return Status::Internal("worker identity mismatch in hello");
    }
    peers.ports[i] = hello.mesh_port;
  }
  const std::vector<uint8_t> peers_payload = EncodePeers(peers);
  const std::vector<uint8_t> placement_payload =
      EncodePlacement(params_.placement);
  for (uint32_t i = 0; i < params_.num_processes; ++i) {
    SURFER_RETURN_IF_ERROR(
        WriteFrame(procs_[i].control, FrameType::kPeers, peers_payload));
    SURFER_RETURN_IF_ERROR(WriteFrame(procs_[i].control, FrameType::kPlacement,
                                      placement_payload));
  }
  for (uint32_t i = 0; i < params_.num_processes; ++i) {
    SURFER_ASSIGN_OR_RETURN(Frame frame, ReadControl(i));
    if (frame.type != FrameType::kReady) {
      return Status::Internal("expected kReady from worker " +
                              std::to_string(i));
    }
  }
  return Status::OK();
}

Status DistributedCoordinator::StartJob(const JobMsg& job) {
  const std::vector<uint8_t> payload = EncodeJob(job);
  for (uint32_t i = 0; i < procs_.size(); ++i) {
    if (!WriteFrame(procs_[i].control, FrameType::kJob, payload).ok()) {
      SURFER_RETURN_IF_ERROR(MarkProcDead(i));
    }
  }
  return Status::OK();
}

Status DistributedCoordinator::RunBsp(CoordinatorOutcome* out) {
  for (int iteration = 0; iteration < params_.iterations; ++iteration) {
    if (params_.sigterm_machine != kInvalidMachine && !sigterm_delivered_ &&
        iteration == params_.sigterm_iteration) {
      SURFER_RETURN_IF_ERROR(DeliverSigterm(out));
    }
    SURFER_RETURN_IF_ERROR(RunStage(RoundKind::kTransfer, iteration, out));
    SURFER_RETURN_IF_ERROR(RunStage(RoundKind::kCombine, iteration, out));
  }
  return Status::OK();
}

Status DistributedCoordinator::RunStage(RoundKind stage_kind, int iteration,
                                        CoordinatorOutcome* out) {
  const uint32_t num_partitions = params_.placement.num_partitions;
  const char* stage_name =
      stage_kind == RoundKind::kTransfer ? "transfer" : "combine";
  done_.assign(num_partitions, 0);
  if (stage_kind == RoundKind::kTransfer) {
    holders_.assign(num_partitions, {});
    transfer_exec_.assign(num_partitions, kInvalidMachine);
  }
  bool recovery = false;
  for (;;) {
    std::vector<PartitionId> pending;
    for (PartitionId p = 0; p < num_partitions; ++p) {
      if (!done_[p]) {
        pending.push_back(p);
      }
    }
    if (pending.empty()) {
      return Status::OK();
    }

    if (stage_kind == RoundKind::kCombine) {
      // Partitions whose inbox holders died must be rebuilt before (or
      // instead of re-running) their combine: a resend round replays every
      // retained batch destined to them and re-executes the transfer tasks
      // whose producer died with its retained output.
      std::vector<uint8_t> rebuild(num_partitions, 0);
      bool any_rebuild = false;
      for (PartitionId p : pending) {
        for (MachineId h : holders_[p]) {
          if (!alive_machines_[h]) {
            rebuild[p] = 1;
            any_rebuild = true;
            break;
          }
        }
      }
      if (any_rebuild) {
        RoundMsg round;
        round.kind = RoundKind::kResend;
        round.iteration = iteration;
        round.recovery = 1;
        round.exec.assign(num_partitions, kInvalidMachine);
        round.route.assign(num_partitions, kInvalidMachine);
        round.reexec.assign(num_partitions, kInvalidMachine);
        for (PartitionId p = 0; p < num_partitions; ++p) {
          if (rebuild[p]) {
            const MachineId m =
                params_.replicas->FirstAliveReplica(p, alive_machines_);
            if (m == kInvalidMachine) {
              return Status::Internal(
                  "all replicas of partition " + std::to_string(p) +
                  " are dead; combine stage cannot recover");
            }
            round.exec[p] = m;
            round.route[p] = m;
          }
          if (transfer_exec_[p] != kInvalidMachine &&
              !alive_machines_[transfer_exec_[p]]) {
            const MachineId m =
                params_.replicas->FirstAliveReplica(p, alive_machines_);
            if (m == kInvalidMachine) {
              return Status::Internal(
                  "all replicas of partition " + std::to_string(p) +
                  " are dead; transfer output cannot be rebuilt");
            }
            round.reexec[p] = m;
          }
        }
        const std::vector<MachineId> assignees = round.exec;
        int deaths = 0;
        SURFER_RETURN_IF_ERROR(DriveRound(std::move(round), out, &deaths));
        ++out->recovery_rounds;
        if (deaths == 0) {
          // A clean resend collapses each rebuilt partition's holder set to
          // its new (alive) assignee. A resend interrupted by another death
          // keeps the old holder set — the dead holder it still names puts
          // the partition straight back into the next rebuild set.
          for (PartitionId p = 0; p < num_partitions; ++p) {
            if (rebuild[p]) {
              holders_[p].assign(1, assignees[p]);
            }
          }
        }
        continue;
      }
    }

    RoundMsg round;
    round.kind = stage_kind;
    round.iteration = iteration;
    round.recovery = recovery ? 1 : 0;
    round.exec.assign(num_partitions, kInvalidMachine);
    round.route.assign(num_partitions, kInvalidMachine);
    round.reexec.assign(num_partitions, kInvalidMachine);
    for (PartitionId p : pending) {
      const MachineId m =
          params_.replicas->FirstAliveReplica(p, alive_machines_);
      if (m == kInvalidMachine) {
        return Status::Internal("all replicas of partition " +
                                std::to_string(p) + " are dead; " +
                                stage_name + " stage cannot recover");
      }
      round.exec[p] = m;
    }
    if (stage_kind == RoundKind::kTransfer) {
      for (PartitionId d = 0; d < num_partitions; ++d) {
        const MachineId r =
            params_.replicas->FirstAliveReplica(d, alive_machines_);
        if (r == kInvalidMachine) {
          return Status::Internal("all replicas of partition " +
                                  std::to_string(d) +
                                  " are dead; transfer stage cannot route");
        }
        round.route[d] = r;
        // The route machine may now hold chunks of d's inbox whether or not
        // this round completes cleanly.
        if (std::find(holders_[d].begin(), holders_[d].end(), r) ==
            holders_[d].end()) {
          holders_[d].push_back(r);
        }
      }
    }
    int deaths = 0;
    SURFER_RETURN_IF_ERROR(DriveRound(std::move(round), out, &deaths));
    if (recovery) {
      ++out->recovery_rounds;
    }
    recovery = true;
  }
}

Status DistributedCoordinator::DriveRound(RoundMsg round,
                                          CoordinatorOutcome* out,
                                          int* deaths) {
  round.seq = ++seq_;
  round.alive = alive_machines_;
  const uint64_t started_us = NowUnixUs();
  runtime::ClusterRoundRecord record;
  record.seq = round.seq;
  record.iteration = round.iteration;
  record.kind = static_cast<int>(round.kind);
  record.broadcast_unix_us = started_us;
  record.done_unix_us.assign(procs_.size(), 0);
  for (LiveProc& lp : live_) {
    lp.straggler = false;
  }
  const std::vector<uint8_t> payload = EncodeRound(round);
  std::vector<uint8_t> expect(procs_.size(), 0);
  size_t waiting = 0;
  for (uint32_t i = 0; i < procs_.size(); ++i) {
    if (!procs_[i].alive) {
      continue;
    }
    if (!WriteFrame(procs_[i].control, FrameType::kRound, payload).ok()) {
      SURFER_RETURN_IF_ERROR(MarkProcDead(i));
      ++*deaths;
      continue;
    }
    expect[i] = 1;
    ++waiting;
  }
  while (waiting > 0) {
    SURFER_ASSIGN_OR_RETURN(Event event, WaitControlEvent());
    if (event.death) {
      SURFER_RETURN_IF_ERROR(MarkProcDead(event.proc));
      ++*deaths;
      if (expect[event.proc]) {
        expect[event.proc] = 0;
        --waiting;
      }
      continue;
    }
    switch (event.frame.type) {
      case FrameType::kTaskDone: {
        SURFER_ASSIGN_OR_RETURN(TaskDoneMsg task,
                                DecodeTaskDone(event.frame.payload));
        if (task.partition >= done_.size()) {
          return Status::Internal("task-done partition out of range");
        }
        if (task.kind == static_cast<uint8_t>(RoundKind::kResend)) {
          transfer_exec_[task.partition] = task.machine;
        } else {
          done_[task.partition] = 1;
          if (task.kind == static_cast<uint8_t>(RoundKind::kTransfer)) {
            transfer_exec_[task.partition] = task.machine;
          }
        }
        break;
      }
      case FrameType::kRoundDone: {
        SURFER_ASSIGN_OR_RETURN(SeqMsg done, DecodeSeq(event.frame.payload));
        if (done.seq == round.seq && expect[event.proc]) {
          record.done_unix_us[event.proc] = NowUnixUs();
          expect[event.proc] = 0;
          --waiting;
        }
        break;
      }
      case FrameType::kHeartbeat: {
        SURFER_ASSIGN_OR_RETURN(HeartbeatMsg hb,
                                DecodeHeartbeat(event.frame.payload));
        NoteHeartbeat(event.proc, hb);
        break;
      }
      default:
        break;
    }
    CheckStragglers(round, expect, started_us, out);
  }
  if (*deaths == 0) {
    MarkRoundTasksDone(round);
  }
  round_durations_s_.push_back(
      static_cast<double>(NowUnixUs() - started_us) / 1e6);
  if (round_durations_s_.size() > kRoundHistory) {
    round_durations_s_.pop_front();
  }
  out->round_records.push_back(std::move(record));
  ++out->rounds;
  return Status::OK();
}

void DistributedCoordinator::MarkRoundTasksDone(const RoundMsg& round) {
  // The same records the kTaskDone handler makes, task by task.
  for (PartitionId p = 0; p < done_.size(); ++p) {
    if (round.kind == RoundKind::kResend) {
      if (round.reexec[p] != kInvalidMachine) {
        transfer_exec_[p] = round.reexec[p];
      }
      continue;
    }
    if (round.exec[p] == kInvalidMachine) {
      continue;
    }
    done_[p] = 1;
    if (round.kind == RoundKind::kTransfer) {
      transfer_exec_[p] = round.exec[p];
    }
  }
}

void DistributedCoordinator::NoteHeartbeat(uint32_t proc,
                                           const HeartbeatMsg& hb) {
  if (proc >= live_.size()) {
    return;
  }
  live_[proc].hb = hb;
  live_[proc].hb_recv_us = NowUnixUs();
  EmitStatus();
}

void DistributedCoordinator::CheckStragglers(
    const RoundMsg& round, const std::vector<uint8_t>& expect,
    uint64_t started_us, CoordinatorOutcome* out) {
  if (round_durations_s_.size() < kMinRoundHistory) {
    return;
  }
  std::vector<double> window(round_durations_s_.begin(),
                             round_durations_s_.end());
  std::nth_element(window.begin(), window.begin() + window.size() / 2,
                   window.end());
  const double median_s = window[window.size() / 2];
  const double threshold_s =
      std::max(median_s * params_.straggler_multiple,
               static_cast<double>(params_.straggler_min_ms) / 1e3);
  const double elapsed_s =
      static_cast<double>(NowUnixUs() - started_us) / 1e6;
  if (elapsed_s <= threshold_s) {
    return;
  }
  bool flagged = false;
  for (uint32_t i = 0; i < expect.size(); ++i) {
    if (!expect[i] || live_[i].straggler) {
      continue;
    }
    // A process whose last heartbeat says it waits at this round's barrier
    // is held up by the straggler, not one itself.
    const HeartbeatMsg& hb = live_[i].hb;
    if (live_[i].hb_recv_us != 0 && hb.round_seq == round.seq &&
        hb.barrier_waiting != 0) {
      continue;
    }
    live_[i].straggler = true;
    ++stragglers_flagged_;
    flagged = true;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "straggler: process %u still running round %u "
                  "(%s, iteration %d) after %.3fs (median %.3fs x %.1f)",
                  i, round.seq, runtime::RoundKindName(
                                    static_cast<int>(round.kind)),
                  round.iteration, elapsed_s, median_s,
                  params_.straggler_multiple);
    SURFER_LOG(kWarning) << buf;
  }
  if (flagged) {
    out->stragglers_flagged = stragglers_flagged_;
    EmitStatus();
  }
}

std::string DistributedCoordinator::RenderStatusTable() const {
  const uint64_t now_us = NowUnixUs();
  std::string table =
      "proc  state     stage     iter  round  mailbox  inflight_kb  "
      "staged_kb  rss_mb  barrier  hb_age_ms\n";
  for (uint32_t i = 0; i < procs_.size(); ++i) {
    const LiveProc& lp = live_[i];
    const char* state = !procs_[i].alive ? "dead"
                        : lp.straggler   ? "STRAGGLE"
                                         : "alive";
    const char* stage =
        lp.hb_recv_us == 0     ? "-"
        : lp.hb.stage == kIdleStage
            ? "idle"
            : runtime::RoundKindName(static_cast<int>(lp.hb.stage));
    const double hb_age_ms =
        lp.hb_recv_us == 0
            ? -1.0
            : static_cast<double>(now_us - lp.hb_recv_us) / 1e3;
    char row[192];
    std::snprintf(row, sizeof(row),
                  "%-5u %-9s %-9s %-5d %-6llu %-8llu %-12.1f %-10.1f "
                  "%-7.1f %-8u %.0f\n",
                  i, state, stage, lp.hb.iteration,
                  static_cast<unsigned long long>(lp.hb.round_seq),
                  static_cast<unsigned long long>(lp.hb.mailbox_frames),
                  static_cast<double>(lp.hb.inflight_bytes) / 1024.0,
                  static_cast<double>(lp.hb.staged_wire_bytes) / 1024.0,
                  static_cast<double>(lp.hb.rss_bytes) / (1024.0 * 1024.0),
                  lp.hb.barrier_waiting, hb_age_ms);
    table += row;
  }
  return table;
}

void DistributedCoordinator::EmitStatus() {
  if (params_.status_sink) {
    params_.status_sink(RenderStatusTable());
  }
}

Result<DistributedCoordinator::Event>
DistributedCoordinator::WaitControlEvent() {
  std::vector<pollfd> fds;
  std::vector<uint32_t> owner;
  for (uint32_t i = 0; i < procs_.size(); ++i) {
    if (procs_[i].alive) {
      fds.push_back(pollfd{procs_[i].control.fd(), POLLIN, 0});
      owner.push_back(i);
    }
  }
  if (fds.empty()) {
    return Status::Internal("no live worker processes to wait on");
  }
  int rc;
  do {
    rc = ::poll(fds.data(), fds.size(), kEventTimeoutMs);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    return Status::IOError("poll on control sockets failed");
  }
  if (rc == 0) {
    return Status::Internal("timed out waiting for worker control traffic");
  }
  for (size_t k = 0; k < fds.size(); ++k) {
    if (fds[k].revents == 0) {
      continue;
    }
    Event event;
    event.proc = owner[k];
    if ((fds[k].revents & POLLIN) != 0) {
      Result<Frame> frame = ReadControl(owner[k]);
      if (!frame.ok()) {
        event.death = true;
        return event;
      }
      event.frame = std::move(*frame);
      return event;
    }
    // POLLHUP/POLLERR without readable data: the process is gone.
    event.death = true;
    return event;
  }
  return Status::Internal("poll reported readiness but no fd was ready");
}

Result<Frame> DistributedCoordinator::ReadControl(uint32_t proc) {
  Result<Frame> frame = ReadFrame(procs_[proc].control);
  if (frame.ok()) {
    ++frames_read_[frame->type];
  }
  return frame;
}

Status DistributedCoordinator::MarkProcDead(uint32_t proc) {
  Proc& p = procs_[proc];
  if (!p.alive) {
    return Status::OK();
  }
  p.alive = false;
  for (MachineId m = 0; m < params_.num_machines; ++m) {
    if (HostsMachine(proc, m) && alive_machines_[m]) {
      alive_machines_[m] = 0;
      ++machine_failures_;
    }
  }
  ReapChild(p);
  if (!fault_tolerant_) {
    return Status::Internal(
        "worker process " + std::to_string(proc) +
        " died during a run with no fault tolerance configured");
  }
  return Status::OK();
}

void DistributedCoordinator::ReapChild(Proc& proc) {
  if (proc.reaped || proc.pid <= 0) {
    return;
  }
  // Spawn left the child the only other holder of its control socket, so
  // EOF there is its exit; the half-close is the cue for a worker still
  // reading control to exit.
  if (!proc.control.valid() ||
      !AwaitPeerEof(proc.control.fd(), kReapGraceMs)) {
    ::kill(proc.pid, SIGKILL);
  }
  while (::waitpid(proc.pid, nullptr, 0) < 0 && errno == EINTR) {
  }
  proc.reaped = true;
  proc.control.Close();
}

Status DistributedCoordinator::DeliverSigterm(CoordinatorOutcome* out) {
  (void)out;
  sigterm_delivered_ = true;
  const uint32_t proc = params_.sigterm_machine % params_.num_processes;
  if (!procs_[proc].alive) {
    return Status::OK();
  }
  ::kill(procs_[proc].pid, SIGTERM);
  // The worker flushes, writes its artifacts, and exits; consume anything it
  // still says and wait for its EOF so the next round's liveness snapshot is
  // deterministic.
  while (ReadControl(proc).ok()) {
  }
  return MarkProcDead(proc);
}

Status DistributedCoordinator::Finalize(CoordinatorOutcome* out) {
  for (uint32_t i = 0; i < procs_.size(); ++i) {
    if (!procs_[i].alive) {
      continue;
    }
    if (!WriteFrame(procs_[i].control, FrameType::kFinalize).ok()) {
      SURFER_RETURN_IF_ERROR(MarkProcDead(i));
    }
  }
  for (uint32_t i = 0; i < procs_.size(); ++i) {
    if (!procs_[i].alive) {
      continue;
    }
    bool collecting = true;
    while (collecting) {
      Result<Frame> frame = ReadControl(i);
      if (!frame.ok()) {
        SURFER_RETURN_IF_ERROR(MarkProcDead(i));
        break;
      }
      switch (frame->type) {
        case FrameType::kWorkerStats: {
          SURFER_ASSIGN_OR_RETURN(out->worker_stats[i],
                                  DecodeWorkerStats(frame->payload));
          if (const Status valid =
                  ValidateWorkerStats(out->worker_stats[i],
                                      params_.num_machines,
                                      params_.num_processes);
              !valid.ok()) {
            return Status::Corruption("stats from process " +
                                      std::to_string(i) + ": " +
                                      valid.message());
          }
          break;
        }
        case FrameType::kFinalState: {
          SURFER_ASSIGN_OR_RETURN(FinalStateMsg state,
                                  DecodeFinalState(frame->payload));
          out->states.push_back(std::move(state));
          break;
        }
        case FrameType::kFinalVirtual: {
          SURFER_ASSIGN_OR_RETURN(FinalVirtualMsg virtuals,
                                  DecodeFinalVirtual(frame->payload));
          out->virtuals.push_back(std::move(virtuals));
          break;
        }
        case FrameType::kWorkerReport: {
          out->worker_reports[i].assign(frame->payload.begin(),
                                        frame->payload.end());
          break;
        }
        case FrameType::kFinalDone:
          collecting = false;
          break;
        default:
          break;
      }
    }
  }
  return Status::OK();
}

}  // namespace net
}  // namespace surfer

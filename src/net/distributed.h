#ifndef SURFER_NET_DISTRIBUTED_H_
#define SURFER_NET_DISTRIBUTED_H_

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <ranges>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <unistd.h>
#include <utility>
#include <vector>

#include "cluster/topology.h"
#include "common/result.h"
#include "net/control.h"
#include "net/coordinator.h"
#include "net/frame.h"
#include "net/transport.h"
#include "obs/run_report.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "propagation/app_traits.h"
#include "propagation/config.h"
#include "propagation/engine_inputs.h"
#include "runtime/fault.h"
#include "runtime/partition_kernel.h"
#include "runtime/report.h"
#include "runtime/stats.h"
#include "runtime/timeline.h"
#include "runtime/wire_batch.h"
#include "storage/partitioned_graph.h"
#include "storage/replication.h"

namespace surfer {
namespace net {

/// Apps that can run distributed: wire-serializable messages (the mesh
/// carries WireBatches) plus trivially-copyable vertex states and virtual
/// outputs, because final results and replication updates cross process
/// boundaries as raw bytes. The app itself is trivially copyable too: each
/// job sends it to the session's workers as raw bytes. Those workers were
/// forked at the session's first job, so a pointer inside an app must point
/// at memory that already existed then, such as the session's graph.
template <typename App>
concept DistributableApp =
    PropagationApp<App> && runtime::WireSerializableApp<App> &&
    std::is_trivially_copyable_v<App> &&
    std::is_trivially_copyable_v<typename App::VertexState> &&
    std::is_trivially_copyable_v<typename internal::VirtualOutputOf<App>::type>;

/// An app's kJob bytes.
template <typename App>
  requires std::is_trivially_copyable_v<App>
std::vector<uint8_t> EncodeJobApp(const App& app) {
  std::vector<uint8_t> bytes(sizeof(App));
  std::memcpy(bytes.data(), &app, sizeof(App));
  return bytes;
}

/// Decodes kJob bytes; Corruption unless they are exactly sizeof(App).
template <typename App>
  requires std::is_trivially_copyable_v<App>
Result<App> DecodeJobApp(const std::vector<uint8_t>& bytes) {
  if (bytes.size() != sizeof(App)) {
    return Status::Corruption("job app is " + std::to_string(bytes.size()) +
                              " bytes, expected " +
                              std::to_string(sizeof(App)));
  }
  std::array<std::byte, sizeof(App)> raw;
  std::memcpy(raw.data(), bytes.data(), sizeof(App));
  return std::bit_cast<App>(raw);
}

/// Knobs of the distributed engine.
struct DistributedOptions {
  /// Worker processes; 0 means one per simulated machine. With fewer
  /// processes than machines, machine m is hosted by process
  /// (m % num_processes) — mirroring the threaded executor's worker
  /// ownership rule, so a process death is a correlated failure of its
  /// hosted machine group.
  uint32_t max_processes = 0;
  /// Task-granular fault plans. Here a plan kills the *process* hosting the
  /// planned machine (flushing completed-task output first), so recovery
  /// exercises real process death, reconnect-free mesh degradation, and
  /// first-alive-replica takeover.
  std::vector<runtime::RuntimeFaultPlan> faults;
  /// Deliver a real SIGTERM to the process hosting this machine before the
  /// given iteration (graceful decommission); kInvalidMachine = off.
  MachineId sigterm_machine = kInvalidMachine;
  int sigterm_iteration = 0;
  /// When non-empty, each worker process writes
  /// `dist_worker_<proc>.report.json` and `dist_worker_<proc>.trace.json`
  /// here at finalize (and on SIGTERM).
  std::string artifact_dir;
  /// Per-worker-process flight recorder (mailbox depth, RSS).
  obs::TelemetryOptions telemetry;
  /// Health plane: workers push a load snapshot to the coordinator every
  /// this-many milliseconds (0 = heartbeats off).
  uint32_t heartbeat_period_ms = 0;
  /// Clock-offset estimation: each mesh link runs an NTP-style ping exchange
  /// of this many pings during the rendezvous (0 = off). The per-peer
  /// offsets land in each worker's stats and trace artifacts, and correct
  /// the per-link latency series in the cluster report.
  uint32_t clock_sync_pings = 0;
  /// Online straggler detection: a process still holding up a round after
  /// straggler_multiple x the trailing-median round duration — but at least
  /// straggler_min_ms — is logged and counted, never aborted.
  double straggler_multiple = 4.0;
  uint32_t straggler_min_ms = 250;
  /// Live-status sink: receives the re-rendered cluster status table on
  /// every heartbeat or straggler flag (surfer_dist --watch). Null = off.
  std::function<void(const std::string&)> status_sink;
  /// Straggler injection for tests: process `stall_proc` sleeps `stall_ms`
  /// milliseconds at its first combine round of iteration `stall_iteration`
  /// (0xFFFFFFFF = no stall).
  uint32_t stall_proc = 0xFFFFFFFFu;
  int32_t stall_iteration = 0;
  uint32_t stall_ms = 0;
};

namespace detail {

/// A worker process's session-lifetime state: what it was forked with, its
/// mesh, and what the handshake's placement fixes for every job. Lives
/// until the process exits; each job's state lives in a DistributedWorker.
struct WorkerSession {
  WorkerSession(const PartitionedGraph* graph_in, PropagationConfig config_in,
                DistributedOptions options_in, uint32_t proc_in,
                Socket control)
      : graph(graph_in),
        config(std::move(config_in)),
        options(std::move(options_in)),
        proc(proc_in),
        transport(proc_in, std::move(control)) {}

  /// Derives the fields below from `placement`; false when it does not fit
  /// the graph.
  bool Setup() {
    num_machines = placement.num_machines;
    num_partitions = placement.num_partitions;
    num_procs = transport.num_procs();
    if (num_partitions != graph->num_partitions() || num_machines == 0 ||
        placement.replication == 0 ||
        placement.replicas.size() !=
            static_cast<size_t>(num_partitions) * placement.replication) {
      return false;
    }
    replicas.assign(num_partitions, {});
    for (PartitionId p = 0; p < num_partitions; ++p) {
      for (uint32_t r = 0; r < placement.replication; ++r) {
        replicas[p].push_back(
            placement.replicas[static_cast<size_t>(p) * placement.replication +
                               r]);
      }
    }
    for (MachineId m = 0; m < num_machines; ++m) {
      if (m % num_procs == proc) {
        hosted.push_back(m);
      }
    }
    return true;
  }

  [[noreturn]] void Die() {
    transport.CloseAll();
    ::_exit(2);
  }

  const PartitionedGraph* graph;
  const PropagationConfig config;
  const DistributedOptions options;
  const uint32_t proc;
  WorkerTransport transport;
  PlacementMsg placement;
  uint32_t num_machines = 0;
  uint32_t num_partitions = 0;
  uint32_t num_procs = 1;
  std::vector<std::vector<MachineId>> replicas;
  std::vector<MachineId> hosted;
  /// Seq of the last round this process executed, in any job: a round must
  /// come after it (see RoundMsg::seq).
  uint32_t last_round_seq = 0;
};

/// One job's entry point in a worker process: decodes the app from the
/// kJob bytes and runs the job to its kFinalDone.
using WorkerJobEntry = void (*)(WorkerSession& session,
                                const std::vector<uint8_t>& app);

/// Every app type's job entry point, indexed by JobKind<App>::id. Filled
/// during static initialization, so a worker forked at any time finds every
/// kind its coordinator can send.
inline std::vector<WorkerJobEntry>& JobEntries() {
  static std::vector<WorkerJobEntry> entries;
  return entries;
}

inline uint32_t RegisterJobEntry(WorkerJobEntry entry) {
  JobEntries().push_back(entry);
  return static_cast<uint32_t>(JobEntries().size() - 1);
}

template <typename App>
  requires DistributableApp<App>
void RunWorkerJob(WorkerSession& session, const std::vector<uint8_t>& app);

template <typename App>
  requires DistributableApp<App>
struct JobKind {
  static const uint32_t id;
};

template <typename App>
  requires DistributableApp<App>
const uint32_t JobKind<App>::id = RegisterJobEntry(&RunWorkerJob<App>);

/// The whole life of a worker process. Handshakes once, then runs every job
/// the coordinator sends. Never returns: control EOF or SIGTERM between jobs
/// is a clean exit (0); a protocol failure, or EOF inside a job, exits 2.
[[noreturn]] inline void RunWorkerProcess(WorkerSession& session) {
  InstallWorkerSignalHandlers();
  if (!session.transport.Handshake(&session.placement).ok() ||
      !session.Setup()) {
    session.Die();
  }
  for (;;) {
    Result<Frame> frame = session.transport.ReadControl();
    if (!frame.ok()) {
      if (frame.status().code() == StatusCode::kUnavailable) {
        session.transport.CloseAll();
        ::_exit(0);  // the session closed, or SIGTERM: nothing in flight
      }
      session.Die();
    }
    if (frame->type != FrameType::kJob) {
      session.Die();
    }
    Result<JobMsg> job = DecodeJob(frame->payload);
    if (!job.ok() || job->kind >= JobEntries().size()) {
      session.Die();
    }
    JobEntries()[job->kind](session, job->app);
  }
}

/// One job's state in a worker process: hosts the machines m % P == proc,
/// executes their rounds as directed by the coordinator, and exchanges
/// WireBatch data frames with the other workers over the session's TCP mesh.
///
/// Tasks run through the runtime::PartitionKernel the threaded engine also
/// uses, so the bit-identity argument is the kernel's: each TCP connection
/// is FIFO and drained by one receiver thread into a FIFO mailbox, so chunks
/// of a stream reach the destination inbox in emission order. Recovery
/// preserves the argument because replayed retained segments keep their
/// original src machine and relative order, and re-executed transfer tasks
/// go back through a WireStager (identical merge sequence) against
/// *iteration-start* states (see next_states_ below).
///
/// Its kernel policies: Combine works on a copy of the partition's states in
/// next_states_ (deferred commit), sealed batches go to ShipBatch with
/// retention, and refetches are priced against replicas_[p][0].
template <typename App>
  requires DistributableApp<App>
class DistributedWorker {
 public:
  using VertexState = typename App::VertexState;
  using Message = typename App::Message;
  using VirtualOutput = typename internal::VirtualOutputOf<App>::type;

  DistributedWorker(WorkerSession& session, App app)
      : session_(session),
        graph_(session.graph),
        app_(std::move(app)),
        config_(session.config),
        options_(session.options),
        proc_(session.proc),
        transport_(session.transport),
        num_machines_(session.num_machines),
        num_partitions_(session.num_partitions),
        num_procs_(session.num_procs),
        replicas_(session.replicas),
        hosted_(session.hosted) {}

  /// Runs one job, from kJob to kFinalDone. Returns with the process ready
  /// for the next job; exits instead on a fault plan (2), SIGTERM (0), a
  /// protocol failure or the coordinator closing control mid-job (2).
  void Run() {
    tracer_ = std::make_unique<obs::Tracer>();
    trace_origin_unix_us_ = NowUnixUs() - tracer_->WallNowUs();
    Setup();
    for (;;) {
      Result<Frame> frame = transport_.ReadControl();
      if (!frame.ok()) {
        if (SigtermFlag()->load(std::memory_order_relaxed)) {
          GracefulExit();
        }
        Die();  // coordinator vanished mid-job
      }
      switch (frame->type) {
        case FrameType::kRound: {
          Result<RoundMsg> round = DecodeRound(frame->payload);
          if (!round.ok() ||
              !ValidateRound(*round, num_partitions_, num_machines_).ok() ||
              round->seq <= session_.last_round_seq) {
            Die();
          }
          session_.last_round_seq = round->seq;
          ExecuteRound(*round);
          break;
        }
        case FrameType::kFinalize:
          Finalize();
          transport_.SetIdleTick(nullptr);
          return;
        default:
          Die();
      }
    }
  }

 private:
  static double NowUnixUs() {
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
  }

  [[noreturn]] void Die() { session_.Die(); }

  bool HostedHere(MachineId m) const { return m % num_procs_ == proc_; }

  /// The per-job state: fresh states, stagers, kernel, counters and
  /// telemetry. The mesh and the placement are the session's.
  void Setup() {
    const PlacementMsg& placement = session_.placement;
    fault_tolerant_ = placement.fault_tolerant != 0;
    fault_ = runtime::FaultController(placement.faults);
    heartbeat_period_ms_ = placement.heartbeat_period_ms;
    stall_proc_ = placement.stall_proc;
    stall_iteration_ = placement.stall_iteration;
    stall_ms_ = placement.stall_ms;
    if (heartbeat_period_ms_ > 0) {
      // Tick from ReadControl's idle poll: heartbeats flow between rounds
      // from the main thread, the sole writer on the control socket. Run
      // removes the tick at kFinalDone: no heartbeats between jobs.
      transport_.SetIdleTick([this] { MaybeHeartbeat(); });
    }
    tcp_bytes_base_ = transport_.tcp_bytes_sent();
    tcp_frames_base_ = transport_.tcp_frames_sent();
    wire_combine_ = config_.local_combination && MergeableApp<App>;
    pool_ = std::make_unique<runtime::WireBufferPool>();
    for (MachineId m : hosted_) {
      stagers_.emplace(
          std::piecewise_construct, std::forward_as_tuple(m),
          std::forward_as_tuple(&app_, runtime::WireBatchOptions{},
                                pool_.get(), m, num_machines_, wire_combine_,
                                graph_->encoding().starts()));
    }

    states_ = InitialStates(app_, *graph_);
    // Deferred-commit double buffer: transfer tasks (including recovery
    // re-execution, which can run *after* some combines of the same
    // iteration) always read states_, the value set at iteration start;
    // combine results land in next_states_ and commit at the next iteration
    // boundary. In-place mutation would poison re-executed transfers.
    next_states_ = states_;
    dirty_.assign(num_partitions_, 0);
    state_version_.assign(num_partitions_, -1);
    kernel_ = std::make_unique<runtime::PartitionKernel<App>>(
        app_, *graph_, config_.frontier_gating, /*num_threads=*/1);
    stage_tasks_done_.assign(num_machines_, 0);
    stats_.num_workers = static_cast<uint32_t>(hosted_.size());
    stats_.num_machines = num_machines_;
    stats_.num_processes = num_procs_;
    stats_.iterations = config_.iterations;
    stats_.link_bytes.assign(static_cast<size_t>(num_machines_) * num_machines_,
                             0);

    telemetry_ = std::make_unique<obs::TelemetryRecorder>(options_.telemetry);
    if (options_.telemetry.enabled) {
      telemetry_->RegisterGauge("dist_mailbox_depth", "frames", [this] {
        return static_cast<double>(transport_.ApproxMailboxDepth());
      });
      telemetry_->RegisterGauge("dist_inflight_bytes", "bytes", [this] {
        return static_cast<double>(transport_.InflightBytes());
      });
      telemetry_->RegisterGauge("dist_recv_latency_us", "us", [this] {
        return static_cast<double>(transport_.LastRecvLatencyUs());
      });
      // Registered only when the probe works: an always-zero gauge would
      // read as a measurement, not a failure to measure.
      if (obs::ReadMemoryUsage().available) {
        telemetry_->RegisterGauge(
            "proc_rss_bytes", "bytes",
            [] {
              return static_cast<double>(obs::ReadMemoryUsage().rss_bytes);
            },
            /*ceiling=*/0.0, /*period_multiple=*/16);
      }
      // The sampler thread must never take the process-directed SIGTERM:
      // only the main thread owns the graceful-exit interrupt.
      sigset_t block, old;
      sigemptyset(&block);
      sigaddset(&block, SIGTERM);
      pthread_sigmask(SIG_BLOCK, &block, &old);
      telemetry_->Start();
      pthread_sigmask(SIG_SETMASK, &old, nullptr);
    }
  }

  // ------------------------------------------------------------ round driver

  void ExecuteRound(const RoundMsg& round) {
    obs::ScopedSpan span(
        tracer_.get(), "dist_round[" + std::to_string(round.seq) + "]", "net",
        {{"kind", std::to_string(static_cast<int>(round.kind))},
         {"iteration", std::to_string(round.iteration)}});
    current_stage_ = static_cast<uint32_t>(round.kind);
    current_iteration_ = round.iteration;
    current_round_seq_ = round.seq;
    // Receiver threads record link stats by round seq only; this map lets
    // Finalize patch in the (iteration, kind) the seq belonged to.
    round_info_[round.seq] = {round.iteration,
                              static_cast<uint32_t>(round.kind)};
    if (proc_ == stall_proc_ && round.iteration == stall_iteration_ &&
        round.kind == RoundKind::kCombine && !stalled_) {
      // Injected straggler (tests): one long pause at this iteration's first
      // combine round, long enough for the online detector to flag us.
      stalled_ = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
    }
    if (round.kind == RoundKind::kTransfer &&
        round.iteration != started_iteration_) {
      // First transfer round of a new iteration: commit last iteration's
      // combine results, drop last iteration's retention, advance the app.
      CommitPendingStates();
      started_iteration_ = round.iteration;
      if constexpr (IterationAwareApp<App>) {
        app_.OnIterationStart(round.iteration);
      }
      for (runtime::WireBatch& batch : retained_) {
        pool_->Release(std::move(batch.payload));
      }
      retained_.clear();
    }
    const RoundKind norm =
        round.kind == RoundKind::kResend ? RoundKind::kCombine : round.kind;
    if (stage_iteration_ != round.iteration || stage_kind_ != norm) {
      stage_iteration_ = round.iteration;
      stage_kind_ = norm;
      std::fill(stage_tasks_done_.begin(), stage_tasks_done_.end(), 0u);
    }
    if (round.kind == RoundKind::kResend) {
      ExecuteResend(round);
    } else {
      ExecuteNormal(round);
    }
  }

  void ExecuteNormal(const RoundMsg& round) {
    const runtime::RuntimeStage stage = round.kind == RoundKind::kTransfer
                                            ? runtime::RuntimeStage::kTransfer
                                            : runtime::RuntimeStage::kCombine;
    for (MachineId m : hosted_) {
      for (PartitionId p = 0; p < num_partitions_; ++p) {
        if (round.exec[p] != m) {
          continue;
        }
        if (fault_.ShouldKill(m, round.iteration, stage,
                              stage_tasks_done_[m])) {
          FaultExit();
        }
        if (round.kind == RoundKind::kTransfer) {
          RunTransferTask(p, m, round);
        } else {
          RunCombineTask(p, m, round);
        }
        ++stage_tasks_done_[m];
        ++stats_.tasks_executed;
        if (round.recovery != 0) {
          ++stats_.tasks_reexecuted;
        }
        MaybeSendTaskDone(p, m, round);
        if (round.kind == RoundKind::kTransfer) {
          stagers_.at(m).FlushExpired(SendSink());
        }
        PumpMailbox();
      }
      if (round.kind == RoundKind::kTransfer) {
        stagers_.at(m).FlushAll(SendSink());
      }
    }
    FinishRound(round);
  }

  /// Recovery-only round: rebuild the inboxes of the partitions in
  /// round.exec (their previous holders died) by replaying retained batches
  /// and re-executing the transfer tasks whose producer died with its
  /// retained output.
  void ExecuteResend(const RoundMsg& round) {
    // Clear before the first mailbox pop of this round: replayed frames that
    // raced ahead of our own replay work sit safely in the transport mailbox
    // until PumpMailbox runs (pumps only happen inside rounds).
    for (PartitionId p = 0; p < num_partitions_; ++p) {
      if (round.exec[p] != kInvalidMachine && HostedHere(round.exec[p])) {
        kernel_->ClearInbox(0, p);
      }
    }
    ReplayRetained(round);
    for (MachineId m : hosted_) {
      for (PartitionId q = 0; q < num_partitions_; ++q) {
        if (round.reexec[q] != m) {
          continue;
        }
        ReexecTransfer(q, m, round);
        ++stats_.tasks_executed;
        ++stats_.tasks_reexecuted;
        MaybeSendTaskDone(q, m, round);
        PumpMailbox();
      }
    }
    FinishRound(round);
  }

  void FinishRound(const RoundMsg& round) {
    if (!transport_.BroadcastEos(round.seq).ok()) {
      Die();
    }
    barrier_waiting_ = true;
    // Say so at once: the straggler detector skips a process whose last
    // heartbeat reports it waiting at this round's barrier.
    MaybeHeartbeat(/*force=*/true);
    for (;;) {
      PumpMailbox();
      if (transport_.RoundDrained(round.seq)) {
        break;
      }
      if (SigtermFlag()->load(std::memory_order_relaxed)) {
        GracefulExit();
      }
      MaybeHeartbeat();  // keep the health plane fed while the drain blocks
      transport_.WaitActivity();
    }
    barrier_waiting_ = false;
    // Every peer is dead or past-EOS, and each receiver pushes a link's data
    // frames before recording its EOS — one final pump empties the round.
    PumpMailbox();
    SeqMsg done;
    done.seq = round.seq;
    done.src_proc = proc_;
    if (!transport_.SendControl(FrameType::kRoundDone, EncodeSeq(done)).ok()) {
      Die();
    }
    current_stage_ = kIdleStage;
  }

  /// Sends one heartbeat if the period elapsed, or `force` is set and
  /// heartbeats are on. Main-thread only (idle tick + barrier drain loop), so
  /// it never races other control-plane writes.
  void MaybeHeartbeat(bool force = false) {
    if (heartbeat_period_ms_ == 0) {
      return;
    }
    const double now = NowUnixUs();
    if (!force && now - last_heartbeat_us_ <
                      static_cast<double>(heartbeat_period_ms_) * 1000.0) {
      return;
    }
    last_heartbeat_us_ = now;
    HeartbeatMsg hb;
    hb.proc = proc_;
    hb.stage = current_stage_;
    hb.iteration = current_iteration_;
    hb.round_seq = current_round_seq_;
    hb.mailbox_frames = transport_.ApproxMailboxDepth();
    hb.inflight_bytes = transport_.InflightBytes();
    for (const auto& [m, stager] : stagers_) {
      hb.staged_wire_bytes += stager.OpenBytes();
    }
    const obs::MemoryUsage memory = obs::ReadMemoryUsage();
    hb.rss_bytes = memory.available ? memory.rss_bytes : 0;
    hb.barrier_waiting = barrier_waiting_ ? 1 : 0;
    hb.unix_us = static_cast<uint64_t>(now);
    if (transport_.SendControl(FrameType::kHeartbeat, EncodeHeartbeat(hb))
            .ok()) {
      ++heartbeats_sent_;
    }
  }

  /// Only recovery reads per-task reports: a fault-free round's tasks are
  /// marked done by the coordinator once every process reported kRoundDone,
  /// and a run that is not fault tolerant aborts on any death.
  void MaybeSendTaskDone(PartitionId p, MachineId m, const RoundMsg& round) {
    if (!fault_tolerant_) {
      return;
    }
    TaskDoneMsg msg;
    msg.partition = p;
    msg.machine = m;
    msg.iteration = round.iteration;
    msg.kind = static_cast<uint8_t>(round.kind);
    if (!transport_.SendControl(FrameType::kTaskDone, EncodeTaskDone(msg))
             .ok()) {
      Die();
    }
  }

  // -------------------------------------------------------------- data plane

  /// Books and delivers one sealed batch. Local destinations (a machine this
  /// process hosts) short-circuit into the inbox; remote ones go over the
  /// mesh. Normal sends are booked into the link matrix (priced bytes, the
  /// quantity that reconciles with the analytic model) and retained for
  /// replay in fault-tolerant runs; resend traffic is booked separately.
  double ShipBatch(runtime::WireBatch&& batch, bool resend, bool retain) {
    if (!resend) {
      stats_.link_bytes[static_cast<size_t>(batch.src_machine) * num_machines_ +
                  batch.dst_machine] += batch.priced_bytes;
      stats_.messages_sent += batch.num_messages;
      ++stats_.buffers_sent;
    } else {
      stats_.resend_bytes += batch.payload.size();
    }
    if (retain && fault_tolerant_) {
      retained_.push_back(batch);  // deep copy; replayed if a holder dies
    }
    const uint32_t dst_proc = batch.dst_machine % num_procs_;
    if (dst_proc == proc_) {
      ApplyBatch(batch);
    } else {
      (void)transport_.SendPeer(dst_proc, FrameType::kData,
                                EncodeWireBatch(batch));
    }
    pool_->Release(std::move(batch.payload));
    return 0.0;
  }

  /// The batch sink of first sends (the kernel's sink policy here): booked,
  /// retained for replay, shipped.
  auto SendSink() {
    return [this](runtime::WireBatch&& batch) {
      return ShipBatch(std::move(batch), /*resend=*/false, /*retain=*/true);
    };
  }

  /// Ships every staged batch, then waits until peers consumed every sent
  /// frame.
  void FlushAndAwaitAcks() {
    for (auto& [m, stager] : stagers_) {
      stager.FlushAll(SendSink());
    }
    (void)transport_.WaitDataAcked();
  }

  /// Queues one batch's segments into the kernel's inboxes. Bytes that fail
  /// the kernel's decode checks are a protocol failure.
  void ApplyBatch(const runtime::WireBatch& batch) {
    if (!kernel_->Receive(0, batch).ok()) {
      Die();
    }
  }

  void PumpMailbox() {
    runtime::WireBatch batch;
    while (transport_.TryPopData(&batch)) {
      ApplyBatch(batch);
      batch = runtime::WireBatch{};
    }
    StateUpdateMsg update;
    while (transport_.TryPopUpdate(&update)) {
      ApplyUpdate(update);
    }
  }

  // -------------------------------------------------------------- task logic

  void RunTransferTask(PartitionId p, MachineId m, const RoundMsg& round) {
    runtime::WireStager<App>& stager = stagers_.at(m);
    kernel_->Transfer(
        0, p, states_, [&](PartitionId dst, auto& real, auto& virtuals) {
          stager.StageTask(p, dst, round.route[dst], real, virtuals,
                           SendSink());
        });
  }

  void RunCombineTask(PartitionId p, MachineId m, const RoundMsg& round) {
    const PartitionMeta& meta = graph_->partition(p);
    // Deferred commit: combine a copy of the committed states in
    // next_states_. A vertex the frontier gate skips keeps the copied value,
    // which ReplicateState snapshots with the rest of the range.
    std::copy(states_.begin() + meta.begin, states_.begin() + meta.end,
              next_states_.begin() + meta.begin);
    const auto tally =
        kernel_->Combine(0, p, m, replicas_[p][0], next_states_);
    stats_.refetch_bytes += tally.refetch_bytes;
    stats_.combine_scatter_seconds += tally.scatter_s;
    stats_.combine_messages_scattered += tally.scattered;
    stats_.frontier_vertices_skipped += tally.skipped;
    dirty_[p] = 1;
    state_version_[p] = round.iteration;
    const auto& virtual_results = kernel_->virtual_results(p);
    for (const auto& [id, output] : virtual_results) {
      virtual_acc_[id] = {round.iteration, output};
    }
    if (fault_tolerant_) {
      // Replicate *before* kTaskDone: once the coordinator marks p done, a
      // replica holder must already be able to take over from this state.
      ReplicateState(p, round.iteration, meta, virtual_results);
    }
  }

  void ReplicateState(
      PartitionId p, int32_t iteration, const PartitionMeta& meta,
      const std::vector<std::pair<uint64_t, VirtualOutput>>& virtual_results) {
    StateUpdateMsg msg;
    msg.partition = p;
    msg.iteration = iteration;
    msg.begin = meta.begin;
    msg.count = meta.end - meta.begin;
    msg.states.resize(static_cast<size_t>(msg.count) * sizeof(VertexState));
    if (msg.count > 0) {
      std::memcpy(msg.states.data(), &next_states_[meta.begin],
                  msg.states.size());
    }
    msg.virtual_count = static_cast<uint32_t>(virtual_results.size());
    for (const auto& [id, output] : virtual_results) {
      runtime::AppendPod(msg.virtuals, id);
      runtime::AppendPod(msg.virtuals, output);
    }
    const std::vector<uint8_t> payload = EncodeStateUpdate(msg);
    std::set<uint32_t> targets;
    for (MachineId r : replicas_[p]) {
      if (r != kInvalidMachine && r < num_machines_ && !HostedHere(r)) {
        targets.insert(r % num_procs_);
      }
    }
    for (uint32_t q : targets) {
      (void)transport_.SendPeer(q, FrameType::kStateUpdate, payload);
      stats_.replication_bytes += payload.size();
    }
  }

  void ApplyUpdate(const StateUpdateMsg& msg) {
    if (msg.partition >= num_partitions_ ||
        msg.iteration <= state_version_[msg.partition]) {
      return;
    }
    const size_t expect = static_cast<size_t>(msg.count) * sizeof(VertexState);
    if (msg.states.size() != expect ||
        static_cast<size_t>(msg.begin) + msg.count > next_states_.size()) {
      return;
    }
    if (msg.count > 0) {
      std::memcpy(&next_states_[msg.begin], msg.states.data(), expect);
    }
    dirty_[msg.partition] = 1;
    state_version_[msg.partition] = msg.iteration;
    constexpr size_t kEntry = sizeof(uint64_t) + sizeof(VirtualOutput);
    if (msg.virtuals.size() == static_cast<size_t>(msg.virtual_count) * kEntry) {
      const uint8_t* base = msg.virtuals.data();
      for (uint32_t i = 0; i < msg.virtual_count; ++i) {
        const uint64_t id = runtime::ReadPod<uint64_t>(base + i * kEntry);
        const VirtualOutput output = runtime::ReadPod<VirtualOutput>(
            base + i * kEntry + sizeof(uint64_t));
        virtual_acc_[id] = {msg.iteration, output};
      }
    }
  }

  void CommitPendingStates() {
    for (PartitionId p = 0; p < num_partitions_; ++p) {
      if (!dirty_[p]) {
        continue;
      }
      const PartitionMeta& meta = graph_->partition(p);
      std::copy(next_states_.begin() + meta.begin,
                next_states_.begin() + meta.end, states_.begin() + meta.begin);
      dirty_[p] = 0;
    }
  }

  // ---------------------------------------------------------------- recovery

  /// Replays every retained segment destined to a partition being rebuilt,
  /// preserving the original producer machine and chronological order, so
  /// the rebuilt inbox sorts into the identical sequential order.
  void ReplayRetained(const RoundMsg& round) {
    if (retained_.empty()) {
      return;
    }
    std::map<std::pair<MachineId, MachineId>, runtime::WireBatch> open;
    auto ship = [&](runtime::WireBatch&& batch) {
      if (batch.payload.empty()) {
        pool_->Release(std::move(batch.payload));
        return;
      }
      ShipBatch(std::move(batch), /*resend=*/true, /*retain=*/false);
    };
    typename runtime::WireBatchReader<Message>::Segment segment;
    for (const runtime::WireBatch& batch : retained_) {
      runtime::WireBatchReader<Message> reader(batch,
                                               graph_->encoding().starts());
      const uint8_t* base = batch.payload.data();
      size_t begin = 0;
      while (reader.NextInto(segment)) {
        const size_t end = reader.offset();
        const runtime::WireSegmentHeader& header = segment.header;
        // In range: the reader bounds dst_partition by the partition count,
        // and ValidateRound sized route to it.
        const MachineId target = round.route[header.dst_partition];
        if (target != kInvalidMachine) {
          const auto key = std::make_pair(batch.src_machine, target);
          auto it = open.find(key);
          if (it == open.end()) {
            runtime::WireBatch fresh;
            fresh.src_machine = batch.src_machine;
            fresh.dst_machine = target;
            fresh.payload = pool_->Acquire();
            it = open.emplace(key, std::move(fresh)).first;
          }
          runtime::WireBatch& out = it->second;
          if (!out.payload.empty() &&
              out.payload.size() + (end - begin) >
                  runtime::WireBatchOptions{}.max_batch_bytes) {
            runtime::WireBatch full = std::move(out);
            out = runtime::WireBatch{};
            out.src_machine = batch.src_machine;
            out.dst_machine = target;
            out.payload = pool_->Acquire();
            ship(std::move(full));
          }
          out.payload.insert(out.payload.end(), base + begin, base + end);
          out.num_segments += 1;
          out.num_messages += header.count;
          out.priced_bytes += header.priced_bytes;
        }
        begin = end;
      }
      if (!reader.status().ok()) {
        Die();  // retention holds this worker's own sends
      }
    }
    for (auto& [key, batch] : open) {
      ship(std::move(batch));
    }
  }

  /// Re-executes a transfer task whose producer process died with its
  /// retained output. The full task re-runs against iteration-start states
  /// through WireStagers (identical duplicate-merge folds); streams for the
  /// partitions being rebuilt are sent, the rest are retained only — so a
  /// later death in this same iteration still finds a complete copy here.
  /// Two stagers keep rebuilt and retain-only streams in separate batches.
  void ReexecTransfer(PartitionId q, MachineId m, const RoundMsg& round) {
    const auto& starts = graph_->encoding().starts();
    const runtime::WireBatchOptions wire;
    runtime::WireStager<App> send_stager(&app_, wire, pool_.get(), m,
                                         num_machines_, wire_combine_, starts);
    runtime::WireStager<App> retain_stager(&app_, wire, pool_.get(), m,
                                           num_machines_, wire_combine_,
                                           starts);
    auto send = [&](runtime::WireBatch&& batch) {
      return ShipBatch(std::move(batch), /*resend=*/true, /*retain=*/true);
    };
    auto retain_only = [&](runtime::WireBatch&& batch) {
      retained_.push_back(batch);
      pool_->Release(std::move(batch.payload));
      return 0.0;
    };
    kernel_->Transfer(
        0, q, states_, [&](PartitionId dst, auto& real, auto& virtuals) {
          const MachineId target = round.route[dst];
          if (target != kInvalidMachine) {
            send_stager.StageTask(q, dst, target, real, virtuals, send);
          } else {
            retain_stager.StageTask(q, dst, replicas_[dst][0], real, virtuals,
                                    retain_only);
          }
        });
    send_stager.FlushAll(send);
    retain_stager.FlushAll(retain_only);
  }

  // ------------------------------------------------------------------- exits

  /// Planned process death (fault plan hit). Completed tasks' output
  /// survives the crash in the paper's model, so staged batches flush and
  /// the exit waits until every sent frame is acknowledged as *consumed* by
  /// its peer — closing earlier could RST away kernel-buffered output.
  [[noreturn]] void FaultExit() {
    FlushAndAwaitAcks();
    transport_.CloseAll();
    ::_exit(2);
  }

  /// SIGTERM: flush staged batches, persist run report and telemetry, then
  /// exit cleanly. The coordinator treats the EOF like any machine death and
  /// recovers hosted partitions on their replicas.
  [[noreturn]] void GracefulExit() {
    FlushAndAwaitAcks();
    telemetry_->Stop();
    WriteArtifacts(LocalStats());
    transport_.CloseAll();
    ::_exit(0);
  }

  // ---------------------------------------------------------------- finalize

  void Finalize() {
    CommitPendingStates();
    // The coordinator's finalize drain expects no control traffic after
    // kFinalDone; stop heartbeating for this job before the stats go out.
    heartbeat_period_ms_ = 0;
    telemetry_->Stop();
    // One RuntimeStats feeds both the counters sent to the coordinator and
    // this worker's own report.
    const runtime::RuntimeStats stats = LocalStats();
    WorkerStatsMsg stats_msg;
    stats_msg.counters = stats;
    stats_msg.peak_rss_bytes = stats.peak_rss_bytes;
    stats_msg.link_bytes = stats.link_bytes;
    stats_msg.heartbeats_sent = heartbeats_sent_;
    stats_msg.clock_synced = transport_.clock_synced() ? 1 : 0;
    stats_msg.clock_offset_us = transport_.ClockOffsets();
    stats_msg.clock_uncertainty_us = transport_.ClockUncertainties();
    stats_msg.round_link_stats = transport_.DrainLinkStats();
    for (RoundLinkStat& link : stats_msg.round_link_stats) {
      // The receiver thread only knows the round seq; resolve the round's
      // (iteration, kind) from the rounds this worker actually executed.
      const auto it = round_info_.find(link.seq);
      if (it != round_info_.end()) {
        link.iteration = it->second.first;
        link.kind = it->second.second;
      }
    }
    if (!transport_
             .SendControl(FrameType::kWorkerStats,
                          EncodeWorkerStats(stats_msg))
             .ok()) {
      Die();
    }
    for (PartitionId p = 0; p < num_partitions_; ++p) {
      if (state_version_[p] < 0) {
        continue;
      }
      const PartitionMeta& meta = graph_->partition(p);
      FinalStateMsg msg;
      msg.partition = p;
      msg.version = state_version_[p];
      msg.begin = meta.begin;
      msg.count = meta.end - meta.begin;
      msg.states.resize(static_cast<size_t>(msg.count) * sizeof(VertexState));
      if (msg.count > 0) {
        std::memcpy(msg.states.data(), &states_[meta.begin],
                    msg.states.size());
      }
      if (!transport_
               .SendControl(FrameType::kFinalState, EncodeFinalState(msg))
               .ok()) {
        Die();
      }
    }
    if (!virtual_acc_.empty()) {
      FinalVirtualMsg msg;
      msg.entry_bytes = sizeof(VirtualOutput);
      msg.count = static_cast<uint32_t>(virtual_acc_.size());
      for (const auto& [id, entry] : virtual_acc_) {
        runtime::AppendPod(msg.entries, id);
        runtime::AppendPod(msg.entries, entry.first);   // int32_t version
        runtime::AppendPod(msg.entries, entry.second);  // VirtualOutput
      }
      if (!transport_
               .SendControl(FrameType::kFinalVirtual, EncodeFinalVirtual(msg))
               .ok()) {
        Die();
      }
    }
    const std::string report = BuildReport(stats).Write(2);
    std::vector<uint8_t> report_bytes(report.begin(), report.end());
    if (!transport_.SendControl(FrameType::kWorkerReport, report_bytes).ok()) {
      Die();
    }
    WriteArtifacts(stats);
    if (!transport_.SendControl(FrameType::kFinalDone).ok()) {
      Die();
    }
  }

  /// This worker's RuntimeStats for this job: the tallies kept in stats_
  /// plus the stager, pool, telemetry and memory readings taken now, and
  /// the mesh traffic since Setup (the transport counts the whole session).
  runtime::RuntimeStats LocalStats() {
    runtime::RuntimeStats stats = stats_;
    runtime::ReadEndOfRunStats(std::views::values(stagers_), *pool_,
                               *telemetry_, stats);
    stats.tcp_bytes_sent = transport_.tcp_bytes_sent() - tcp_bytes_base_;
    stats.tcp_frames_sent = transport_.tcp_frames_sent() - tcp_frames_base_;
    return stats;
  }

  obs::JsonValue BuildReport(const runtime::RuntimeStats& stats) {
    obs::RunReportOptions report_options;
    report_options.name = "surfer_dist_worker_" + std::to_string(proc_);
    std::string machines;
    for (MachineId m : hosted_) {
      machines += (machines.empty() ? "" : ",") + std::to_string(m);
    }
    report_options.notes = "distributed worker process " +
                           std::to_string(proc_) + "/" +
                           std::to_string(num_procs_) + " hosting machines [" +
                           machines + "]";
    const obs::JsonValue runtime_block = runtime::RuntimeStatsToJson(stats);
    obs::JsonValue telemetry_block;
    const bool have_telemetry = telemetry_->enabled();
    if (have_telemetry) {
      telemetry_block = telemetry_->ToJson();
    }
    return obs::BuildRunReport(report_options, nullptr, nullptr, tracer_.get(),
                               &runtime_block, nullptr,
                               have_telemetry ? &telemetry_block : nullptr);
  }

  void WriteArtifacts(const runtime::RuntimeStats& stats) {
    if (options_.artifact_dir.empty()) {
      return;
    }
    const std::string stem =
        options_.artifact_dir + "/dist_worker_" + std::to_string(proc_);
    (void)obs::WriteRunReport(stem + ".report.json", BuildReport(stats));
    obs::JsonValue trace = tracer_->ToChromeJson();
    if (trace.is_object()) {
      // Wall-clock anchor of this tracer's t=0, so surfer_trace merge can
      // align per-process timelines.
      trace.Set("origin_unix_us", obs::JsonValue(trace_origin_unix_us_));
      if (transport_.clock_synced()) {
        // Handshake-estimated peer-clock offsets: `surfer_trace merge`
        // prefers these over the wall-clock origins for shard alignment.
        obs::JsonValue sync = obs::JsonValue::MakeObject();
        sync.Set("proc", static_cast<uint64_t>(proc_));
        obs::JsonValue offsets = obs::JsonValue::MakeArray();
        for (const int64_t offset : transport_.ClockOffsets()) {
          offsets.Append(obs::JsonValue(offset));
        }
        obs::JsonValue uncertainty = obs::JsonValue::MakeArray();
        for (const uint64_t u : transport_.ClockUncertainties()) {
          uncertainty.Append(obs::JsonValue(u));
        }
        sync.Set("offsets_us", std::move(offsets));
        sync.Set("uncertainty_us", std::move(uncertainty));
        trace.Set("clock_sync", std::move(sync));
      }
    }
    (void)obs::WriteRunReport(stem + ".trace.json", trace);
  }

  // -------------------------------------------------------------------------

  WorkerSession& session_;
  const PartitionedGraph* graph_;
  App app_;
  const PropagationConfig& config_;
  const DistributedOptions& options_;
  const uint32_t proc_;
  WorkerTransport& transport_;
  const uint32_t num_machines_;
  const uint32_t num_partitions_;
  const uint32_t num_procs_;
  const std::vector<std::vector<MachineId>>& replicas_;
  const std::vector<MachineId>& hosted_;

  bool fault_tolerant_ = false;
  bool wire_combine_ = false;
  runtime::FaultController fault_;
  /// The session transport's counters when this job started.
  uint64_t tcp_bytes_base_ = 0;
  uint64_t tcp_frames_base_ = 0;
  std::unique_ptr<runtime::WireBufferPool> pool_;
  std::map<MachineId, runtime::WireStager<App>> stagers_;

  /// Committed states (iteration-start view, read by transfer tasks) and the
  /// in-flight combine results of the current iteration (see Setup).
  std::vector<VertexState> states_;
  std::vector<VertexState> next_states_;
  std::vector<uint8_t> dirty_;            ///< partition combined/updated
  std::vector<int32_t> state_version_;    ///< iteration of last combine, -1 none
  /// The worker loop runs one task at a time: one kernel thread slot (0).
  std::unique_ptr<runtime::PartitionKernel<App>> kernel_;
  /// id -> (iteration of last update, output); the coordinator-side merge
  /// keeps the max-iteration entry across processes.
  std::map<uint64_t, std::pair<int32_t, VirtualOutput>> virtual_acc_;
  /// Normal sends of the current iteration (deep copies), replayed when an
  /// inbox holder dies. Cleared at each iteration boundary.
  std::vector<runtime::WireBatch> retained_;

  int started_iteration_ = -1;
  int stage_iteration_ = -1;
  RoundKind stage_kind_ = RoundKind::kResend;
  std::vector<uint32_t> stage_tasks_done_;

  /// Health-plane state (main thread only). current_* mirror the round in
  /// flight for heartbeat snapshots; round_info_ maps round seq to
  /// (iteration, kind) so link stats recorded by seq can be attributed.
  uint32_t heartbeat_period_ms_ = 0;
  double last_heartbeat_us_ = 0.0;
  uint64_t heartbeats_sent_ = 0;
  uint32_t current_stage_ = kIdleStage;
  int32_t current_iteration_ = 0;
  uint64_t current_round_seq_ = 0;
  bool barrier_waiting_ = false;
  std::map<uint64_t, std::pair<int32_t, uint32_t>> round_info_;
  /// Injected-straggler knobs (tests); stalled_ makes the pause one-shot.
  uint32_t stall_proc_ = 0xFFFFFFFFu;
  int32_t stall_iteration_ = 0;
  uint32_t stall_ms_ = 0;
  bool stalled_ = false;

  /// Counters and link matrix accumulated as tasks run; LocalStats adds
  /// the readings owned by other components.
  runtime::RuntimeStats stats_;

  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::TelemetryRecorder> telemetry_;
  double trace_origin_unix_us_ = 0.0;
};

template <typename App>
  requires DistributableApp<App>
void RunWorkerJob(WorkerSession& session, const std::vector<uint8_t>& app) {
  Result<App> decoded = DecodeJobApp<App>(app);
  if (!decoded.ok()) {
    session.Die();
  }
  DistributedWorker<App>(session, std::move(decoded).value()).Run();
}

}  // namespace detail

/// Parent side of one distributed session: the coordinator and its worker
/// group. The group is forked at the first job and kept across jobs; every
/// job after it runs as rounds on the same processes. A session is fixed to
/// one graph, placement, topology, PropagationConfig and DistributedOptions;
/// only the app changes from job to job. Jobs serialize; destruction closes
/// the group.
class DistributedSession {
 public:
  DistributedSession(const PartitionedGraph* graph,
                     const ReplicatedPlacement* placement,
                     const Topology* topology, PropagationConfig config,
                     DistributedOptions options)
      : graph_(graph),
        config_(std::move(config)),
        options_(std::move(options)),
        coordinator_(MakeParams(placement, topology),
                     [this](uint32_t proc, Socket control) {
                       detail::WorkerSession session(graph_, config_,
                                                     options_, proc,
                                                     std::move(control));
                       detail::RunWorkerProcess(session);
                     }) {}

  DistributedSession(const DistributedSession&) = delete;
  DistributedSession& operator=(const DistributedSession&) = delete;

  /// Runs `app` as one job on the group; see DistributedCoordinator::RunJob.
  template <typename App>
    requires DistributableApp<App>
  Result<CoordinatorOutcome> RunJob(const App& app) {
    JobMsg job;
    job.kind = detail::JobKind<App>::id;
    job.app = EncodeJobApp(app);
    std::lock_guard<std::mutex> lock(mu_);
    return coordinator_.RunJob(job);
  }

  /// Closes the group (a later job forms a new one); returns the seconds
  /// the reap took.
  double Close() {
    std::lock_guard<std::mutex> lock(mu_);
    return coordinator_.Close();
  }

  /// The open group's worker pids. Not synchronized with a job in flight
  /// on another thread.
  std::vector<pid_t> worker_pids() const { return coordinator_.worker_pids(); }

 private:
  CoordinatorParams MakeParams(const ReplicatedPlacement* placement,
                               const Topology* topology) const {
    const uint32_t num_machines = topology->num_machines();
    CoordinatorParams params;
    params.num_processes = options_.max_processes == 0
                               ? num_machines
                               : std::min(options_.max_processes, num_machines);
    params.num_machines = num_machines;
    params.iterations = config_.iterations;
    params.replicas = placement;
    params.sigterm_machine = options_.sigterm_machine;
    params.sigterm_iteration = options_.sigterm_iteration;
    params.straggler_multiple = options_.straggler_multiple;
    params.straggler_min_ms = options_.straggler_min_ms;
    params.status_sink = options_.status_sink;

    PlacementMsg& msg = params.placement;
    msg.num_machines = num_machines;
    msg.num_partitions = placement->num_partitions();
    msg.replication = kReplicationFactor;
    msg.fault_tolerant = (!options_.faults.empty() ||
                          options_.sigterm_machine != kInvalidMachine)
                             ? 1
                             : 0;
    msg.replicas.reserve(static_cast<size_t>(msg.num_partitions) *
                         kReplicationFactor);
    for (PartitionId p = 0; p < msg.num_partitions; ++p) {
      for (uint32_t r = 0; r < kReplicationFactor; ++r) {
        msg.replicas.push_back(placement->replicas[p][r]);
      }
    }
    msg.faults = options_.faults;
    msg.heartbeat_period_ms = options_.heartbeat_period_ms;
    msg.clock_sync_pings = options_.clock_sync_pings;
    msg.stall_proc = options_.stall_proc;
    msg.stall_iteration = options_.stall_iteration;
    msg.stall_ms = options_.stall_ms;
    return params;
  }

  const PartitionedGraph* graph_;
  const PropagationConfig config_;
  const DistributedOptions options_;
  std::mutex mu_;
  DistributedCoordinator coordinator_;
};

/// Parent-process front end of the distributed engine for one app: runs it
/// as a job of a DistributedSession, then assembles the version-merged final
/// states and the cluster-wide stats. Mirrors RuntimeExecutor's public
/// surface so Engine::Run can treat the two engines uniformly.
template <typename App>
  requires DistributableApp<App>
class DistributedExecutor {
 public:
  using VertexState = typename App::VertexState;
  using Message = typename App::Message;
  using VirtualOutput = typename internal::VirtualOutputOf<App>::type;

  DistributedExecutor(const PartitionedGraph* graph,
                      const ReplicatedPlacement* placement,
                      const Topology* topology, App app,
                      PropagationConfig config, DistributedOptions options = {})
      : graph_(graph),
        placement_(placement),
        topology_(topology),
        app_(std::move(app)),
        config_(config),
        options_(std::move(options)) {}

  /// One job on a session of its own: forms the group, runs, closes it.
  Status Run() {
    SURFER_RETURN_IF_ERROR(
        ValidateEngineInputs(graph_, placement_, topology_, config_));
    DistributedSession session(graph_, placement_, topology_, config_,
                               options_);
    return RunJob(session, /*close=*/true);
  }

  /// One job on `session`, which must have been opened over this
  /// executor's graph, placement, topology, config and options. The group
  /// stays open for the session's next job.
  Status RunIn(DistributedSession& session) {
    SURFER_RETURN_IF_ERROR(
        ValidateEngineInputs(graph_, placement_, topology_, config_));
    return RunJob(session, /*close=*/false);
  }

  const std::vector<VertexState>& states() const { return states_; }

  const VertexState& StateOfOriginal(VertexId original) const {
    return states_[graph_->encoding().ToEncoded(original)];
  }

  const std::map<uint64_t, VirtualOutput>& virtual_outputs() const {
    return virtual_outputs_;
  }

  const runtime::RuntimeStats& stats() const { return stats_; }

  /// Machine liveness after the run (all ones without injected faults).
  const std::vector<uint8_t>& alive() const { return alive_; }

  /// Per-process run-report JSON collected over the control plane (empty
  /// string for processes that died before finalize).
  const std::vector<std::string>& worker_reports() const {
    return worker_reports_;
  }

  /// The merged report's "cluster" block: coordinator-clock round timing,
  /// offset-corrected per-link latency samples, the per-superstep critical
  /// path, and the online straggler count. Null before Run.
  const obs::JsonValue& cluster_report() const { return cluster_report_; }

 private:
  Status RunJob(DistributedSession& session, bool close) {
    const auto wall_start = std::chrono::steady_clock::now();
    SURFER_ASSIGN_OR_RETURN(CoordinatorOutcome outcome, session.RunJob(app_));
    if (close) {
      outcome.phases.reap_s += session.Close();
    }
    SURFER_RETURN_IF_ERROR(
        Assemble(outcome, static_cast<uint32_t>(outcome.worker_stats.size()),
                 topology_->num_machines()));
    stats_.wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count();
    runtime::ExportRuntimeStats(stats_, config_.metrics);
    return Status::OK();
  }

  Status Assemble(const CoordinatorOutcome& outcome, uint32_t num_processes,
                  uint32_t num_machines) {
    // Baseline, then overlay each partition's highest-version final state.
    states_ = InitialStates(app_, *graph_);
    std::vector<int32_t> best(graph_->num_partitions(), -1);
    for (const FinalStateMsg& msg : outcome.states) {
      if (msg.partition >= best.size() || msg.version <= best[msg.partition]) {
        continue;
      }
      const size_t expect =
          static_cast<size_t>(msg.count) * sizeof(VertexState);
      if (msg.states.size() != expect ||
          static_cast<size_t>(msg.begin) + msg.count > states_.size()) {
        return Status::Corruption("malformed final state for partition " +
                                  std::to_string(msg.partition));
      }
      if (msg.count > 0) {
        std::memcpy(&states_[msg.begin], msg.states.data(), expect);
      }
      best[msg.partition] = msg.version;
    }
    for (PartitionId p = 0; p < best.size(); ++p) {
      if (best[p] < 0) {
        return Status::Internal("no final state received for partition " +
                                std::to_string(p));
      }
    }

    virtual_outputs_.clear();
    std::map<uint64_t, int32_t> virtual_version;
    constexpr size_t kEntry =
        sizeof(uint64_t) + sizeof(int32_t) + sizeof(VirtualOutput);
    for (const FinalVirtualMsg& msg : outcome.virtuals) {
      if (msg.entry_bytes != sizeof(VirtualOutput) ||
          msg.entries.size() != static_cast<size_t>(msg.count) * kEntry) {
        return Status::Corruption("malformed final virtual outputs");
      }
      const uint8_t* base = msg.entries.data();
      for (uint32_t i = 0; i < msg.count; ++i) {
        const uint64_t id = runtime::ReadPod<uint64_t>(base + i * kEntry);
        const int32_t version =
            runtime::ReadPod<int32_t>(base + i * kEntry + sizeof(uint64_t));
        const VirtualOutput output = runtime::ReadPod<VirtualOutput>(
            base + i * kEntry + sizeof(uint64_t) + sizeof(int32_t));
        auto it = virtual_version.find(id);
        if (it == virtual_version.end() || version > it->second) {
          virtual_version[id] = version;
          virtual_outputs_[id] = output;
        }
      }
    }

    stats_ = runtime::RuntimeStats{};
    stats_.num_workers = num_processes;
    stats_.num_machines = num_machines;
    stats_.num_processes = num_processes;
    stats_.iterations = config_.iterations;
    stats_.link_bytes.assign(static_cast<size_t>(num_machines) * num_machines,
                             0);
    for (const WorkerStatsMsg& worker : outcome.worker_stats) {
      stats_ += worker.counters;
      stats_.AddLinkBytes(worker.link_bytes);
      stats_.peak_rss_bytes =
          std::max(stats_.peak_rss_bytes, worker.peak_rss_bytes);
    }
    stats_.machine_failures = outcome.machine_failures;
    stats_.barrier_generations = outcome.rounds;
    stats_.rss_bytes = obs::ReadMemoryUsage().rss_bytes;

    alive_ = outcome.alive;
    worker_reports_ = outcome.worker_reports;
    BuildClusterView(outcome, num_processes);
    return Status::OK();
  }

  /// Folds the per-worker link records into offset-corrected cluster link
  /// samples, chains the per-superstep critical path, and serializes the
  /// "cluster" block (also written to dist_cluster.report.json when an
  /// artifact dir is configured).
  void BuildClusterView(const CoordinatorOutcome& outcome,
                        uint32_t num_processes) {
    std::vector<runtime::ClusterLinkSample> links;
    const size_t procs =
        std::min<size_t>(outcome.worker_stats.size(), num_processes);
    for (uint32_t to = 0; to < procs; ++to) {
      const WorkerStatsMsg& stats = outcome.worker_stats[to];
      for (const RoundLinkStat& raw : stats.round_link_stats) {
        runtime::ClusterLinkSample sample;
        sample.seq = raw.seq;
        sample.from_proc = raw.from_proc;
        sample.to_proc = to;
        sample.frames = raw.frames;
        sample.bytes = raw.bytes;
        // The receiver recorded (receiver clock - sender clock); adding its
        // handshake-estimated offset to the sender — (sender clock -
        // receiver clock) — recovers the true transit time.
        double offset = 0.0;
        if (stats.clock_synced != 0 &&
            raw.from_proc < stats.clock_offset_us.size()) {
          offset = static_cast<double>(stats.clock_offset_us[raw.from_proc]);
        }
        if (raw.frames > 0) {
          sample.mean_latency_us =
              static_cast<double>(raw.latency_sum_us) / raw.frames + offset;
        }
        sample.max_latency_us =
            static_cast<double>(raw.latency_max_us) + offset;
        links.push_back(sample);
      }
    }
    cluster_report_ = runtime::ClusterTimelineToJson(
        outcome.round_records, links, outcome.stragglers_flagged);
    SetCoordinatorCosts(outcome, cluster_report_);
    if (!options_.artifact_dir.empty()) {
      obs::JsonValue doc = obs::JsonValue::MakeObject();
      doc.Set("name", obs::JsonValue("surfer_dist_cluster"));
      doc.Set("schema_version", obs::kRunReportSchemaVersion);
      doc.Set("cluster", cluster_report_);
      (void)obs::WriteRunReport(
          options_.artifact_dir + "/dist_cluster.report.json", doc);
    }
  }

  const PartitionedGraph* graph_;
  const ReplicatedPlacement* placement_;
  const Topology* topology_;
  App app_;
  PropagationConfig config_;
  DistributedOptions options_;

  std::vector<VertexState> states_;
  std::map<uint64_t, VirtualOutput> virtual_outputs_;
  runtime::RuntimeStats stats_;
  std::vector<uint8_t> alive_;
  std::vector<std::string> worker_reports_;
  obs::JsonValue cluster_report_;
};

}  // namespace net
}  // namespace surfer

#endif  // SURFER_NET_DISTRIBUTED_H_

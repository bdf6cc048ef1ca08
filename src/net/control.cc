#include "net/control.h"

#include "runtime/wire_batch.h"

namespace surfer {
namespace net {

using runtime::AppendPod;

namespace {

template <typename T>
void AppendVector(std::vector<uint8_t>& out, const std::vector<T>& values) {
  static_assert(std::is_trivially_copyable_v<T>);
  AppendPod(out, static_cast<uint32_t>(values.size()));
  const size_t offset = out.size();
  out.resize(offset + values.size() * sizeof(T));
  if (!values.empty()) {
    std::memcpy(out.data() + offset, values.data(),
                values.size() * sizeof(T));
  }
}

template <typename T>
Status ReadVector(PayloadReader& reader, std::vector<T>* values) {
  static_assert(std::is_trivially_copyable_v<T>);
  uint32_t count = 0;
  SURFER_RETURN_IF_ERROR(reader.Read(&count));
  if (static_cast<size_t>(count) * sizeof(T) > reader.remaining()) {
    return Status::Corruption("control vector length exceeds payload");
  }
  values->resize(count);
  if (count > 0) {
    SURFER_RETURN_IF_ERROR(
        reader.ReadBytes(values->data(), count * sizeof(T)));
  }
  return Status::OK();
}

/// Encoded size of one RuntimeFaultPlan in a placement payload: machine
/// (u32), iteration (i32), stage (u8), after_tasks (u32).
constexpr size_t kEncodedFaultPlanBytes = 13;

}  // namespace

std::vector<uint8_t> EncodeHello(const HelloMsg& msg) {
  std::vector<uint8_t> out;
  AppendPod(out, msg.proc);
  AppendPod(out, msg.mesh_port);
  return out;
}

Result<HelloMsg> DecodeHello(const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  HelloMsg msg;
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.proc));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.mesh_port));
  return msg;
}

std::vector<uint8_t> EncodePeers(const PeersMsg& msg) {
  std::vector<uint8_t> out;
  AppendVector(out, msg.ports);
  return out;
}

Result<PeersMsg> DecodePeers(const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  PeersMsg msg;
  SURFER_RETURN_IF_ERROR(ReadVector(reader, &msg.ports));
  return msg;
}

std::vector<uint8_t> EncodePlacement(const PlacementMsg& msg) {
  std::vector<uint8_t> out;
  AppendPod(out, msg.num_machines);
  AppendPod(out, msg.num_partitions);
  AppendPod(out, msg.replication);
  AppendPod(out, msg.fault_tolerant);
  AppendVector(out, msg.replicas);
  AppendPod(out, static_cast<uint32_t>(msg.faults.size()));
  for (const runtime::RuntimeFaultPlan& plan : msg.faults) {
    AppendPod(out, static_cast<uint32_t>(plan.machine));
    AppendPod(out, static_cast<int32_t>(plan.iteration));
    AppendPod(out, static_cast<uint8_t>(plan.stage));
    AppendPod(out, plan.after_tasks);
  }
  AppendPod(out, msg.heartbeat_period_ms);
  AppendPod(out, msg.clock_sync_pings);
  AppendPod(out, msg.stall_proc);
  AppendPod(out, msg.stall_iteration);
  AppendPod(out, msg.stall_ms);
  return out;
}

Result<PlacementMsg> DecodePlacement(const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  PlacementMsg msg;
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.num_machines));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.num_partitions));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.replication));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.fault_tolerant));
  SURFER_RETURN_IF_ERROR(ReadVector(reader, &msg.replicas));
  uint32_t fault_count = 0;
  SURFER_RETURN_IF_ERROR(reader.Read(&fault_count));
  if (static_cast<size_t>(fault_count) * kEncodedFaultPlanBytes >
      reader.remaining()) {
    return Status::Corruption("placement fault count exceeds payload");
  }
  msg.faults.resize(fault_count);
  for (runtime::RuntimeFaultPlan& plan : msg.faults) {
    uint32_t machine = 0;
    int32_t iteration = 0;
    uint8_t stage = 0;
    SURFER_RETURN_IF_ERROR(reader.Read(&machine));
    SURFER_RETURN_IF_ERROR(reader.Read(&iteration));
    SURFER_RETURN_IF_ERROR(reader.Read(&stage));
    SURFER_RETURN_IF_ERROR(reader.Read(&plan.after_tasks));
    if (stage > static_cast<uint8_t>(runtime::RuntimeStage::kCombine)) {
      return Status::Corruption("placement fault plan has unknown stage " +
                                std::to_string(stage));
    }
    plan.machine = machine;
    plan.iteration = iteration;
    plan.stage = static_cast<runtime::RuntimeStage>(stage);
  }
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.heartbeat_period_ms));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.clock_sync_pings));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.stall_proc));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.stall_iteration));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.stall_ms));
  return msg;
}

std::vector<uint8_t> EncodeRound(const RoundMsg& msg) {
  std::vector<uint8_t> out;
  AppendPod(out, msg.seq);
  AppendPod(out, msg.iteration);
  AppendPod(out, static_cast<uint8_t>(msg.kind));
  AppendPod(out, msg.recovery);
  AppendVector(out, msg.alive);
  AppendVector(out, msg.exec);
  AppendVector(out, msg.route);
  AppendVector(out, msg.reexec);
  return out;
}

Result<RoundMsg> DecodeRound(const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  RoundMsg msg;
  uint8_t kind = 0;
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.seq));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.iteration));
  SURFER_RETURN_IF_ERROR(reader.Read(&kind));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.recovery));
  msg.kind = static_cast<RoundKind>(kind);
  SURFER_RETURN_IF_ERROR(ReadVector(reader, &msg.alive));
  SURFER_RETURN_IF_ERROR(ReadVector(reader, &msg.exec));
  SURFER_RETURN_IF_ERROR(ReadVector(reader, &msg.route));
  SURFER_RETURN_IF_ERROR(ReadVector(reader, &msg.reexec));
  return msg;
}

Status ValidateRound(const RoundMsg& msg, uint32_t num_partitions,
                     uint32_t num_machines) {
  if (msg.kind > RoundKind::kResend) {
    return Status::Corruption("round kind out of range");
  }
  if (msg.alive.size() != num_machines || msg.exec.size() != num_partitions ||
      msg.route.size() != num_partitions ||
      msg.reexec.size() != num_partitions) {
    return Status::Corruption("round vectors do not match the run's shape");
  }
  for (const std::vector<MachineId>* table :
       {&msg.exec, &msg.route, &msg.reexec}) {
    for (const MachineId m : *table) {
      if (m != kInvalidMachine && m >= num_machines) {
        return Status::Corruption("round names unknown machine " +
                                  std::to_string(m));
      }
    }
  }
  return Status::OK();
}

std::vector<uint8_t> EncodeTaskDone(const TaskDoneMsg& msg) {
  std::vector<uint8_t> out;
  AppendPod(out, msg.partition);
  AppendPod(out, msg.machine);
  AppendPod(out, msg.iteration);
  AppendPod(out, msg.kind);
  return out;
}

Result<TaskDoneMsg> DecodeTaskDone(const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  TaskDoneMsg msg;
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.partition));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.machine));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.iteration));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.kind));
  return msg;
}

std::vector<uint8_t> EncodeJob(const JobMsg& msg) {
  std::vector<uint8_t> out;
  AppendPod(out, msg.kind);
  out.insert(out.end(), msg.app.begin(), msg.app.end());
  return out;
}

Result<JobMsg> DecodeJob(const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  JobMsg msg;
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.kind));
  msg.app.assign(payload.begin() + static_cast<std::ptrdiff_t>(reader.offset()),
                 payload.end());
  return msg;
}

std::vector<uint8_t> EncodeSeq(const SeqMsg& msg) {
  std::vector<uint8_t> out;
  AppendPod(out, msg.seq);
  AppendPod(out, msg.src_proc);
  return out;
}

Result<SeqMsg> DecodeSeq(const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  SeqMsg msg;
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.seq));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.src_proc));
  return msg;
}

std::vector<uint8_t> EncodeHeartbeat(const HeartbeatMsg& msg) {
  std::vector<uint8_t> out;
  AppendPod(out, msg.proc);
  AppendPod(out, msg.stage);
  AppendPod(out, msg.iteration);
  AppendPod(out, msg.round_seq);
  AppendPod(out, msg.mailbox_frames);
  AppendPod(out, msg.inflight_bytes);
  AppendPod(out, msg.staged_wire_bytes);
  AppendPod(out, msg.rss_bytes);
  AppendPod(out, msg.barrier_waiting);
  AppendPod(out, msg.unix_us);
  return out;
}

Result<HeartbeatMsg> DecodeHeartbeat(const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  HeartbeatMsg msg;
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.proc));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.stage));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.iteration));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.round_seq));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.mailbox_frames));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.inflight_bytes));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.staged_wire_bytes));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.rss_bytes));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.barrier_waiting));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.unix_us));
  return msg;
}

std::vector<uint8_t> EncodeClockPing(const ClockPingMsg& msg) {
  std::vector<uint8_t> out;
  AppendPod(out, msg.seq);
  return out;
}

Result<ClockPingMsg> DecodeClockPing(const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  ClockPingMsg msg;
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.seq));
  return msg;
}

std::vector<uint8_t> EncodeClockPong(const ClockPongMsg& msg) {
  std::vector<uint8_t> out;
  AppendPod(out, msg.seq);
  AppendPod(out, msg.t1);
  AppendPod(out, msg.t2);
  return out;
}

Result<ClockPongMsg> DecodeClockPong(const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  ClockPongMsg msg;
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.seq));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.t1));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.t2));
  return msg;
}

std::vector<uint8_t> EncodeClockOffset(const ClockOffsetMsg& msg) {
  std::vector<uint8_t> out;
  AppendPod(out, msg.offset_us);
  AppendPod(out, msg.uncertainty_us);
  return out;
}

Result<ClockOffsetMsg> DecodeClockOffset(const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  ClockOffsetMsg msg;
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.offset_us));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.uncertainty_us));
  return msg;
}

std::vector<uint8_t> EncodeStateUpdate(const StateUpdateMsg& msg) {
  std::vector<uint8_t> out;
  AppendPod(out, msg.partition);
  AppendPod(out, msg.iteration);
  AppendPod(out, msg.begin);
  AppendPod(out, msg.count);
  AppendVector(out, msg.states);
  AppendPod(out, msg.virtual_count);
  AppendVector(out, msg.virtuals);
  return out;
}

Result<StateUpdateMsg> DecodeStateUpdate(const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  StateUpdateMsg msg;
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.partition));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.iteration));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.begin));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.count));
  SURFER_RETURN_IF_ERROR(ReadVector(reader, &msg.states));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.virtual_count));
  SURFER_RETURN_IF_ERROR(ReadVector(reader, &msg.virtuals));
  return msg;
}

std::vector<uint8_t> EncodeWorkerStats(const WorkerStatsMsg& msg) {
  std::vector<uint8_t> out;
  runtime::RuntimeCounters::ForEachCounter(
      [&](const char*, auto member) { AppendPod(out, msg.counters.*member); });
  AppendPod(out, msg.peak_rss_bytes);
  AppendPod(out, msg.heartbeats_sent);
  AppendPod(out, msg.clock_synced);
  AppendVector(out, msg.link_bytes);
  AppendVector(out, msg.clock_offset_us);
  AppendVector(out, msg.clock_uncertainty_us);
  AppendVector(out, msg.round_link_stats);
  return out;
}

Result<WorkerStatsMsg> DecodeWorkerStats(const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  WorkerStatsMsg msg;
  Status status;
  runtime::RuntimeCounters::ForEachCounter([&](const char*, auto member) {
    if (status.ok()) {
      status = reader.Read(&(msg.counters.*member));
    }
  });
  SURFER_RETURN_IF_ERROR(status);
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.peak_rss_bytes));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.heartbeats_sent));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.clock_synced));
  SURFER_RETURN_IF_ERROR(ReadVector(reader, &msg.link_bytes));
  SURFER_RETURN_IF_ERROR(ReadVector(reader, &msg.clock_offset_us));
  SURFER_RETURN_IF_ERROR(ReadVector(reader, &msg.clock_uncertainty_us));
  SURFER_RETURN_IF_ERROR(ReadVector(reader, &msg.round_link_stats));
  return msg;
}

Status ValidateWorkerStats(const WorkerStatsMsg& msg, uint32_t num_machines,
                           uint32_t num_processes) {
  const size_t links = static_cast<size_t>(num_machines) * num_machines;
  if (msg.link_bytes.size() != links) {
    return Status::Corruption("link matrix has " +
                              std::to_string(msg.link_bytes.size()) +
                              " entries, expected " +
                              std::to_string(num_machines) + "^2");
  }
  for (const size_t size :
       {msg.clock_offset_us.size(), msg.clock_uncertainty_us.size()}) {
    if (size != 0 && size != num_processes) {
      return Status::Corruption("clock vector has " + std::to_string(size) +
                                " entries for " +
                                std::to_string(num_processes) + " processes");
    }
  }
  for (const RoundLinkStat& link : msg.round_link_stats) {
    if (link.from_proc >= num_processes) {
      return Status::Corruption("round link names unknown process " +
                                std::to_string(link.from_proc));
    }
  }
  return Status::OK();
}

std::vector<uint8_t> EncodeFinalState(const FinalStateMsg& msg) {
  std::vector<uint8_t> out;
  AppendPod(out, msg.partition);
  AppendPod(out, msg.version);
  AppendPod(out, msg.begin);
  AppendPod(out, msg.count);
  AppendVector(out, msg.states);
  return out;
}

Result<FinalStateMsg> DecodeFinalState(const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  FinalStateMsg msg;
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.partition));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.version));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.begin));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.count));
  SURFER_RETURN_IF_ERROR(ReadVector(reader, &msg.states));
  return msg;
}

std::vector<uint8_t> EncodeFinalVirtual(const FinalVirtualMsg& msg) {
  std::vector<uint8_t> out;
  AppendPod(out, msg.entry_bytes);
  AppendPod(out, msg.count);
  AppendVector(out, msg.entries);
  return out;
}

Result<FinalVirtualMsg> DecodeFinalVirtual(
    const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  FinalVirtualMsg msg;
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.entry_bytes));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.count));
  SURFER_RETURN_IF_ERROR(ReadVector(reader, &msg.entries));
  return msg;
}

}  // namespace net
}  // namespace surfer

#include "runtime/timeline.h"

namespace surfer {
namespace runtime {

const char* RuntimeStageName(RuntimeStage stage) {
  return stage == RuntimeStage::kTransfer ? "transfer" : "combine";
}

StragglerStats ComputeStraggler(const SuperstepProfile& step) {
  StragglerStats stats;
  double total_busy = 0.0;
  uint32_t active_machines = 0;
  for (MachineId m = 0; m < step.machines.size(); ++m) {
    const PhaseSeconds& phases = step.machines[m];
    const double busy = phases.Busy();
    if (busy <= 0.0) {
      continue;
    }
    ++active_machines;
    total_busy += busy;
    if (busy > stats.max_busy_s) {
      stats.max_busy_s = busy;
      stats.machine = m;
    }
  }
  if (active_machines == 0) {
    return stats;
  }
  stats.mean_busy_s = total_busy / active_machines;
  stats.skew = stats.mean_busy_s > 0.0 ? stats.max_busy_s / stats.mean_busy_s
                                       : 0.0;
  const PhaseSeconds& slowest = step.machines[stats.machine];
  stats.dominant_phase = "compute";
  double dominant = slowest.compute_s;
  if (slowest.serialize_s > dominant) {
    dominant = slowest.serialize_s;
    stats.dominant_phase = "serialize";
  }
  if (slowest.blocked_s > dominant) {
    stats.dominant_phase = "blocked";
  }
  return stats;
}

std::vector<CriticalPathEntry> ComputeCriticalPath(
    const std::vector<SuperstepProfile>& timeline) {
  std::vector<CriticalPathEntry> path;
  path.reserve(timeline.size());
  for (size_t step = 0; step < timeline.size(); ++step) {
    const SuperstepProfile& profile = timeline[step];
    CriticalPathEntry entry;
    entry.step = step;
    entry.iteration = profile.iteration;
    entry.stage = profile.stage;
    for (MachineId m = 0; m < profile.machines.size(); ++m) {
      const double busy = profile.machines[m].Busy();
      if (entry.machine == kInvalidMachine || busy > entry.busy_s) {
        entry.machine = m;
        entry.busy_s = busy;
      }
    }
    path.push_back(entry);
  }
  return path;
}

namespace {

obs::JsonValue PhasesToJson(const PhaseSeconds& phases) {
  obs::JsonValue obj = obs::JsonValue::MakeObject();
  obj.Set("compute_s", phases.compute_s);
  obj.Set("serialize_s", phases.serialize_s);
  obj.Set("blocked_s", phases.blocked_s);
  obj.Set("barrier_s", phases.barrier_s);
  obj.Set("wire_bytes", phases.wire_bytes);
  obj.Set("scatter_messages", phases.scatter_messages);
  obj.Set("frontier_skipped", phases.frontier_skipped);
  obj.Set("busy_s", phases.Busy());
  return obj;
}

}  // namespace

obs::JsonValue TimelineToJson(const std::vector<SuperstepProfile>& timeline) {
  obs::JsonValue block = obs::JsonValue::MakeObject();
  obs::JsonValue steps = obs::JsonValue::MakeArray();
  for (const SuperstepProfile& profile : timeline) {
    obs::JsonValue step = obs::JsonValue::MakeObject();
    step.Set("iteration", profile.iteration);
    step.Set("stage", RuntimeStageName(profile.stage));
    step.Set("start_s", profile.start_s);
    step.Set("end_s", profile.end_s);
    step.Set("handoff_s", profile.handoff_s);
    obs::JsonValue machines = obs::JsonValue::MakeArray();
    for (MachineId m = 0; m < profile.machines.size(); ++m) {
      const PhaseSeconds& phases = profile.machines[m];
      // All-zero machines are elided: with M machines and S supersteps a
      // dense dump is M x S rows, most of which say nothing on skewed runs.
      if (phases.Busy() <= 0.0 && phases.barrier_s <= 0.0) {
        continue;
      }
      obs::JsonValue row = obs::JsonValue::MakeObject();
      row.Set("machine", static_cast<uint64_t>(m));
      obs::JsonValue phase_fields = PhasesToJson(phases);
      for (auto& [key, value] : phase_fields.as_object()) {
        row.Set(key, std::move(value));
      }
      machines.Append(std::move(row));
    }
    step.Set("machines", std::move(machines));
    const StragglerStats straggler = ComputeStraggler(profile);
    obs::JsonValue skew = obs::JsonValue::MakeObject();
    skew.Set("machine", straggler.machine == kInvalidMachine
                            ? obs::JsonValue(nullptr)
                            : obs::JsonValue(
                                  static_cast<uint64_t>(straggler.machine)));
    skew.Set("max_busy_s", straggler.max_busy_s);
    skew.Set("mean_busy_s", straggler.mean_busy_s);
    skew.Set("skew", straggler.skew);
    skew.Set("dominant_phase", straggler.dominant_phase);
    step.Set("straggler", std::move(skew));
    steps.Append(std::move(step));
  }
  block.Set("steps", std::move(steps));

  const std::vector<CriticalPathEntry> path = ComputeCriticalPath(timeline);
  obs::JsonValue critical = obs::JsonValue::MakeObject();
  double total_busy = 0.0;
  obs::JsonValue entries = obs::JsonValue::MakeArray();
  for (const CriticalPathEntry& entry : path) {
    total_busy += entry.busy_s;
    obs::JsonValue e = obs::JsonValue::MakeObject();
    e.Set("step", static_cast<uint64_t>(entry.step));
    e.Set("iteration", entry.iteration);
    e.Set("stage", RuntimeStageName(entry.stage));
    e.Set("machine", entry.machine == kInvalidMachine
                         ? obs::JsonValue(nullptr)
                         : obs::JsonValue(static_cast<uint64_t>(entry.machine)));
    e.Set("busy_s", entry.busy_s);
    entries.Append(std::move(e));
  }
  critical.Set("total_busy_s", total_busy);
  critical.Set("steps", std::move(entries));
  block.Set("critical_path", std::move(critical));
  return block;
}

const char* RoundKindName(int kind) {
  switch (kind) {
    case 0:
      return "transfer";
    case 1:
      return "combine";
    case 2:
      return "resend";
    default:
      return "unknown";
  }
}

std::vector<ClusterCriticalPathEntry> ComputeClusterCriticalPath(
    const std::vector<ClusterRoundRecord>& rounds,
    const std::vector<ClusterLinkSample>& links) {
  std::vector<ClusterCriticalPathEntry> path;
  path.reserve(rounds.size());
  for (const ClusterRoundRecord& round : rounds) {
    ClusterCriticalPathEntry entry;
    entry.seq = round.seq;
    entry.iteration = round.iteration;
    entry.kind = round.kind;
    for (uint32_t p = 0; p < round.done_unix_us.size(); ++p) {
      if (round.done_unix_us[p] == 0 ||
          round.done_unix_us[p] < round.broadcast_unix_us) {
        continue;  // dead before the round, or clock went backwards
      }
      const double duration =
          static_cast<double>(round.done_unix_us[p] -
                              round.broadcast_unix_us) /
          1e6;
      if (entry.proc == 0xFFFFFFFFu || duration > entry.duration_s) {
        entry.proc = p;
        entry.duration_s = duration;
      }
    }
    if (entry.proc != 0xFFFFFFFFu) {
      // The worst inbound link into the critical process this round: the
      // one whose frames sat longest between send and receive.
      for (const ClusterLinkSample& link : links) {
        if (link.seq != round.seq || link.to_proc != entry.proc) {
          continue;
        }
        if (!entry.has_link ||
            link.max_latency_us > entry.link_max_latency_us) {
          entry.has_link = true;
          entry.link_from = link.from_proc;
          entry.link_mean_latency_us = link.mean_latency_us;
          entry.link_max_latency_us = link.max_latency_us;
          entry.link_bytes = link.bytes;
        }
      }
    }
    path.push_back(entry);
  }
  return path;
}

obs::JsonValue ClusterTimelineToJson(
    const std::vector<ClusterRoundRecord>& rounds,
    const std::vector<ClusterLinkSample>& links,
    uint64_t stragglers_flagged) {
  obs::JsonValue block = obs::JsonValue::MakeObject();
  block.Set("stragglers_flagged", stragglers_flagged);

  obs::JsonValue round_rows = obs::JsonValue::MakeArray();
  for (const ClusterRoundRecord& round : rounds) {
    obs::JsonValue row = obs::JsonValue::MakeObject();
    row.Set("seq", round.seq);
    row.Set("iteration", round.iteration);
    row.Set("stage", RoundKindName(round.kind));
    obs::JsonValue durations = obs::JsonValue::MakeArray();
    for (const uint64_t done : round.done_unix_us) {
      if (done == 0 || done < round.broadcast_unix_us) {
        durations.Append(obs::JsonValue(nullptr));
      } else {
        durations.Append(
            static_cast<double>(done - round.broadcast_unix_us) / 1e6);
      }
    }
    row.Set("proc_duration_s", std::move(durations));
    round_rows.Append(std::move(row));
  }
  block.Set("rounds", std::move(round_rows));

  obs::JsonValue link_rows = obs::JsonValue::MakeArray();
  for (const ClusterLinkSample& link : links) {
    obs::JsonValue row = obs::JsonValue::MakeObject();
    row.Set("seq", link.seq);
    row.Set("from", static_cast<uint64_t>(link.from_proc));
    row.Set("to", static_cast<uint64_t>(link.to_proc));
    row.Set("frames", static_cast<uint64_t>(link.frames));
    row.Set("bytes", link.bytes);
    row.Set("mean_latency_us", link.mean_latency_us);
    row.Set("max_latency_us", link.max_latency_us);
    link_rows.Append(std::move(row));
  }
  block.Set("links", std::move(link_rows));

  const std::vector<ClusterCriticalPathEntry> path =
      ComputeClusterCriticalPath(rounds, links);
  obs::JsonValue critical = obs::JsonValue::MakeObject();
  double total_s = 0.0;
  obs::JsonValue steps = obs::JsonValue::MakeArray();
  for (const ClusterCriticalPathEntry& entry : path) {
    total_s += entry.duration_s;
    obs::JsonValue e = obs::JsonValue::MakeObject();
    e.Set("seq", entry.seq);
    e.Set("iteration", entry.iteration);
    e.Set("stage", RoundKindName(entry.kind));
    e.Set("proc", entry.proc == 0xFFFFFFFFu
                      ? obs::JsonValue(nullptr)
                      : obs::JsonValue(static_cast<uint64_t>(entry.proc)));
    e.Set("duration_s", entry.duration_s);
    if (entry.has_link) {
      obs::JsonValue link = obs::JsonValue::MakeObject();
      link.Set("from", static_cast<uint64_t>(entry.link_from));
      link.Set("mean_latency_us", entry.link_mean_latency_us);
      link.Set("max_latency_us", entry.link_max_latency_us);
      link.Set("bytes", entry.link_bytes);
      e.Set("link", std::move(link));
    } else {
      e.Set("link", obs::JsonValue(nullptr));
    }
    steps.Append(std::move(e));
  }
  critical.Set("total_s", total_s);
  critical.Set("steps", std::move(steps));
  block.Set("critical_path", std::move(critical));
  return block;
}

}  // namespace runtime
}  // namespace surfer

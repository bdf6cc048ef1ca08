// surfer_trace: analysis and gating CLI over surfer's JSON artifacts.
//
//   surfer_trace summary <run_report.json>
//       Top spans and, when present, the per-superstep timeline: phase
//       breakdown, straggler per step, and the critical path.
//
//   surfer_trace diff <before.json> <after.json>
//       Every numeric field present in both files whose value changed.
//
//   surfer_trace check <current.json> [--baseline <path>]
//                      [--tolerance <frac>] [--strict-drops]
//       Gates a BENCH_*.json against a committed baseline: exits nonzero on
//       a perf regression or a broken bit-identity/byte-count invariant.
//       A file with no `points` array on either side is a run report (a
//       bench's, a distributed worker's or the merged cluster report): it
//       must pass the run-report schema (obs::ValidateRunReport). Nonzero
//       drop counters (trace events, telemetry samples) warn by default and
//       fail under --strict-drops. Without --baseline the file's own
//       basename in the current directory is used, so
//       `surfer_trace check BENCH_partition.json` from the repo root
//       self-checks the committed baseline (a smoke test that the gate and
//       the baseline agree).
//
//   surfer_trace merge -o <merged.json> <trace.json> [<trace.json> ...]
//       Combines per-process Chrome traces (e.g. the dist_worker_N.trace.json
//       files a distributed run writes) into one timeline with a lane per
//       process; when every input carries an origin_unix_us anchor the
//       timestamps are aligned onto a common clock.
//
//   surfer_trace telemetry <run_report.json>
//       Summarizes the flight recorder's time series (min/mean/max/p99,
//       peak timestamp, ceiling occupancy) and scans them for sustained
//       conditions: channel backpressure windows, wire-pool exhaustion, and
//       barrier-wait onset — each correlated against the superstep bounds
//       in the report's timeline block, so "which superstep went wrong"
//       falls out of timestamps instead of guesswork.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/bench_gate.h"
#include "obs/json.h"
#include "obs/trace_merge.h"

namespace {

using surfer::obs::BenchCheckOptions;
using surfer::obs::BenchCheckResult;
using surfer::obs::JsonValue;

int Usage() {
  std::fprintf(stderr,
               "usage: surfer_trace summary <run_report.json>\n"
               "       surfer_trace diff <before.json> <after.json>\n"
               "       surfer_trace check <current.json> [--baseline <path>]"
               " [--tolerance <frac>] [--strict-drops]\n"
               "           (a file without 'points' is checked as a run"
               " report: schema + drop counters)\n"
               "       surfer_trace merge -o <merged.json> <trace.json>"
               " [<trace.json> ...]\n"
               "       surfer_trace telemetry <run_report.json>\n");
  return 2;
}

bool LoadJson(const std::string& path, JsonValue* out) {
  std::ifstream in(path);
  if (!in.is_open()) {
    std::fprintf(stderr, "surfer_trace: cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  auto parsed = surfer::obs::ParseJson(text.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "surfer_trace: %s: %s\n", path.c_str(),
                 parsed.status().message().c_str());
    return false;
  }
  *out = std::move(parsed).value();
  return true;
}

double NumberOr(const JsonValue* v, double fallback) {
  return v != nullptr && v->is_number() ? v->as_number() : fallback;
}

std::string StringOr(const JsonValue* v, const std::string& fallback) {
  return v != nullptr && v->is_string() ? v->as_string() : fallback;
}

void PrintSpans(const JsonValue& report) {
  const JsonValue* trace = report.Find("trace");
  const JsonValue* spans = trace != nullptr ? trace->Find("spans") : nullptr;
  if (spans == nullptr || !spans->is_array() || spans->as_array().empty()) {
    return;
  }
  std::printf("top spans (by total time):\n");
  std::printf("  %-40s %8s %12s %12s %12s\n", "name", "count", "total_s",
              "p99_s", "max_s");
  size_t shown = 0;
  for (const JsonValue& span : spans->as_array()) {
    if (++shown > 15) {
      std::printf("  ... %zu more\n", spans->as_array().size() - 15);
      break;
    }
    std::printf("  %-40s %8.0f %12.6f %12.6f %12.6f\n",
                StringOr(span.Find("name"), "?").c_str(),
                NumberOr(span.Find("count"), 0),
                NumberOr(span.Find("total_s"), 0),
                NumberOr(span.Find("p99_s"), 0),
                NumberOr(span.Find("max_s"), 0));
  }
}

void PrintTimeline(const JsonValue& report) {
  const JsonValue* timeline = report.Find("timeline");
  if (timeline == nullptr || !timeline->is_object()) {
    return;
  }
  const JsonValue* steps = timeline->Find("steps");
  if (steps != nullptr && steps->is_array() && !steps->as_array().empty()) {
    std::printf("\nsuperstep timeline:\n");
    std::printf("  %4s %-9s %9s %12s %12s %7s %-10s %10s\n", "iter", "stage",
                "straggler", "max_busy_s", "mean_busy_s", "skew", "dominant",
                "handoff_s");
    for (const JsonValue& step : steps->as_array()) {
      const JsonValue* straggler = step.Find("straggler");
      if (straggler == nullptr) {
        continue;
      }
      const JsonValue* machine = straggler->Find("machine");
      const std::string who =
          machine != nullptr && machine->is_number()
              ? "m" + std::to_string(
                          static_cast<long long>(machine->as_number()))
              : "-";
      std::printf("  %4.0f %-9s %9s %12.6f %12.6f %7.2f %-10s %10.6f\n",
                  NumberOr(step.Find("iteration"), 0),
                  StringOr(step.Find("stage"), "?").c_str(), who.c_str(),
                  NumberOr(straggler->Find("max_busy_s"), 0),
                  NumberOr(straggler->Find("mean_busy_s"), 0),
                  NumberOr(straggler->Find("skew"), 0),
                  StringOr(straggler->Find("dominant_phase"), "-").c_str(),
                  NumberOr(step.Find("handoff_s"), 0));
    }
  }
  const JsonValue* critical = timeline->Find("critical_path");
  if (critical != nullptr && critical->is_object()) {
    std::printf("\ncritical path: %.6fs busy across %zu supersteps\n",
                NumberOr(critical->Find("total_busy_s"), 0),
                critical->Find("steps") != nullptr &&
                        critical->Find("steps")->is_array()
                    ? critical->Find("steps")->as_array().size()
                    : 0);
  }
}

/// The distributed engine's "cluster" block: coordinator-clock round
/// timing folded with offset-corrected per-link latency into a cluster-wide
/// per-superstep critical path.
void PrintCluster(const JsonValue& report) {
  const JsonValue* cluster = report.Find("cluster");
  if (cluster == nullptr || !cluster->is_object()) {
    return;
  }
  const double stragglers = NumberOr(cluster->Find("stragglers_flagged"), 0);
  const JsonValue* links = cluster->Find("links");
  std::printf("\ncluster: %zu link samples, %.0f stragglers flagged online\n",
              links != nullptr && links->is_array() ? links->as_array().size()
                                                    : 0,
              stragglers);
  if (const JsonValue* phases = cluster->Find("coordinator_s");
      phases != nullptr && phases->is_object()) {
    std::printf("coordinator:");
    for (const auto& [phase, seconds] : phases->as_object()) {
      std::printf(" %s %.6fs", phase.c_str(), NumberOr(&seconds, 0));
    }
    std::printf("\n");
  }
  if (const JsonValue* frames = cluster->Find("control_frames_read");
      frames != nullptr && frames->is_object()) {
    std::printf("control frames read:");
    for (const auto& [type, count] : frames->as_object()) {
      std::printf(" %s %.0f", type.c_str(), NumberOr(&count, 0));
    }
    std::printf("\n");
  }
  const JsonValue* critical = cluster->Find("critical_path");
  const JsonValue* steps =
      critical != nullptr ? critical->Find("steps") : nullptr;
  if (steps == nullptr || !steps->is_array() || steps->as_array().empty()) {
    return;
  }
  std::printf("cluster critical path: %.6fs across %zu rounds\n",
              NumberOr(critical->Find("total_s"), 0),
              steps->as_array().size());
  std::printf("  %6s %4s %-9s %5s %12s %-28s\n", "round", "iter", "stage",
              "proc", "duration_s", "worst inbound link");
  for (const JsonValue& step : steps->as_array()) {
    const JsonValue* proc = step.Find("proc");
    const std::string who =
        proc != nullptr && proc->is_number()
            ? "p" + std::to_string(static_cast<long long>(proc->as_number()))
            : "-";
    std::string link_str = "-";
    if (const JsonValue* link = step.Find("link");
        link != nullptr && link->is_object()) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "p%lld (mean %.0fus, max %.0fus)",
                    static_cast<long long>(NumberOr(link->Find("from"), 0)),
                    NumberOr(link->Find("mean_latency_us"), 0),
                    NumberOr(link->Find("max_latency_us"), 0));
      link_str = buf;
    }
    std::printf("  %6.0f %4.0f %-9s %5s %12.6f %-28s\n",
                NumberOr(step.Find("seq"), 0),
                NumberOr(step.Find("iteration"), 0),
                StringOr(step.Find("stage"), "?").c_str(), who.c_str(),
                NumberOr(step.Find("duration_s"), 0), link_str.c_str());
  }
}

int RunSummary(const std::string& path) {
  JsonValue report;
  if (!LoadJson(path, &report)) {
    return 1;
  }
  std::printf("%s (schema v%.0f)\n", StringOr(report.Find("name"), "?").c_str(),
              NumberOr(report.Find("schema_version"), 0));
  if (const JsonValue* notes = report.Find("notes");
      notes != nullptr && notes->is_string()) {
    std::printf("notes: %s\n", notes->as_string().c_str());
  }
  if (const JsonValue* runtime = report.Find("runtime");
      runtime != nullptr && runtime->is_object()) {
    std::printf(
        "runtime: %.0f machines x %.0f workers, %.0f iterations, "
        "wall %.4fs, barrier wait %.4fs, %.0f stalls\n",
        NumberOr(runtime->Find("num_machines"), 0),
        NumberOr(runtime->Find("num_workers"), 0),
        NumberOr(runtime->Find("iterations"), 0),
        NumberOr(runtime->Find("wall_seconds"), 0),
        NumberOr(runtime->Find("barrier_wait_seconds"), 0),
        NumberOr(runtime->Find("send_stalls"), 0));
    // Synchronization apart from compute and communication: the generation
    // count, how waits ended, and the wake-up cost of starting each stage.
    // Reports from before the hand-off fields read as zeros.
    std::printf(
        "barrier: %.0f generations, %.0f waits released spinning, %.0f "
        "parked, stage hand-off %.6fs\n",
        NumberOr(runtime->Find("barrier_generations"), 0),
        NumberOr(runtime->Find("barrier_waits_spun"), 0),
        NumberOr(runtime->Find("barrier_waits_parked"), 0),
        NumberOr(runtime->Find("handoff_seconds"), 0));
    // The sort-free regroup counters: scatter throughput is the bench-gated
    // quantity, and a nonzero skipped count means frontier gating was live
    // (the app opted in via kSkipSilentVertices).
    if (const double scattered =
            NumberOr(runtime->Find("combine_messages_scattered"), 0);
        scattered > 0) {
      std::printf(
          "combine: %.0f messages scattered in %.6fs (%.3g msgs/s), "
          "%.0f silent vertices skipped by frontier gating\n",
          scattered, NumberOr(runtime->Find("combine_scatter_seconds"), 0),
          NumberOr(runtime->Find("combine_scatter_msgs_per_sec"), 0),
          NumberOr(runtime->Find("frontier_vertices_skipped"), 0));
    }
  }
  PrintSpans(report);
  PrintTimeline(report);
  PrintCluster(report);
  return 0;
}

int RunDiff(const std::string& before_path, const std::string& after_path) {
  JsonValue before;
  JsonValue after;
  if (!LoadJson(before_path, &before) || !LoadJson(after_path, &after)) {
    return 1;
  }
  const std::vector<surfer::obs::JsonDelta> deltas =
      surfer::obs::DiffNumbers(before, after);
  if (deltas.empty()) {
    std::printf("no numeric differences\n");
    return 0;
  }
  for (const auto& delta : deltas) {
    if (delta.before != 0.0) {
      std::printf("%-60s %14.6g -> %-14.6g (%+.1f%%)\n", delta.path.c_str(),
                  delta.before, delta.after,
                  (delta.after / delta.before - 1.0) * 100.0);
    } else {
      std::printf("%-60s %14.6g -> %-14.6g\n", delta.path.c_str(),
                  delta.before, delta.after);
    }
  }
  return 0;
}

int RunCheck(const std::vector<std::string>& args) {
  std::string current_path;
  std::string baseline_path;
  BenchCheckOptions options;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--baseline" && i + 1 < args.size()) {
      baseline_path = args[++i];
    } else if (args[i] == "--tolerance" && i + 1 < args.size()) {
      options.rel_tolerance = std::stod(args[++i]);
    } else if (args[i] == "--strict-drops") {
      options.strict_drops = true;
    } else if (current_path.empty()) {
      current_path = args[i];
    } else {
      return Usage();
    }
  }
  if (current_path.empty()) {
    return Usage();
  }
  if (baseline_path.empty()) {
    baseline_path =
        std::filesystem::path(current_path).filename().string();
  }
  JsonValue current;
  JsonValue baseline;
  if (!LoadJson(current_path, &current) ||
      !LoadJson(baseline_path, &baseline)) {
    return 1;
  }
  const BenchCheckResult result =
      surfer::obs::CheckBenchBaseline(current, baseline, options);
  for (const std::string& note : result.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  for (const std::string& failure : result.failures) {
    std::fprintf(stderr, "FAIL: %s\n", failure.c_str());
  }
  if (result.ok) {
    std::printf("check OK: %s vs %s\n", current_path.c_str(),
                baseline_path.c_str());
    return 0;
  }
  return 1;
}

int RunMerge(const std::vector<std::string>& args) {
  std::string out_path;
  std::vector<std::string> input_paths;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "-o" && i + 1 < args.size()) {
      out_path = args[++i];
    } else {
      input_paths.push_back(args[i]);
    }
  }
  if (out_path.empty() || input_paths.empty()) {
    return Usage();
  }
  std::vector<surfer::obs::TraceMergeInput> inputs;
  for (const std::string& path : input_paths) {
    surfer::obs::TraceMergeInput input;
    if (!LoadJson(path, &input.trace)) {
      return 1;
    }
    input.label = std::filesystem::path(path).stem().string();
    inputs.push_back(std::move(input));
  }
  auto merged = surfer::obs::MergeChromeTraces(inputs);
  if (!merged.ok()) {
    std::fprintf(stderr, "surfer_trace: %s\n",
                 merged.status().message().c_str());
    return 1;
  }
  // Shards without a wall-clock anchor degrade the whole merge to local
  // clocks; name them so the producer can be fixed.
  if (const JsonValue* unanchored = merged->Find("unanchored");
      unanchored != nullptr && unanchored->is_array()) {
    for (const JsonValue& label : unanchored->as_array()) {
      std::fprintf(stderr,
                   "surfer_trace: warning: shard %s carries no "
                   "origin_unix_us anchor; merged timestamps stay on local "
                   "clocks\n",
                   label.is_string() ? label.as_string().c_str() : "?");
    }
  }
  std::ofstream out(out_path);
  out << merged->Write(/*indent=*/1) << "\n";
  out.close();
  if (!out.good()) {
    std::fprintf(stderr, "surfer_trace: failed writing %s\n", out_path.c_str());
    return 1;
  }
  const JsonValue* alignment = merged->Find("alignment");
  std::printf("merged %zu traces into %s (alignment: %s)\n", inputs.size(),
              out_path.c_str(),
              alignment != nullptr && alignment->is_string()
                  ? alignment->as_string().c_str()
                  : "?");
  return 0;
}

// ----------------------------------------------------------- telemetry

/// One superstep's bounds pulled from the report's timeline block, plus its
/// summed barrier seconds — what telemetry windows correlate against.
struct StepBound {
  double iteration = 0;
  std::string stage;
  double start_s = 0.0;
  double end_s = 0.0;
  double barrier_s = 0.0;
};

std::vector<StepBound> LoadStepBounds(const JsonValue& report) {
  std::vector<StepBound> bounds;
  const JsonValue* timeline = report.Find("timeline");
  const JsonValue* steps =
      timeline != nullptr ? timeline->Find("steps") : nullptr;
  if (steps == nullptr || !steps->is_array()) {
    return bounds;
  }
  for (const JsonValue& step : steps->as_array()) {
    StepBound bound;
    bound.iteration = NumberOr(step.Find("iteration"), 0);
    bound.stage = StringOr(step.Find("stage"), "?");
    bound.start_s = NumberOr(step.Find("start_s"), 0);
    bound.end_s = NumberOr(step.Find("end_s"), 0);
    if (const JsonValue* machines = step.Find("machines");
        machines != nullptr && machines->is_array()) {
      for (const JsonValue& machine : machines->as_array()) {
        bound.barrier_s += NumberOr(machine.Find("barrier_s"), 0);
      }
    }
    bounds.push_back(std::move(bound));
  }
  return bounds;
}

/// Names the supersteps a [t0, t1] second window overlaps; "-" when the
/// report predates start_s/end_s bounds (all zero) or nothing matches.
std::string StepsCovering(const std::vector<StepBound>& bounds, double t0_s,
                          double t1_s) {
  std::string out;
  for (const StepBound& bound : bounds) {
    if (bound.end_s <= bound.start_s) {
      continue;  // v2-era profile without bounds
    }
    if (bound.start_s <= t1_s && bound.end_s >= t0_s) {
      if (!out.empty()) {
        out += ", ";
      }
      out += bound.stage + "[" +
             std::to_string(static_cast<long long>(bound.iteration)) + "]";
    }
  }
  return out.empty() ? "-" : out;
}

/// A maximal run of consecutive samples satisfying a condition.
struct Window {
  double t0_us = 0.0;
  double t1_us = 0.0;
  size_t samples = 0;
  double peak = 0.0;
};

/// Scans a sample array ([t_us, value] pairs) for sustained windows where
/// `above(value)` holds for at least `min_samples` consecutive samples —
/// one tick over a threshold is noise; a sustained run is a condition.
template <typename Pred>
std::vector<Window> SustainedWindows(const JsonValue& samples, Pred above,
                                     size_t min_samples) {
  std::vector<Window> windows;
  Window open;
  bool active = false;
  auto close = [&] {
    if (active && open.samples >= min_samples) {
      windows.push_back(open);
    }
    active = false;
  };
  for (const JsonValue& pair : samples.as_array()) {
    if (!pair.is_array() || pair.as_array().size() != 2) {
      continue;
    }
    const double t_us = pair.as_array()[0].as_number();
    const double value = pair.as_array()[1].as_number();
    if (above(value)) {
      if (!active) {
        open = Window{t_us, t_us, 0, value};
        active = true;
      }
      open.t1_us = t_us;
      ++open.samples;
      open.peak = std::max(open.peak, value);
    } else {
      close();
    }
  }
  close();
  return windows;
}

void PrintWindows(const char* what, const std::vector<Window>& windows,
                  const std::vector<StepBound>& bounds, bool* any) {
  for (const Window& w : windows) {
    const double t0_s = w.t0_us / 1e6;
    const double t1_s = w.t1_us / 1e6;
    std::printf("  %-24s %9.4fs - %9.4fs (%4zu samples, peak %.3g) steps: %s\n",
                what, t0_s, t1_s, w.samples, w.peak,
                StepsCovering(bounds, t0_s, t1_s).c_str());
    *any = true;
  }
}

int RunTelemetry(const std::string& path) {
  JsonValue report;
  if (!LoadJson(path, &report)) {
    return 1;
  }
  const JsonValue* telemetry = report.Find("telemetry");
  if (telemetry == nullptr || !telemetry->is_object()) {
    std::fprintf(stderr,
                 "surfer_trace: %s has no telemetry block (run with "
                 "RuntimeOptions::telemetry.enabled, schema v3)\n",
                 path.c_str());
    return 1;
  }
  std::printf("%s: telemetry @ %.2gms period, %.0f ticks, %.0f dropped\n",
              StringOr(report.Find("name"), "?").c_str(),
              NumberOr(telemetry->Find("period_seconds"), 0) * 1e3,
              NumberOr(telemetry->Find("samples_taken"), 0),
              NumberOr(telemetry->Find("samples_dropped"), 0));
  if (NumberOr(telemetry->Find("samples_dropped"), 0) > 0) {
    std::printf("note: rings wrapped; only the newest window survived\n");
  }

  const JsonValue* series = telemetry->Find("series");
  if (series == nullptr || !series->is_array()) {
    std::fprintf(stderr, "surfer_trace: telemetry block has no series\n");
    return 1;
  }
  std::printf("\n%-36s %6s %12s %12s %12s %12s %9s\n", "series", "count",
              "min", "mean", "p99", "max", "peak_at_s");
  for (const JsonValue& entry : series->as_array()) {
    const double max = NumberOr(entry.Find("max"), 0);
    const double min = NumberOr(entry.Find("min"), 0);
    if (min == 0.0 && max == 0.0) {
      continue;  // idle series: summary-only in the report, elided here too
    }
    std::string name = StringOr(entry.Find("name"), "?");
    const double ceiling = NumberOr(entry.Find("ceiling"), 0);
    if (ceiling > 0.0) {
      char occupancy[32];
      std::snprintf(occupancy, sizeof(occupancy), " (peak %2.0f%%)",
                    100.0 * max / ceiling);
      name += occupancy;
    }
    std::printf("%-36s %6.0f %12.4g %12.4g %12.4g %12.4g %9.4f\n",
                name.c_str(), NumberOr(entry.Find("count"), 0), min,
                NumberOr(entry.Find("mean"), 0), NumberOr(entry.Find("p99"), 0),
                max, NumberOr(entry.Find("peak_t_us"), 0) / 1e6);
  }

  // Condition scan. Thresholds: sustained means >= 3 consecutive ticks, a
  // channel is backpressured at >= 80% of its byte window, the barrier is
  // congested when over half its membership is parked.
  const std::vector<StepBound> bounds = LoadStepBounds(report);
  constexpr size_t kMinSustained = 3;
  std::printf("\nsustained conditions:\n");
  bool any = false;
  double outstanding_peak = 0.0;
  for (const JsonValue& entry : series->as_array()) {
    if (StringOr(entry.Find("name"), "") == "rt_pool_outstanding_buffers") {
      outstanding_peak = NumberOr(entry.Find("max"), 0);
    }
  }
  for (const JsonValue& entry : series->as_array()) {
    const std::string name = StringOr(entry.Find("name"), "");
    const JsonValue* samples = entry.Find("samples");
    if (samples == nullptr || !samples->is_array()) {
      continue;
    }
    const double ceiling = NumberOr(entry.Find("ceiling"), 0);
    if (name.rfind("rt_channel_bytes_in_flight", 0) == 0 && ceiling > 0.0) {
      PrintWindows(
          ("backpressure " + name).c_str(),
          SustainedWindows(
              *samples, [&](double v) { return v >= 0.8 * ceiling; },
              kMinSustained),
          bounds, &any);
    } else if (name == "rt_pool_free_buffers" && outstanding_peak > 0.0) {
      // Free buffers pinned at zero while batches are outstanding: every
      // Acquire in the window allocated instead of recycling.
      PrintWindows("pool exhaustion",
                   SustainedWindows(
                       *samples, [](double v) { return v <= 0.0; },
                       kMinSustained),
                   bounds, &any);
    } else if (name == "rt_barrier_waiting" && ceiling > 0.0) {
      PrintWindows(
          "barrier congestion",
          SustainedWindows(
              *samples, [&](double v) { return v >= 0.5 * ceiling; },
              kMinSustained),
          bounds, &any);
    }
  }
  if (!any) {
    std::printf("  none\n");
  }

  // Where barrier wait concentrates, from the timeline's own accounting —
  // the answer stands even when the sampler's window missed the moment.
  const StepBound* worst = nullptr;
  double total_barrier_s = 0.0;
  for (const StepBound& bound : bounds) {
    total_barrier_s += bound.barrier_s;
    if (worst == nullptr || bound.barrier_s > worst->barrier_s) {
      worst = &bound;
    }
  }
  if (worst != nullptr && worst->barrier_s > 0.0) {
    std::printf(
        "\nbarrier wait concentrates in %s[%lld]: %.4fs of %.4fs total "
        "(%.0f%%)",
        worst->stage.c_str(), static_cast<long long>(worst->iteration),
        worst->barrier_s, total_barrier_s,
        total_barrier_s > 0.0 ? 100.0 * worst->barrier_s / total_barrier_s
                              : 0.0);
    if (worst->end_s > worst->start_s) {
      std::printf(" @ %.4fs - %.4fs", worst->start_s, worst->end_s);
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    return Usage();
  }
  const std::string command = args[0];
  args.erase(args.begin());
  if (command == "summary" && args.size() == 1) {
    return RunSummary(args[0]);
  }
  if (command == "diff" && args.size() == 2) {
    return RunDiff(args[0], args[1]);
  }
  if (command == "check") {
    return RunCheck(args);
  }
  if (command == "merge") {
    return RunMerge(args);
  }
  if (command == "telemetry" && args.size() == 1) {
    return RunTelemetry(args[0]);
  }
  return Usage();
}

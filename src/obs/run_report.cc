#include "obs/run_report.h"

#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <initializer_list>

#include <unistd.h>

#include "common/host.h"

// Stamped by src/obs/CMakeLists.txt so provenance headers can state how the
// producing binary was built.
#ifndef SURFER_BUILD_TYPE_NAME
#define SURFER_BUILD_TYPE_NAME "unknown"
#endif
#ifndef SURFER_SANITIZE_NAME
#define SURFER_SANITIZE_NAME ""
#endif

namespace surfer {
namespace obs {

namespace {

JsonValue HistogramSummaryJson(const Histogram& h) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("count", static_cast<uint64_t>(h.count()));
  obj.Set("mean", h.Mean());
  obj.Set("min", h.min());
  obj.Set("max", h.max());
  obj.Set("p50", h.Percentile(50));
  obj.Set("p99", h.Percentile(99));
  return obj;
}

const char* ClockName(TraceClock clock) {
  return clock == TraceClock::kWall ? "wall" : "simulated";
}

Status Expect(bool condition, const std::string& what) {
  if (!condition) {
    return Status::Corruption("run report schema violation: " + what);
  }
  return Status::OK();
}

Status RequireNumber(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.Find(key);
  return Expect(v != nullptr && v->is_number(), "missing number '" + key + "'");
}

/// `obj[key]` must be an array of objects, each carrying `keys` as numbers.
Status RequireRows(const JsonValue& obj, const std::string& key,
                   std::initializer_list<const char*> keys) {
  const JsonValue* rows = obj.Find(key);
  SURFER_RETURN_IF_ERROR(
      Expect(rows != nullptr && rows->is_array(), key + " missing"));
  for (const JsonValue& row : rows->as_array()) {
    SURFER_RETURN_IF_ERROR(
        Expect(row.is_object(), key + " row must be an object"));
    for (const char* field : keys) {
      SURFER_RETURN_IF_ERROR(RequireNumber(row, field));
    }
  }
  return Status::OK();
}

/// A field later schema revisions added without a version bump: older
/// reports may omit it, but when present it must be a number.
Status OptionalNumber(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.Find(key);
  return Expect(v == nullptr || v->is_number(),
                "'" + key + "' must be a number");
}

}  // namespace

JsonValue BuildProvenance() {
  JsonValue provenance = JsonValue::MakeObject();
  char timestamp[32] = "unknown";
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  if (gmtime_r(&now, &utc) != nullptr) {
    std::strftime(timestamp, sizeof(timestamp), "%Y-%m-%dT%H:%M:%SZ", &utc);
  }
  provenance.Set("timestamp", std::string(timestamp));
  char hostname[256] = "unknown";
  if (gethostname(hostname, sizeof(hostname)) != 0) {
    std::snprintf(hostname, sizeof(hostname), "unknown");
  }
  hostname[sizeof(hostname) - 1] = '\0';
  provenance.Set("hostname", std::string(hostname));
  provenance.Set("host_cores", static_cast<uint64_t>(HostThreads()));
  provenance.Set("build_type", std::string(SURFER_BUILD_TYPE_NAME));
  provenance.Set("sanitizer", std::string(SURFER_SANITIZE_NAME));
  return provenance;
}

JsonValue RunMetricsToJson(const RunMetrics& metrics) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("response_time_s", metrics.response_time_s);
  obj.Set("total_machine_time_s", metrics.total_machine_time_s);
  obj.Set("network_bytes", metrics.network_bytes);
  obj.Set("disk_bytes", metrics.disk_bytes);
  JsonValue stages = JsonValue::MakeArray();
  for (const StageMetrics& stage : metrics.stages) {
    JsonValue s = JsonValue::MakeObject();
    s.Set("name", stage.name);
    s.Set("duration_s", stage.duration_s);
    s.Set("busy_machine_seconds", stage.busy_machine_seconds);
    s.Set("network_bytes", stage.network_bytes);
    s.Set("disk_read_bytes", stage.disk_read_bytes);
    s.Set("disk_write_bytes", stage.disk_write_bytes);
    s.Set("num_tasks", static_cast<uint64_t>(stage.num_tasks));
    s.Set("num_reexecuted_tasks",
          static_cast<uint64_t>(stage.num_reexecuted_tasks));
    stages.Append(std::move(s));
  }
  obj.Set("stages", std::move(stages));
  obj.Set("task_seconds", HistogramSummaryJson(metrics.task_seconds));
  return obj;
}

void ExportThreadPoolStats(const ThreadPoolStats& stats,
                           MetricsRegistry* registry) {
  if (registry == nullptr) {
    return;
  }
  registry->CounterRef("threadpool_tasks_submitted")
      .Increment(stats.tasks_submitted);
  registry->CounterRef("threadpool_tasks_completed")
      .Increment(stats.tasks_completed);
  registry->GaugeRef("threadpool_max_queue_depth")
      .Set(static_cast<double>(stats.max_queue_depth));
  registry->HistogramRef("threadpool_queue_wait_seconds")
      .Merge(stats.queue_wait_seconds);
  registry->HistogramRef("threadpool_task_run_seconds")
      .Merge(stats.task_run_seconds);
}

JsonValue BuildRunReport(const RunReportOptions& options,
                         const RunMetrics* run,
                         const MetricsRegistry* registry,
                         const Tracer* tracer,
                         const JsonValue* runtime_block,
                         const JsonValue* timeline_block,
                         const JsonValue* telemetry_block) {
  JsonValue report = JsonValue::MakeObject();
  report.Set("schema_version", kRunReportSchemaVersion);
  report.Set("name", options.name);
  report.Set("provenance", BuildProvenance());
  if (!options.notes.empty()) {
    report.Set("notes", options.notes);
  }
  if (run != nullptr) {
    report.Set("run", RunMetricsToJson(*run));
  }
  if (registry != nullptr) {
    report.Set("metrics", registry->ToJson());
  }
  if (tracer != nullptr) {
    JsonValue trace = JsonValue::MakeObject();
    trace.Set("tracing_compiled_in", Tracer::CompiledIn());
    trace.Set("num_events", static_cast<uint64_t>(tracer->num_events()));
    JsonValue spans = JsonValue::MakeArray();
    for (const SpanStat& stat : tracer->SpanSummary()) {
      JsonValue s = JsonValue::MakeObject();
      s.Set("name", stat.name);
      s.Set("clock", ClockName(stat.clock));
      s.Set("count", stat.count);
      s.Set("total_s", stat.total_us / 1e6);
      s.Set("min_s", stat.min_us / 1e6);
      s.Set("p50_s", stat.p50_us / 1e6);
      s.Set("p99_s", stat.p99_us / 1e6);
      s.Set("max_s", stat.max_us / 1e6);
      spans.Append(std::move(s));
    }
    trace.Set("spans", std::move(spans));
    report.Set("trace", std::move(trace));
  }
  if (runtime_block != nullptr) {
    report.Set("runtime", *runtime_block);
  }
  if (timeline_block != nullptr) {
    report.Set("timeline", *timeline_block);
  }
  if (telemetry_block != nullptr) {
    report.Set("telemetry", *telemetry_block);
  }
  return report;
}

Status ValidateRunReport(const JsonValue& report) {
  SURFER_RETURN_IF_ERROR(Expect(report.is_object(), "root must be an object"));
  const JsonValue* version = report.Find("schema_version");
  SURFER_RETURN_IF_ERROR(Expect(version != nullptr && version->is_number(),
                                "missing schema_version"));
  const int v = static_cast<int>(version->as_number());
  SURFER_RETURN_IF_ERROR(Expect(v >= kMinSupportedRunReportSchemaVersion &&
                                    v <= kRunReportSchemaVersion,
                                "unsupported schema_version"));
  const JsonValue* name = report.Find("name");
  SURFER_RETURN_IF_ERROR(
      Expect(name != nullptr && name->is_string() && !name->as_string().empty(),
             "missing name"));

  // Optional in every version (v1/v2 artifacts predate it), but when present
  // the identifying fields must be well-formed strings.
  if (const JsonValue* provenance = report.Find("provenance");
      provenance != nullptr) {
    SURFER_RETURN_IF_ERROR(
        Expect(provenance->is_object(), "provenance must be an object"));
    for (const char* key : {"timestamp", "hostname", "build_type"}) {
      const JsonValue* field = provenance->Find(key);
      SURFER_RETURN_IF_ERROR(Expect(field != nullptr && field->is_string(),
                                    std::string("provenance.") + key));
    }
    SURFER_RETURN_IF_ERROR(RequireNumber(*provenance, "host_cores"));
  }

  if (const JsonValue* run = report.Find("run"); run != nullptr) {
    SURFER_RETURN_IF_ERROR(Expect(run->is_object(), "run must be an object"));
    for (const char* key : {"response_time_s", "total_machine_time_s",
                            "network_bytes", "disk_bytes"}) {
      SURFER_RETURN_IF_ERROR(RequireNumber(*run, key));
    }
    const JsonValue* stages = run->Find("stages");
    SURFER_RETURN_IF_ERROR(
        Expect(stages != nullptr && stages->is_array(), "run.stages missing"));
    for (const JsonValue& stage : stages->as_array()) {
      SURFER_RETURN_IF_ERROR(
          Expect(stage.is_object(), "stage must be an object"));
      const JsonValue* stage_name = stage.Find("name");
      SURFER_RETURN_IF_ERROR(Expect(
          stage_name != nullptr && stage_name->is_string(), "stage.name"));
      for (const char* key :
           {"duration_s", "busy_machine_seconds", "network_bytes",
            "disk_read_bytes", "disk_write_bytes", "num_tasks"}) {
        SURFER_RETURN_IF_ERROR(RequireNumber(stage, key));
      }
    }
    const JsonValue* task_seconds = run->Find("task_seconds");
    SURFER_RETURN_IF_ERROR(
        Expect(task_seconds != nullptr && task_seconds->is_object(),
               "run.task_seconds missing"));
    SURFER_RETURN_IF_ERROR(RequireNumber(*task_seconds, "count"));
  }

  if (const JsonValue* metrics = report.Find("metrics"); metrics != nullptr) {
    SURFER_RETURN_IF_ERROR(
        Expect(metrics->is_object(), "metrics must be an object"));
    for (const char* section : {"counters", "gauges", "histograms"}) {
      const JsonValue* arr = metrics->Find(section);
      SURFER_RETURN_IF_ERROR(
          Expect(arr != nullptr && arr->is_array(),
                 std::string("metrics.") + section + " missing"));
      for (const JsonValue& entry : arr->as_array()) {
        const JsonValue* entry_name = entry.Find("name");
        SURFER_RETURN_IF_ERROR(
            Expect(entry_name != nullptr && entry_name->is_string(),
                   std::string("metrics.") + section + "[].name"));
      }
    }
  }

  if (const JsonValue* trace = report.Find("trace"); trace != nullptr) {
    SURFER_RETURN_IF_ERROR(
        Expect(trace->is_object(), "trace must be an object"));
    SURFER_RETURN_IF_ERROR(RequireNumber(*trace, "num_events"));
    const JsonValue* spans = trace->Find("spans");
    SURFER_RETURN_IF_ERROR(Expect(spans != nullptr && spans->is_array(),
                                  "trace.spans missing"));
    for (const JsonValue& span : spans->as_array()) {
      const JsonValue* clock = span.Find("clock");
      SURFER_RETURN_IF_ERROR(Expect(
          clock != nullptr && clock->is_string() &&
              (clock->as_string() == "wall" ||
               clock->as_string() == "simulated"),
          "trace.spans[].clock must be 'wall' or 'simulated'"));
      SURFER_RETURN_IF_ERROR(RequireNumber(span, "count"));
      SURFER_RETURN_IF_ERROR(RequireNumber(span, "total_s"));
    }
  }

  if (const JsonValue* runtime = report.Find("runtime"); runtime != nullptr) {
    SURFER_RETURN_IF_ERROR(
        Expect(runtime->is_object(), "runtime must be an object"));
    for (const char* key :
         {"num_workers", "num_machines", "iterations", "tasks_executed",
          "tasks_reexecuted", "machine_failures", "messages_sent",
          "buffers_sent", "send_stalls", "barrier_wait_seconds",
          "barrier_generations", "wall_seconds", "network_bytes"}) {
      SURFER_RETURN_IF_ERROR(RequireNumber(*runtime, key));
    }
    // Later revisions added runtime keys without a version bump, so the
    // only other typing rule is that every scalar in the block is a number.
    for (const auto& [key, value] : runtime->as_object()) {
      SURFER_RETURN_IF_ERROR(
          Expect(value.is_object() || value.is_array() || value.is_number(),
                 "runtime." + key + " must be a number"));
    }
    // Reports older than the "links" rows carry none.
    if (runtime->Find("links") != nullptr) {
      SURFER_RETURN_IF_ERROR(
          RequireRows(*runtime, "links", {"src", "dst", "bytes"}));
    }
    SURFER_RETURN_IF_ERROR(
        RequireRows(*runtime, "channels",
                    {"src", "dst", "capacity", "bytes", "sends", "receives"}));
    for (const char* key : {"channel_depth", "barrier_wait"}) {
      const JsonValue* hist = runtime->Find(key);
      SURFER_RETURN_IF_ERROR(
          Expect(hist != nullptr && hist->is_object(),
                 std::string("runtime.") + key + " missing"));
      SURFER_RETURN_IF_ERROR(RequireNumber(*hist, "count"));
    }
  }

  if (const JsonValue* timeline = report.Find("timeline");
      timeline != nullptr) {
    SURFER_RETURN_IF_ERROR(
        Expect(timeline->is_object(), "timeline must be an object"));
    const JsonValue* steps = timeline->Find("steps");
    SURFER_RETURN_IF_ERROR(Expect(steps != nullptr && steps->is_array(),
                                  "timeline.steps missing"));
    for (const JsonValue& step : steps->as_array()) {
      SURFER_RETURN_IF_ERROR(
          Expect(step.is_object(), "timeline step must be an object"));
      SURFER_RETURN_IF_ERROR(RequireNumber(step, "iteration"));
      SURFER_RETURN_IF_ERROR(OptionalNumber(step, "handoff_s"));
      const JsonValue* stage = step.Find("stage");
      SURFER_RETURN_IF_ERROR(Expect(
          stage != nullptr && stage->is_string() &&
              (stage->as_string() == "transfer" ||
               stage->as_string() == "combine"),
          "timeline.steps[].stage must be 'transfer' or 'combine'"));
      SURFER_RETURN_IF_ERROR(
          RequireRows(step, "machines",
                      {"machine", "compute_s", "serialize_s", "blocked_s",
                       "barrier_s", "busy_s"}));
      const JsonValue* straggler = step.Find("straggler");
      SURFER_RETURN_IF_ERROR(
          Expect(straggler != nullptr && straggler->is_object(),
                 "timeline.steps[].straggler missing"));
      for (const char* key : {"max_busy_s", "mean_busy_s", "skew"}) {
        SURFER_RETURN_IF_ERROR(RequireNumber(*straggler, key));
      }
    }
    const JsonValue* critical = timeline->Find("critical_path");
    SURFER_RETURN_IF_ERROR(
        Expect(critical != nullptr && critical->is_object(),
               "timeline.critical_path missing"));
    SURFER_RETURN_IF_ERROR(RequireNumber(*critical, "total_busy_s"));
    SURFER_RETURN_IF_ERROR(
        RequireRows(*critical, "steps", {"step", "busy_s"}));
  }

  // Schema v3: the flight recorder's time series. Optional (telemetry off,
  // or a v1/v2 artifact); when present the sampling envelope and per-series
  // summaries must be well-formed. A series' "samples" array is itself
  // optional — all-zero series are exported summary-only.
  if (const JsonValue* telemetry = report.Find("telemetry");
      telemetry != nullptr) {
    SURFER_RETURN_IF_ERROR(
        Expect(telemetry->is_object(), "telemetry must be an object"));
    for (const char* key :
         {"period_seconds", "samples_taken", "samples_dropped"}) {
      SURFER_RETURN_IF_ERROR(RequireNumber(*telemetry, key));
    }
    const JsonValue* series = telemetry->Find("series");
    SURFER_RETURN_IF_ERROR(Expect(series != nullptr && series->is_array(),
                                  "telemetry.series missing"));
    for (const JsonValue& entry : series->as_array()) {
      SURFER_RETURN_IF_ERROR(
          Expect(entry.is_object(), "telemetry series must be an object"));
      const JsonValue* series_name = entry.Find("name");
      SURFER_RETURN_IF_ERROR(
          Expect(series_name != nullptr && series_name->is_string(),
                 "telemetry.series[].name"));
      for (const char* key :
           {"count", "samples_dropped", "min", "mean", "max", "p99"}) {
        SURFER_RETURN_IF_ERROR(RequireNumber(entry, key));
      }
      if (const JsonValue* samples = entry.Find("samples");
          samples != nullptr) {
        SURFER_RETURN_IF_ERROR(Expect(
            samples->is_array(), "telemetry.series[].samples must be array"));
        for (const JsonValue& sample : samples->as_array()) {
          SURFER_RETURN_IF_ERROR(
              Expect(sample.is_array() && sample.as_array().size() == 2 &&
                         sample.as_array()[0].is_number() &&
                         sample.as_array()[1].is_number(),
                     "telemetry sample must be a [t_us, value] pair"));
        }
      }
    }
  }

  // The distributed engine's cluster block. Its coordinator keys are
  // typed: the coordinator's wall time split into five phases, and the
  // control frames it read, by type.
  if (const JsonValue* cluster = report.Find("cluster"); cluster != nullptr) {
    SURFER_RETURN_IF_ERROR(
        Expect(cluster->is_object(), "cluster must be an object"));
    SURFER_RETURN_IF_ERROR(RequireNumber(*cluster, "stragglers_flagged"));
    const JsonValue* phases = cluster->Find("coordinator_s");
    SURFER_RETURN_IF_ERROR(Expect(phases != nullptr && phases->is_object(),
                                  "cluster.coordinator_s missing"));
    for (const char* key :
         {"spawn", "handshake", "rounds", "finalize", "reap"}) {
      const JsonValue* seconds = phases->Find(key);
      SURFER_RETURN_IF_ERROR(
          Expect(seconds != nullptr && seconds->is_number() &&
                     seconds->as_number() >= 0.0,
                 std::string("cluster.coordinator_s.") + key +
                     " must be a number >= 0"));
    }
    const JsonValue* frames = cluster->Find("control_frames_read");
    SURFER_RETURN_IF_ERROR(
        Expect(frames != nullptr && frames->is_object() &&
                   !frames->as_object().empty(),
               "cluster.control_frames_read missing"));
    for (const auto& [type, count] : frames->as_object()) {
      SURFER_RETURN_IF_ERROR(
          Expect(count.is_number() && count.as_number() >= 0.0,
                 "cluster.control_frames_read." + type +
                     " must be a count"));
    }
  }
  return Status::OK();
}

Status WriteRunReport(const std::string& path, const JsonValue& report) {
  std::error_code ec;
  const std::filesystem::path fs_path(path);
  if (fs_path.has_parent_path()) {
    std::filesystem::create_directories(fs_path.parent_path(), ec);
    if (ec) {
      return Status::IOError("cannot create directory for " + path + ": " +
                             ec.message());
    }
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    return Status::IOError("cannot open run report " + path);
  }
  out << report.Write(/*indent=*/2) << "\n";
  out.close();
  if (!out.good()) {
    return Status::IOError("failed writing run report " + path);
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace surfer

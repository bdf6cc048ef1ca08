#include "obs/bench_gate.h"

#include <cmath>
#include <cstdio>
#include <set>

#include "obs/run_report.h"

namespace surfer {
namespace obs {

namespace {

std::string FormatNumber(double d) {
  char buf[64];
  if (d == std::floor(d) && std::fabs(d) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", d);
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", d);
  }
  return buf;
}

double NumberOr(const JsonValue* v, double fallback) {
  return v != nullptr && v->is_number() ? v->as_number() : fallback;
}

/// Envelope and timing fields that do not describe the workload shape;
/// everything else numeric at the top level (num_vertices, iterations, ...)
/// must match for timings to be comparable.
bool IsWorkloadKey(const std::string& key) {
  static const std::set<std::string> kNonWorkload = {
      "schema_version", "smoke",
      "host_cores",     "points",
      "name",           "sequential_wall_s",
      "wall_s",         "network_bytes",
      "telemetry_overhead_frac",
  };
  return kNonWorkload.find(key) == kNonWorkload.end();
}

/// The key a point is matched on across the two files: thread/worker count.
double PointKey(const JsonValue& point, bool* has_key) {
  for (const char* key : {"threads", "workers"}) {
    if (const JsonValue* v = point.Find(key);
        v != nullptr && v->is_number()) {
      *has_key = true;
      return v->as_number();
    }
  }
  *has_key = false;
  return 0.0;
}

const JsonValue* MatchPoint(const JsonValue::Array& points, double key,
                            bool has_key, size_t index) {
  if (!has_key) {
    return index < points.size() ? &points[index] : nullptr;
  }
  for (const JsonValue& candidate : points) {
    bool candidate_has_key = false;
    if (PointKey(candidate, &candidate_has_key) == key && candidate_has_key) {
      return &candidate;
    }
  }
  return nullptr;
}

void CheckRatio(const std::string& what, const char* unit, double current,
                double baseline, double tolerance, BenchCheckResult* result) {
  if (baseline <= 0.0) {
    result->Note(what + ": baseline is zero, skipping");
    return;
  }
  const double ratio = current / baseline;
  if (ratio > 1.0 + tolerance) {
    result->Fail(what + " regressed: " + FormatNumber(current) + unit +
                 " vs " + FormatNumber(baseline) + unit + " baseline (" +
                 FormatNumber((ratio - 1.0) * 100.0) + "% over, tolerance " +
                 FormatNumber(tolerance * 100.0) + "%)");
  } else if (ratio < 1.0 - tolerance) {
    result->Note(what + " improved: " + FormatNumber(current) + unit +
                 " vs " + FormatNumber(baseline) + unit + " baseline");
  }
}

void CheckTiming(const std::string& what, double current, double baseline,
                 double tolerance, BenchCheckResult* result) {
  CheckRatio(what, "s", current, baseline, tolerance, result);
}

/// Higher-is-better counterpart of CheckRatio for throughput counters:
/// a regression is the current value falling BELOW baseline beyond the
/// host-aware tolerance.
void CheckThroughput(const std::string& what, const char* unit, double current,
                     double baseline, double tolerance,
                     BenchCheckResult* result) {
  if (baseline <= 0.0) {
    result->Note(what + ": baseline is zero, skipping");
    return;
  }
  const double ratio = current / baseline;
  if (ratio < 1.0 / (1.0 + tolerance)) {
    result->Fail(what + " regressed: " + FormatNumber(current) + unit +
                 " vs " + FormatNumber(baseline) + unit + " baseline (" +
                 FormatNumber((1.0 - ratio) * 100.0) + "% below, tolerance " +
                 FormatNumber(tolerance * 100.0) + "%)");
  } else if (ratio > 1.0 + tolerance) {
    result->Note(what + " improved: " + FormatNumber(current) + unit +
                 " vs " + FormatNumber(baseline) + unit + " baseline");
  }
}

constexpr const char* kDropKeys[] = {"trace_events_dropped",
                                     "telemetry_samples_dropped"};

/// A nonzero observability drop counter: the recording is partial (rings
/// overwrote or overflowed), never that the run misbehaved. Advisory unless
/// strict, where CI treats an undersized ring as a configuration bug.
void CheckDrop(const std::string& what_counter, double dropped, bool strict,
               BenchCheckResult* result) {
  if (dropped <= 0.0) {
    return;
  }
  const std::string what = what_counter + " is " + FormatNumber(dropped) +
                           ": the recorded window is incomplete";
  if (strict) {
    result->Fail(what + " (strict drops)");
  } else {
    result->Note(what);
  }
}

void CheckDrops(const std::string& label, const JsonValue& point, bool strict,
                BenchCheckResult* result) {
  for (const char* key : kDropKeys) {
    CheckDrop(label + "." + key, NumberOr(point.Find(key), 0.0), strict,
              result);
  }
}

/// A run report's drop counters live in its metrics registry, named
/// `<plane>_trace_events_dropped` and the like (runtime_, serve_).
void CheckRegistryDrops(const JsonValue& report, bool strict,
                        BenchCheckResult* result) {
  const JsonValue* metrics = report.Find("metrics");
  const JsonValue* counters =
      metrics != nullptr ? metrics->Find("counters") : nullptr;
  if (counters == nullptr || !counters->is_array()) {
    return;
  }
  for (const JsonValue& counter : counters->as_array()) {
    const JsonValue* name = counter.Find("name");
    if (name == nullptr || !name->is_string()) {
      continue;
    }
    for (const char* key : kDropKeys) {
      if (name->as_string().ends_with(key)) {
        CheckDrop("report.metrics." + name->as_string(),
                  NumberOr(counter.Find("value"), 0.0), strict, result);
      }
    }
  }
}

void DiffNumbersInto(const std::string& path, const JsonValue& a,
                     const JsonValue& b, std::vector<JsonDelta>* out) {
  if (a.is_number() && b.is_number()) {
    if (a.as_number() != b.as_number()) {
      out->push_back(JsonDelta{path, a.as_number(), b.as_number()});
    }
    return;
  }
  if (a.is_object() && b.is_object()) {
    for (const auto& [key, value] : a.as_object()) {
      if (const JsonValue* other = b.Find(key); other != nullptr) {
        DiffNumbersInto(path.empty() ? key : path + "." + key, value, *other,
                        out);
      }
    }
    return;
  }
  if (a.is_array() && b.is_array()) {
    const size_t n = std::min(a.as_array().size(), b.as_array().size());
    for (size_t i = 0; i < n; ++i) {
      DiffNumbersInto(path + "[" + std::to_string(i) + "]", a.as_array()[i],
                      b.as_array()[i], out);
    }
  }
}

}  // namespace

BenchCheckResult CheckBenchBaseline(const JsonValue& current,
                                    const JsonValue& baseline,
                                    const BenchCheckOptions& options) {
  BenchCheckResult result;
  if (!current.is_object() || !baseline.is_object()) {
    result.Fail("both files must be JSON objects");
    return result;
  }

  const JsonValue* current_name = current.Find("name");
  const JsonValue* baseline_name = baseline.Find("name");
  if (current_name == nullptr || !current_name->is_string() ||
      baseline_name == nullptr || !baseline_name->is_string()) {
    result.Fail("both files must carry a string 'name'");
    return result;
  }
  if (current_name->as_string() != baseline_name->as_string()) {
    result.Fail("benchmark names differ: '" + current_name->as_string() +
                "' vs '" + baseline_name->as_string() + "'");
    return result;
  }

  // Correctness gates first: these hold regardless of workload shape.
  const JsonValue* current_points = current.Find("points");
  if (current_points == nullptr || !current_points->is_array()) {
    // A pointless file on both sides is a run-report artifact (a bench's
    // report, a distributed worker's or the merged cluster report), not a
    // bench baseline: it must pass the run-report schema, and its drop
    // counters, top-level or in its metrics registry, are gated. A missing
    // points array against a baseline that *has* one stays a hard failure.
    if (baseline.Find("points") == nullptr ||
        !baseline.Find("points")->is_array()) {
      if (const Status schema = ValidateRunReport(current); !schema.ok()) {
        result.Fail(schema.message());
      }
      CheckDrops("report", current, options.strict_drops, &result);
      CheckRegistryDrops(current, options.strict_drops, &result);
      result.Note("no 'points' array on either side; gated as a run report "
                  "(schema and drop counters)");
      return result;
    }
    result.Fail("current file has no 'points' array");
    return result;
  }
  for (size_t i = 0; i < current_points->as_array().size(); ++i) {
    const JsonValue& point = current_points->as_array()[i];
    if (const JsonValue* bit = point.Find("bit_identical");
        bit != nullptr && bit->is_bool() && !bit->as_bool()) {
      result.Fail("points[" + std::to_string(i) +
                  "].bit_identical is false: concurrent result diverged "
                  "from the sequential runner");
    }
    // Batching efficiency: each wire segment is a per-task stream that the
    // pre-batching plane shipped as its own channel send. Pooled batches
    // must coalesce at least 5 of them per send at equal payload bytes, or
    // the message plane has regressed to near per-stream traffic.
    const double segments =
        NumberOr(point.Find("wire_segments_sent"), 0.0);
    const double batches = NumberOr(point.Find("wire_batches_sent"), 0.0);
    if (batches > 0.0 && segments > 0.0 && segments < 5.0 * batches) {
      result.Fail("points[" + std::to_string(i) + "] batching collapsed: " +
                  FormatNumber(segments) + " segments in " +
                  FormatNumber(batches) +
                  " wire batches (< 5x channel-send reduction)");
    }
    // Regroup efficiency: the counting scatter replaced a per-partition
    // stable_sort, and on duplicate-heavy streams (the shape bench_combine
    // records) it must beat it by at least 2x or the sort-free combine plan
    // has lost its reason to exist.
    if (const JsonValue* speedup = point.Find("scatter_speedup");
        speedup != nullptr && speedup->is_number() &&
        speedup->as_number() < 2.0) {
      result.Fail("points[" + std::to_string(i) + "].scatter_speedup is " +
                  FormatNumber(speedup->as_number()) +
                  ": counting scatter no longer beats stable_sort grouping "
                  "by >= 2x");
    }
    CheckDrops("points[" + std::to_string(i) + "]", point,
               options.strict_drops, &result);
  }

  // Decide whether timings are comparable at all.
  bool comparable = true;
  const bool current_smoke = current.Find("smoke") != nullptr &&
                             current.Find("smoke")->is_bool() &&
                             current.Find("smoke")->as_bool();
  const bool baseline_smoke = baseline.Find("smoke") != nullptr &&
                              baseline.Find("smoke")->is_bool() &&
                              baseline.Find("smoke")->as_bool();
  if (current_smoke != baseline_smoke) {
    result.Note("smoke flags differ; timing comparisons skipped");
    comparable = false;
  }
  for (const auto& [key, value] : current.as_object()) {
    if (!value.is_number() || !IsWorkloadKey(key)) {
      continue;
    }
    const JsonValue* other = baseline.Find(key);
    if (other == nullptr || !other->is_number() ||
        other->as_number() != value.as_number()) {
      result.Note("workload field '" + key +
                  "' differs; timing comparisons skipped");
      comparable = false;
    }
  }
  if (!comparable) {
    return result;
  }

  // Host-aware tolerance: CI containers are slower and noisier than the
  // machines baselines were recorded on, and host_cores is recorded exactly
  // so the check can compensate instead of guessing.
  const double current_cores = NumberOr(current.Find("host_cores"), 0.0);
  const double baseline_cores = NumberOr(baseline.Find("host_cores"), 0.0);
  double tolerance = options.rel_tolerance;
  if (current_cores != baseline_cores) {
    tolerance += options.cross_host_extra;
  }
  if ((current_cores > 0.0 && current_cores <= 2.0) ||
      (baseline_cores > 0.0 && baseline_cores <= 2.0)) {
    tolerance += options.small_host_extra;
  }

  if (const JsonValue* cur = current.Find("sequential_wall_s");
      cur != nullptr && cur->is_number()) {
    if (const JsonValue* base = baseline.Find("sequential_wall_s");
        base != nullptr && base->is_number()) {
      CheckTiming("sequential_wall_s", cur->as_number(), base->as_number(),
                  tolerance, &result);
    }
  }

  const JsonValue* baseline_points = baseline.Find("points");
  if (baseline_points == nullptr || !baseline_points->is_array()) {
    result.Note("baseline has no 'points' array; point checks skipped");
    return result;
  }
  for (size_t i = 0; i < current_points->as_array().size(); ++i) {
    const JsonValue& point = current_points->as_array()[i];
    bool has_key = false;
    const double key = PointKey(point, &has_key);
    const std::string label =
        "points[" + (has_key ? FormatNumber(key) + " threads"
                             : std::to_string(i)) +
        "]";
    const JsonValue* base_point =
        MatchPoint(baseline_points->as_array(), key, has_key, i);
    if (base_point == nullptr) {
      result.Note(label + " has no baseline counterpart; skipped");
      continue;
    }
    if (const JsonValue* cur_wall = point.Find("wall_s");
        cur_wall != nullptr && cur_wall->is_number()) {
      if (const JsonValue* base_wall = base_point->Find("wall_s");
          base_wall != nullptr && base_wall->is_number()) {
        CheckTiming(label + ".wall_s", cur_wall->as_number(),
                    base_wall->as_number(), tolerance, &result);
      }
    }
    if (const JsonValue* cur_rss = point.Find("peak_rss_bytes");
        cur_rss != nullptr && cur_rss->is_number() &&
        cur_rss->as_number() > 0.0) {
      if (const JsonValue* base_rss = base_point->Find("peak_rss_bytes");
          base_rss != nullptr && base_rss->is_number() &&
          base_rss->as_number() > 0.0) {
        // Peak RSS gets the same stacked tolerance as wall time: allocator
        // behaviour and host page caching move it between hosts the way
        // scheduler noise moves timings.
        CheckRatio(label + ".peak_rss_bytes", " bytes", cur_rss->as_number(),
                   base_rss->as_number(), tolerance, &result);
      }
    }
    if (const JsonValue* cur_rate = point.Find("scatter_msgs_per_sec");
        cur_rate != nullptr && cur_rate->is_number() &&
        cur_rate->as_number() > 0.0) {
      if (const JsonValue* base_rate =
              base_point->Find("scatter_msgs_per_sec");
          base_rate != nullptr && base_rate->is_number() &&
          base_rate->as_number() > 0.0) {
        CheckThroughput(label + ".scatter_msgs_per_sec", " msgs/s",
                        cur_rate->as_number(), base_rate->as_number(),
                        tolerance, &result);
      }
    }
    const JsonValue* cur_bytes = point.Find("network_bytes");
    const JsonValue* base_bytes = base_point->Find("network_bytes");
    if (cur_bytes != nullptr && cur_bytes->is_number() &&
        base_bytes != nullptr && base_bytes->is_number() &&
        cur_bytes->as_number() != base_bytes->as_number()) {
      result.Fail(label + ".network_bytes differs: " +
                  FormatNumber(cur_bytes->as_number()) + " vs " +
                  FormatNumber(base_bytes->as_number()) +
                  " baseline (byte counts are deterministic)");
    }
  }
  return result;
}

std::vector<JsonDelta> DiffNumbers(const JsonValue& a, const JsonValue& b) {
  std::vector<JsonDelta> deltas;
  DiffNumbersInto("", a, b, &deltas);
  return deltas;
}

}  // namespace obs
}  // namespace surfer

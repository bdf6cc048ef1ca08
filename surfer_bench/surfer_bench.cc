// Surfer end-to-end benchmark: one named workload per invocation.
//
//   surfer_bench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//                [--trace-dir <dir>] [--smoke]
//
// A run sets the deployment up (generate -> partition -> place -> open, and
// serve on serve-* workloads) several times and reports the median set-up
// time, then measures the workload for --seconds and checks every answer
// against an oracle. It prints each metric as `name value unit` and, as its
// last line, one JSON object {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// plain run is followed by a traced rerun with benchmark-side spans around
// every layer call, and the metrics are the per-layer ones. The traced run
// writes <trace-dir>/trace.json (Chrome trace) and <trace-dir>/per_layer.json.
// Exit status is 0 when every answer was correct, 1 when one was not, and 2
// on a usage error. See README.md in this directory.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.h"
#include "obs/json.h"
#include "obs/run_report.h"
#include "obs/telemetry.h"
#include "percentile.h"

namespace surfer_bench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0.0;  ///< 0: the scale's default
  bool trace = false;
  std::string trace_dir = "surfer_bench_trace";
  bool smoke = false;
};

int Usage(const char* message) {
  std::fprintf(stderr,
               "surfer_bench: %s\n"
               "usage: surfer_bench --workload <name> --seed <n> "
               "[--seconds <s>] [--trace 0|1] [--trace-dir <dir>] "
               "[--smoke]\nworkloads:",
               message);
  for (const Workload& workload : Workloads()) {
    std::fprintf(stderr, " %s", workload.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value after " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (!(args->seconds > 0.0)) {
        *error = "--seconds must be positive";
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace takes 0 or 1";
        return false;
      }
      args->trace = value == "1";
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && *end != '\0') {
      *error = "bad number for " + flag + ": " + value;
      return false;
    }
  }
  if (args->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

/// VmHWM of this process so far, in MiB.
double PeakRssMb() {
  return static_cast<double>(surfer::obs::ReadMemoryUsage().peak_rss_bytes) /
         (1024.0 * 1024.0);
}

/// One full pass of a workload: set-up(s), then the measured phase. With
/// `spans` the pass is the traced one: a single set-up whose layers are
/// re-run one call at a time, and spans around every call.
RunOutcome RunWorkload(const Workload& workload, const Scale& scale,
                       uint64_t seed, double seconds, SpanLog* spans) {
  RunOutcome outcome;
  MetricValues& metrics = outcome.metrics;
  const uint32_t setups = spans != nullptr ? 1 : scale.setup_repetitions;
  std::unique_ptr<Deployment> deployment;
  std::vector<double> setup_s;
  double cut_sum = 0.0;
  double balance_sum = 0.0;
  for (uint32_t i = 0; i < setups; ++i) {
    deployment.reset();  // tear the previous one down before building anew
    deployment = SetUp(workload, scale, seed, i, spans);
    setup_s.push_back(deployment->setup_s);
    const surfer::PartitionQuality& quality = deployment->surfer->quality();
    cut_sum += 1.0 - quality.inner_edge_ratio;
    balance_sum += quality.balance;
  }
  metrics.Set("setup_s", Percentile(setup_s, 50.0));
  // The partitioner lands in a visibly worse local optimum for about one
  // seed in five (cut ~0.45 instead of ~0.43 at full scale); the mean over
  // the set-ups' partitioner seeds reports how often, without letting one
  // unlucky seed decide a run.
  metrics.Set("edge_cut_frac", cut_sum / setups);
  metrics.Set("partition_balance", balance_sum / setups);
  // Peak memory of the deployment alone. Over the whole run the high-water
  // mark also holds the harness's sample buffers and depends on which
  // threads glibc gave fresh arenas; bench.peak_rss_mb reports that.
  metrics.Set("setup_peak_rss_mb", PeakRssMb());
  metrics.Set("graph.generate_s", deployment->generate_s);
  metrics.Set("serve.open_s", deployment->serve_open_s);
  if (spans != nullptr) {
    AttributeSetup(scale, *deployment, *spans, metrics, outcome.errors);
  }

  const Measurement measurement =
      workload.kind == WorkloadKind::kBatch
          ? RunBatch(workload, scale, *deployment, seconds, spans, metrics,
                     outcome.errors)
          : RunServe(workload, scale, seed, *deployment, seconds, spans,
                     metrics, outcome.errors);
  std::vector<double> latency = measurement.latency_s;
  std::sort(latency.begin(), latency.end());
  metrics.Set("latency_p50_ms", NearestRank(latency, 50.0) * 1e3);
  metrics.Set("bench.latency_p90_ms", NearestRank(latency, 90.0) * 1e3);
  metrics.Set("bench.peak_rss_mb", PeakRssMb());
  outcome.attempted = measurement.attempted;
  outcome.failed = measurement.failed;
  if (measurement.wrong > 0) {
    outcome.errors.push_back(std::to_string(measurement.wrong) +
                             " answer(s) disagreed with their oracle");
  }
  return outcome;
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("%s %.9g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

surfer::obs::JsonValue MetricsJson(const std::vector<Metric>& metrics) {
  surfer::obs::JsonValue object = surfer::obs::JsonValue::MakeObject();
  for (const Metric& metric : metrics) {
    surfer::obs::JsonValue entry = surfer::obs::JsonValue::MakeObject();
    entry.Set("value", metric.value);
    entry.Set("unit", metric.unit);
    object.Set(metric.name, std::move(entry));
  }
  return object;
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    return Usage(error.c_str());
  }
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  const Scale scale = args.smoke ? SmokeScale() : FullScale();
  const double seconds =
      args.seconds > 0.0 ? args.seconds : (args.smoke ? 0.5 : 6.0);

  RunOutcome plain = RunWorkload(*workload, scale, args.seed, seconds, nullptr);
  std::vector<std::string> errors = plain.errors;
  uint64_t attempted = plain.attempted;
  uint64_t failed = plain.failed;
  const std::vector<Metric> end_to_end =
      plain.metrics.Collect(EndToEndMetricNames());
  PrintMetrics(end_to_end);
  std::vector<Metric> reported = end_to_end;

  if (args.trace) {
    SpanLog spans;
    RunOutcome traced =
        RunWorkload(*workload, scale, args.seed, seconds, &spans);
    errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
    attempted += traced.attempted;
    failed += traced.failed;
    const double plain_p50 = plain.metrics.Get("latency_p50_ms");
    traced.metrics.Set(
        "bench.trace_overhead_frac",
        plain_p50 > 0.0
            ? traced.metrics.Get("latency_p50_ms") / plain_p50 - 1.0
            : 0.0);
    reported = traced.metrics.Collect(PerLayerMetricNames());
    PrintMetrics(reported);

    const std::string trace_path = args.trace_dir + "/trace.json";
    const std::string layers_path = args.trace_dir + "/per_layer.json";
    surfer::obs::JsonValue layers = surfer::obs::JsonValue::MakeObject();
    layers.Set("workload", std::string(workload->name));
    layers.Set("seed", args.seed);
    layers.Set("metrics", MetricsJson(reported));
    // WriteRunReport creates the directory before trace.json goes next to it.
    const surfer::Status written =
        surfer::obs::WriteRunReport(layers_path, layers);
    const surfer::Status traced_ok =
        written.ok() ? spans.tracer().WriteChromeTrace(trace_path) : written;
    if (!traced_ok.ok()) {
      errors.push_back("writing the trace failed: " + traced_ok.ToString());
    } else {
      std::printf("trace: %s\nper-layer: %s\n", trace_path.c_str(),
                  layers_path.c_str());
    }
  }

  for (const Metric& metric : reported) {
    if (!std::isfinite(metric.value)) {
      errors.push_back(metric.name + " is not finite");
    }
  }
  for (const std::string& message : errors) {
    std::fprintf(stderr, "surfer_bench: %s\n", message.c_str());
  }
  surfer::obs::JsonValue result = surfer::obs::JsonValue::MakeObject();
  result.Set("correct", errors.empty());
  result.Set("attempted", attempted);
  result.Set("failed", failed);
  result.Set("metrics", MetricsJson(reported));
  std::printf("%s\n", result.Write().c_str());
  std::fflush(stdout);
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace surfer_bench

int main(int argc, char** argv) { return surfer_bench::Main(argc, argv); }

#include "harness.h"

#include "common/logging.h"

namespace surfer_bench {

Scale FullScale() {
  Scale scale;
  // 2^14 vertices keeps five set-ups short (SurferEngine::Build takes
  // ~0.7 s here, ~7.5 s at 2^16 on the same 4-core host), which leaves the
  // time budget to long measured windows: host speed drifts over tens of
  // seconds, and only long windows average the drift out.
  scale.num_vertices = 1u << 14;
  scale.num_communities = 32;
  scale.num_partitions = 64;
  scale.setup_repetitions = 5;
  scale.min_jobs = 20;
  // One vertex in 128, as 512 hot vertices are at 2^16.
  scale.hot_set = 128;
  return scale;
}

Scale SmokeScale() {
  Scale scale;
  scale.num_vertices = 1u << 12;
  scale.num_communities = 8;
  scale.num_partitions = 16;
  scale.setup_repetitions = 1;
  scale.min_jobs = 3;
  scale.hot_set = 32;
  return scale;
}

const std::vector<Workload>& Workloads() {
  using surfer::EngineKind;
  using surfer::OptimizationLevel;
  static const std::vector<Workload> workloads = {
      {"batch-o4", WorkloadKind::kBatch, EngineKind::kConcurrent,
       OptimizationLevel::kO4, false, 0.0},
      {"batch-o1", WorkloadKind::kBatch, EngineKind::kConcurrent,
       OptimizationLevel::kO1, false, 0.0},
      {"batch-dist", WorkloadKind::kBatch, EngineKind::kDistributed,
       OptimizationLevel::kO4, false, 0.0},
      {"serve-hot", WorkloadKind::kServe, EngineKind::kConcurrent,
       OptimizationLevel::kO4, true, 80000.0},
      {"serve-cold", WorkloadKind::kServe, EngineKind::kConcurrent,
       OptimizationLevel::kO4, false, 40000.0},
  };
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : Workloads()) {
    if (name == workload.name) {
      return &workload;
    }
  }
  return nullptr;
}

const std::vector<Metric>& EndToEndMetricNames() {
  static const std::vector<Metric> names = {
      {"setup_s", 0.0, "s"},
      {"edge_cut_frac", 0.0, "ratio"},
      {"partition_balance", 0.0, "ratio"},
      {"latency_p50_ms", 0.0, "ms"},
      {"setup_peak_rss_mb", 0.0, "MiB"},
  };
  return names;
}

const std::vector<Metric>& PerLayerMetricNames() {
  static const std::vector<Metric> names = {
      {"graph.generate_s", 0.0, "s"},
      {"partition.s", 0.0, "s"},
      {"partition.level_0_s", 0.0, "s"},
      {"partition.level_1_s", 0.0, "s"},
      {"partition.level_2_s", 0.0, "s"},
      {"partition.level_3_s", 0.0, "s"},
      {"partition.level_4_s", 0.0, "s"},
      {"partition.level_5_s", 0.0, "s"},
      {"partition.bisections", 0.0, "count"},
      {"partition.levels_attributed_frac", 0.0, "ratio"},
      {"partition.root.coarsen_s", 0.0, "s"},
      {"partition.root.initial_s", 0.0, "s"},
      {"partition.root.fm_s", 0.0, "s"},
      {"partition.root.fm_passes", 0.0, "count"},
      {"storage.create_s", 0.0, "s"},
      {"storage.quality_s", 0.0, "s"},
      {"placement.s", 0.0, "s"},
      {"bench.setup_attributed_frac", 0.0, "ratio"},
      {"propagation.reference_s", 0.0, "s"},
      {"runtime.compute_s", 0.0, "s"},
      {"runtime.serialize_s", 0.0, "s"},
      {"runtime.combine_scatter_s", 0.0, "s"},
      {"runtime.serialize_per_compute", 0.0, "ratio"},
      {"runtime.barrier_wait_s", 0.0, "s"},
      {"runtime.messages_sent", 0.0, "count"},
      {"runtime.network_bytes", 0.0, "B"},
      {"runtime.wire_batches", 0.0, "count"},
      {"runtime.wire_segments", 0.0, "count"},
      {"runtime.batch_fill_mean", 0.0, "ratio"},
      {"runtime.wire_combined_frac", 0.0, "ratio"},
      {"runtime.wire_combine_base", 0.0, "count"},
      {"net.tcp_bytes", 0.0, "B"},
      {"net.tcp_frames", 0.0, "count"},
      {"net.barrier_generations", 0.0, "count"},
      {"net.resend_bytes", 0.0, "B"},
      {"serve.open_s", 0.0, "s"},
      {"serve.qps_max", 0.0, "1/s"},
      {"serve.submit_us_p50", 0.0, "us"},
      {"serve.cache_hit_rate", 0.0, "ratio"},
      {"serve.cache_lookups", 0.0, "count"},
      {"serve.shed_admission", 0.0, "count"},
      {"serve.shed_deadline", 0.0, "count"},
      {"serve.khop_exec_us_p50", 0.0, "us"},
      {"serve.path_exec_us_p50", 0.0, "us"},
      {"serve.query_p99_us", 0.0, "us"},
      {"bench.latency_p90_ms", 0.0, "ms"},
      {"bench.peak_rss_mb", 0.0, "MiB"},
      {"bench.gen_late_p99_us", 0.0, "us"},
      {"bench.trace_overhead_frac", 0.0, "ratio"},
  };
  return names;
}

namespace {

bool Declared(const std::string& name) {
  for (const auto* table : {&EndToEndMetricNames(), &PerLayerMetricNames()}) {
    for (const Metric& metric : *table) {
      if (metric.name == name) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

void MetricValues::Set(const std::string& name, double value) {
  SURFER_CHECK(Declared(name)) << "undeclared metric " << name;
  values_[name] = value;
}

double MetricValues::Get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

std::vector<Metric> MetricValues::Collect(
    const std::vector<Metric>& declared) const {
  std::vector<Metric> out = declared;
  for (Metric& metric : out) {
    metric.value = Get(metric.name);
  }
  return out;
}

void SpanLog::Record(const std::string& name, const std::string& category,
                     Clock::time_point start, Clock::time_point end,
                     std::vector<std::pair<std::string, std::string>> args) {
  const double start_us =
      std::chrono::duration<double, std::micro>(start - origin_).count();
  const double dur_us =
      std::chrono::duration<double, std::micro>(end - start).count();
  tracer_.RecordComplete(surfer::obs::TraceClock::kWall, name, category,
                         start_us, dur_us,
                         surfer::obs::Tracer::CurrentThreadLane(),
                         std::move(args));
}

}  // namespace surfer_bench

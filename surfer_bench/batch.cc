// Batch workloads: back-to-back NetworkRanking jobs through the session's
// engine (concurrent or distributed). Every job is checked against the
// analytic engine's run on the same layout: vertex states must match byte
// for byte and per-link network bytes exactly.

#include <cstring>
#include <string>
#include <vector>

#include "apps/network_ranking.h"
#include "common/logging.h"
#include "core/sim_scale.h"
#include "harness.h"
#include "runtime/stats.h"

namespace surfer_bench {

using namespace surfer;

namespace {

/// Per-job sums of the counters RuntimeStats already returns.
struct RuntimeTotals {
  uint64_t jobs = 0;
  double compute_s = 0.0;
  double serialize_s = 0.0;
  double combine_scatter_s = 0.0;
  double barrier_wait_s = 0.0;
  double messages_sent = 0.0;
  double network_bytes = 0.0;
  double wire_batches = 0.0;
  double wire_segments = 0.0;
  double wire_combined = 0.0;
  double batch_fill = 0.0;
  double tcp_bytes = 0.0;
  double tcp_frames = 0.0;
  double barrier_generations = 0.0;
  double resend_bytes = 0.0;

  void Add(const runtime::RuntimeStats& stats) {
    ++jobs;
    for (const runtime::SuperstepProfile& step : stats.timeline) {
      for (const runtime::PhaseSeconds& machine : step.machines) {
        compute_s += machine.compute_s;
        serialize_s += machine.serialize_s;
      }
    }
    combine_scatter_s += stats.combine_scatter_seconds;
    barrier_wait_s += stats.barrier_wait_mean_s;
    messages_sent += static_cast<double>(stats.messages_sent);
    network_bytes += static_cast<double>(stats.TotalNetworkBytes());
    wire_batches += static_cast<double>(stats.wire_batches_sent);
    wire_segments += static_cast<double>(stats.wire_segments_sent);
    wire_combined += static_cast<double>(stats.wire_messages_combined);
    batch_fill += stats.batch_fill.Mean();
    tcp_bytes += static_cast<double>(stats.tcp_bytes_sent);
    tcp_frames += static_cast<double>(stats.tcp_frames_sent);
    barrier_generations += static_cast<double>(stats.barrier_generations);
    resend_bytes += static_cast<double>(stats.resend_bytes);
  }

  void Report(bool distributed, MetricValues& metrics) const {
    if (jobs == 0) {
      return;
    }
    const double n = static_cast<double>(jobs);
    metrics.Set("runtime.compute_s", compute_s / n);
    metrics.Set("runtime.serialize_s", serialize_s / n);
    metrics.Set("runtime.combine_scatter_s", combine_scatter_s / n);
    metrics.Set("runtime.serialize_per_compute",
                compute_s > 0.0 ? serialize_s / compute_s : 0.0);
    metrics.Set("runtime.barrier_wait_s", barrier_wait_s / n);
    metrics.Set("runtime.messages_sent", messages_sent / n);
    metrics.Set("runtime.network_bytes", network_bytes / n);
    metrics.Set("runtime.wire_batches", wire_batches / n);
    metrics.Set("runtime.wire_segments", wire_segments / n);
    metrics.Set("runtime.batch_fill_mean", batch_fill / n);
    // Messages merged at seal time over everything that reached the wire
    // stager (merged + materialized); the base is reported beside it.
    const double base = messages_sent + wire_combined;
    metrics.Set("runtime.wire_combined_frac",
                base > 0.0 ? wire_combined / base : 0.0);
    metrics.Set("runtime.wire_combine_base", base / n);
    if (distributed) {
      metrics.Set("net.tcp_bytes", tcp_bytes / n);
      metrics.Set("net.tcp_frames", tcp_frames / n);
      metrics.Set("net.barrier_generations", barrier_generations / n);
      metrics.Set("net.resend_bytes", resend_bytes / n);
    }
  }
};

}  // namespace

Measurement RunBatch(const Workload& workload, const Scale& scale,
                     Deployment& deployment, double seconds, SpanLog* spans,
                     MetricValues& metrics, std::vector<std::string>& errors) {
  const Engine& session = *deployment.session;
  const VertexId n = deployment.graph.num_vertices();

  // Oracle: the analytic engine on the same graph, layout and config.
  EngineOptions reference_options;
  reference_options.propagation = session.options().propagation;
  reference_options.sim = MakeScaledSimOptions();
  auto reference_session =
      Engine::Open(session.graph(), session.placement(), session.topology(),
                   reference_options);
  SURFER_CHECK(reference_session.ok())
      << reference_session.status().ToString();
  Clock::time_point start = Clock::now();
  auto reference = reference_session->Run(NetworkRankingApp(n));
  Clock::time_point end = Clock::now();
  SURFER_CHECK(reference.ok()) << reference.status().ToString();
  metrics.Set("propagation.reference_s", SecondsBetween(start, end));
  if (spans != nullptr) {
    spans->Record("analytic_reference", "oracle", start, end);
  }

  Measurement measurement;
  RuntimeTotals totals;
  uint64_t next_id = 0;
  // Runs one job and returns its wall seconds. A failed or wrong job is
  // charged the whole window: it missed every latency limit.
  const double missed_s = seconds;
  const auto run_job = [&]() -> double {
    const uint64_t id = next_id++;
    const Clock::time_point job_start = Clock::now();
    auto run = session.Run(NetworkRankingApp(n));
    const Clock::time_point job_end = Clock::now();
    ++measurement.attempted;
    if (spans != nullptr) {
      spans->Record("job", "batch", job_start, job_end,
                    {{"id", std::to_string(id)}});
    }
    if (!run.ok()) {
      ++measurement.failed;
      if (errors.size() < 8) {
        errors.push_back("job " + std::to_string(id) +
                         " failed: " + run.status().ToString());
      }
      return missed_s;
    }
    const bool same_states =
        run->states.size() == reference->states.size() &&
        std::memcmp(run->states.data(), reference->states.data(),
                    run->states.size() *
                        sizeof(NetworkRankingApp::VertexState)) == 0;
    if (!same_states ||
        run->link_network_bytes != reference->link_network_bytes) {
      ++measurement.failed;
      ++measurement.wrong;
      if (errors.size() < 8) {
        errors.push_back("job " + std::to_string(id) + " diverged from the "
                         "analytic engine (" +
                         (same_states ? "link bytes" : "vertex states") + ")");
      }
      return missed_s;
    }
    if (run->runtime_stats.has_value()) {
      totals.Add(*run->runtime_stats);
    }
    return SecondsBetween(job_start, job_end);
  };

  run_job();  // warm-up: first-touch allocation and pool growth
  totals = RuntimeTotals{};
  start = Clock::now();
  while (SecondsSince(start) < seconds ||
         measurement.latency_s.size() < scale.min_jobs) {
    measurement.latency_s.push_back(run_job());
  }
  totals.Report(workload.engine == EngineKind::kDistributed, metrics);
  return measurement;
}

}  // namespace surfer_bench

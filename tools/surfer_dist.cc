// surfer_dist: localhost multi-process smoke run of the distributed engine.
//
//   surfer_dist [--procs N] [--machines M] [--partitions P]
//               [--vertices V] [--iterations I] [--artifacts DIR]
//               [--heartbeat-ms MS] [--clock-sync-pings N] [--watch]
//
// Builds a synthetic social graph, partitions it, runs NetworkRanking once
// through the sequential analytic engine and twice through one distributed
// session (N real OS processes over localhost TCP: the first job forms the
// worker group, the second runs on it), then asserts, for each distributed
// job, the two hard invariants the engine promises:
//
//   1. bit-identical vertex states, and
//   2. exact per-link reconciliation of the TCP engine's priced bytes
//      against the analytic model's link_network_bytes().
//
// With --artifacts the per-process and cluster reports are the second
// job's, so they show a reused group (no spawn, no hello frames).
//
// --heartbeat-ms enables the worker health plane (and, with --watch, streams
// the coordinator's live status table to stderr); --clock-sync-pings runs
// the handshake clock-offset exchange. With either enabled the run also
// asserts the cluster report: a per-superstep critical path covering every
// driven round, and (with clock sync) per-link latency samples.
//
// Exits 0 when all asserted invariants hold, 1 on any mismatch — CI runs
// this as the distributed smoke gate.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/network_ranking.h"
#include "cluster/topology.h"
#include "core/engine.h"
#include "core/sim_scale.h"
#include "core/surfer.h"
#include "graph/generators.h"

namespace {

struct Args {
  uint32_t procs = 3;
  uint32_t machines = 8;
  uint32_t partitions = 16;
  uint32_t vertices = 1 << 12;
  int iterations = 3;
  std::string artifacts;
  uint32_t heartbeat_ms = 0;
  uint32_t clock_sync_pings = 0;
  bool watch = false;
};

bool Parse(int argc, char** argv, Args* out) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--procs") {
      const char* v = next();
      if (v == nullptr) return false;
      out->procs = static_cast<uint32_t>(std::stoul(v));
    } else if (arg == "--machines") {
      const char* v = next();
      if (v == nullptr) return false;
      out->machines = static_cast<uint32_t>(std::stoul(v));
    } else if (arg == "--partitions") {
      const char* v = next();
      if (v == nullptr) return false;
      out->partitions = static_cast<uint32_t>(std::stoul(v));
    } else if (arg == "--vertices") {
      const char* v = next();
      if (v == nullptr) return false;
      out->vertices = static_cast<uint32_t>(std::stoul(v));
    } else if (arg == "--iterations") {
      const char* v = next();
      if (v == nullptr) return false;
      out->iterations = std::stoi(v);
    } else if (arg == "--artifacts") {
      const char* v = next();
      if (v == nullptr) return false;
      out->artifacts = v;
    } else if (arg == "--heartbeat-ms") {
      const char* v = next();
      if (v == nullptr) return false;
      out->heartbeat_ms = static_cast<uint32_t>(std::stoul(v));
    } else if (arg == "--clock-sync-pings") {
      const char* v = next();
      if (v == nullptr) return false;
      out->clock_sync_pings = static_cast<uint32_t>(std::stoul(v));
    } else if (arg == "--watch") {
      out->watch = true;
    } else {
      std::fprintf(stderr, "surfer_dist: unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

/// Checks one distributed job against the sequential reference and prints
/// its summary; returns the process exit code.
int CheckJob(const Args& args, const char* job,
             const surfer::RunAppResult<surfer::NetworkRankingApp>& reference,
             const surfer::RunAppResult<surfer::NetworkRankingApp>& actual,
             uint32_t n) {
  using namespace surfer;
  // Invariant 1: bit-identical states.
  if (reference.states.size() != actual.states.size() ||
      std::memcmp(reference.states.data(), actual.states.data(),
                  reference.states.size() *
                      sizeof(NetworkRankingApp::VertexState)) != 0) {
    for (size_t v = 0; v < reference.states.size(); ++v) {
      if (std::memcmp(&reference.states[v], &actual.states[v],
                      sizeof(NetworkRankingApp::VertexState)) != 0) {
        std::fprintf(stderr,
                     "FAIL: states diverge at vertex %zu"
                     " (sequential %.17g, distributed %.17g)\n",
                     v, static_cast<double>(reference.states[v]),
                     static_cast<double>(actual.states[v]));
        return 1;
      }
    }
    std::fprintf(stderr, "FAIL: state vector size mismatch\n");
    return 1;
  }

  // Invariant 2: exact per-link byte reconciliation.
  for (uint32_t src = 0; src < n; ++src) {
    for (uint32_t dst = 0; dst < n; ++dst) {
      const size_t i = static_cast<size_t>(src) * n + dst;
      if (reference.link_network_bytes[i] != actual.link_network_bytes[i]) {
        std::fprintf(stderr,
                     "FAIL: link %u->%u bytes diverge"
                     " (model %.0f, measured %.0f)\n",
                     src, dst, reference.link_network_bytes[i],
                     actual.link_network_bytes[i]);
        return 1;
      }
    }
  }

  const auto& stats = *actual.runtime_stats;

  // Health-plane gate: with heartbeats or clock sync on, the run must hand
  // back a cluster report whose critical path covers every driven round,
  // and (with clock sync) offset-corrected per-link latency samples.
  if (args.heartbeat_ms > 0 || args.clock_sync_pings > 0) {
    if (!actual.cluster.has_value() || !actual.cluster->is_object()) {
      std::fprintf(stderr, "FAIL: no cluster report from distributed run\n");
      return 1;
    }
    const obs::JsonValue* critical = actual.cluster->Find("critical_path");
    const obs::JsonValue* steps =
        critical != nullptr ? critical->Find("steps") : nullptr;
    const size_t step_count =
        steps != nullptr && steps->is_array() ? steps->as_array().size() : 0;
    if (step_count != stats.barrier_generations) {
      std::fprintf(stderr,
                   "FAIL: cluster critical path covers %zu rounds,"
                   " expected %llu\n",
                   step_count,
                   static_cast<unsigned long long>(stats.barrier_generations));
      return 1;
    }
    const obs::JsonValue* links = actual.cluster->Find("links");
    const size_t link_count =
        links != nullptr && links->is_array() ? links->as_array().size() : 0;
    if (args.clock_sync_pings > 0 && link_count == 0) {
      std::fprintf(stderr, "FAIL: cluster report has no link samples\n");
      return 1;
    }
    std::printf(
        "    cluster: critical path across %zu rounds, %zu link samples\n",
        step_count, link_count);
  }

  std::printf(
      "OK (%s job): %u procs x %u machines, %d iterations bit-identical;"
      " %llu network bytes reconciled exactly across %u links\n",
      job, stats.num_processes, stats.num_machines, args.iterations,
      static_cast<unsigned long long>(stats.TotalNetworkBytes()),
      n * (n - 1));
  std::printf(
      "    tcp: %llu frames, %llu bytes on the wire;"
      " %llu tasks, %llu barrier rounds, peak worker rss %llu MiB\n",
      static_cast<unsigned long long>(stats.tcp_frames_sent),
      static_cast<unsigned long long>(stats.tcp_bytes_sent),
      static_cast<unsigned long long>(stats.tasks_executed),
      static_cast<unsigned long long>(stats.barrier_generations),
      static_cast<unsigned long long>(stats.peak_rss_bytes >> 20));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace surfer;
  Args args;
  if (!Parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: surfer_dist [--procs N] [--machines M]"
                 " [--partitions P] [--vertices V] [--iterations I]"
                 " [--artifacts DIR] [--heartbeat-ms MS]"
                 " [--clock-sync-pings N] [--watch]\n");
    return 2;
  }

  SocialGraphOptions graph_options;
  graph_options.num_vertices = args.vertices;
  graph_options.avg_out_degree = 8.0;
  graph_options.num_communities = 4;
  graph_options.seed = 33;
  auto graph = GenerateSocialGraph(graph_options);
  if (!graph.ok()) {
    std::fprintf(stderr, "graph generation failed: %s\n",
                 graph.status().ToString().c_str());
    return 1;
  }
  Topology topology = MakeScaledT2(args.machines, 2, 1);
  SurferOptions surfer_options;
  surfer_options.num_partitions = args.partitions;
  auto engine = SurferEngine::Build(*graph, topology, surfer_options);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine build failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }
  BenchmarkSetup setup = (*engine)->MakeSetup(OptimizationLevel::kO4);
  setup.sim_options = MakeScaledSimOptions();

  NetworkRankingApp app(graph->num_vertices());
  EngineOptions sequential;
  sequential.propagation = PropagationConfig::ForLevel(OptimizationLevel::kO4);
  sequential.propagation.iterations = args.iterations;
  auto sequential_session = Engine::Open(setup, sequential);
  if (!sequential_session.ok()) {
    std::fprintf(stderr, "sequential open failed: %s\n",
                 sequential_session.status().ToString().c_str());
    return 1;
  }
  auto reference = sequential_session->Run(app);
  if (!reference.ok()) {
    std::fprintf(stderr, "sequential run failed: %s\n",
                 reference.status().ToString().c_str());
    return 1;
  }

  EngineOptions distributed = sequential;
  distributed.engine = EngineKind::kDistributed;
  distributed.distributed.max_processes = args.procs;
  distributed.distributed.artifact_dir = args.artifacts;
  distributed.distributed.heartbeat_period_ms = args.heartbeat_ms;
  distributed.distributed.clock_sync_pings = args.clock_sync_pings;
  if (args.watch) {
    distributed.distributed.status_sink = [](const std::string& table) {
      std::fprintf(stderr, "%s", table.c_str());
    };
  }
  auto distributed_session = Engine::Open(setup, distributed);
  if (!distributed_session.ok()) {
    std::fprintf(stderr, "distributed open failed: %s\n",
                 distributed_session.status().ToString().c_str());
    return 1;
  }
  for (const char* job : {"first", "second"}) {
    auto actual = distributed_session->Run(app);
    if (!actual.ok()) {
      std::fprintf(stderr, "distributed %s run failed: %s\n", job,
                   actual.status().ToString().c_str());
      return 1;
    }
    if (CheckJob(args, job, *reference, *actual, topology.num_machines()) !=
        0) {
      std::fprintf(stderr, "FAIL: in the %s distributed job\n", job);
      return 1;
    }
  }
  return 0;
}

#ifndef SURFER_CORE_ENGINE_H_
#define SURFER_CORE_ENGINE_H_

#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#if defined(__GNUG__)
#include <cxxabi.h>
#endif

#include "apps/benchmark_suite.h"
#include "cluster/metrics.h"
#include "cluster/topology.h"
#include "common/result.h"
#include "engine/job_simulation.h"
#include "graph/types.h"
#include "net/distributed.h"
#include "obs/json.h"
#include "obs/telemetry.h"
#include "propagation/app_traits.h"
#include "propagation/config.h"
#include "propagation/runner.h"
#include "runtime/executor.h"
#include "runtime/stats.h"
#include "storage/partitioned_graph.h"
#include "storage/replication.h"

namespace surfer {

namespace serve {
class GraphService;
struct ServeOptions;
}  // namespace serve

/// Which execution engine a session dispatches to. All engines compute
/// bit-identical vertex states; they differ in what they *measure*.
enum class EngineKind {
  /// The sequential PropagationRunner: exact analytic cost model over a
  /// simulated cluster (response time, disk/network bytes, RunMetrics).
  kAnalytic,
  /// The multithreaded RuntimeExecutor: real concurrent execution through
  /// the wire-batch message plane (wall-clock RuntimeStats, channel
  /// backpressure, fault recovery at task granularity).
  kConcurrent,
  /// The multi-process DistributedExecutor: one OS process per machine
  /// group, full-mesh TCP transport carrying the serialized wire batches,
  /// BSP barrier over control frames, fault plans realized as real process
  /// kills with first-alive-replica recovery. The session forks its worker
  /// group at its first Run and runs every later job on the same processes
  /// (re-forming the group after a worker is lost); destroying the Engine
  /// closes the group.
  kDistributed,
};

/// The enumerator's spelling, for error messages ("kAnalytic", ...).
inline const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kAnalytic:
      return "kAnalytic";
    case EngineKind::kConcurrent:
      return "kConcurrent";
    case EngineKind::kDistributed:
      return "kDistributed";
  }
  return "unknown";
}

/// One options struct shared by batch runs (Engine::Run) and the serving
/// plane (Engine::Serve). Engine-specific fields must be left at their
/// defaults for the other engines — Validate() rejects nonsensical
/// combinations instead of silently ignoring them; `propagation` applies to
/// every engine.
struct EngineOptions {
  EngineKind engine = EngineKind::kAnalytic;
  /// Iterations, optimization flags, tracer/metrics hooks (all engines).
  PropagationConfig propagation;
  /// Simulated-hardware parameters (analytic engine only).
  JobSimulationOptions sim;
  /// Machine failures scheduled into the simulation (analytic engine only).
  std::vector<FaultPlan> sim_faults;
  /// Worker count, channel window, wire-batch knobs, runtime fault plans
  /// (concurrent engine only).
  runtime::RuntimeOptions runtime;
  /// Process count, wire knobs, fault/SIGTERM schedule, artifact directory
  /// (distributed engine only).
  net::DistributedOptions distributed;

  /// Rejects combinations that can only be configuration mistakes: knobs of
  /// an engine that is not selected (an analytic run with a channel window,
  /// simulated fault plans on a real engine, distributed process counts on a
  /// threaded run), zero-sized channel windows, and negative iteration
  /// counts. Engine::Open calls this, so every session — batch or serving —
  /// runs validated options.
  Status Validate() const;
};

/// What a propagation run produces, unified across engines. Engine-specific
/// measurements arrive in the optionals: `metrics` for the analytic cost
/// model, `runtime_stats` for the concurrent/distributed runtimes.
/// Everything else is engine-independent (and bit-identical between them).
template <typename App>
  requires PropagationApp<App>
struct RunAppResult {
  using VertexState = typename App::VertexState;
  using VirtualOutput = typename internal::VirtualOutputOf<App>::type;

  std::vector<VertexState> states;
  std::map<uint64_t, VirtualOutput> virtual_outputs;

  /// Message-routing counters (analytic engine only; the runtime reports
  /// its own accounting through `runtime_stats`).
  std::optional<PropagationCounters> counters;
  /// Simulated cost-model metrics (analytic engine).
  std::optional<RunMetrics> metrics;
  /// Measured execution statistics (concurrent engine).
  std::optional<runtime::RuntimeStats> runtime_stats;
  /// Flight-recorder time series, pre-serialized as the run report's
  /// schema-v3 "telemetry" block (concurrent engine with
  /// options.runtime.telemetry.enabled only).
  std::optional<obs::JsonValue> telemetry;
  /// The merged report's "cluster" block (distributed engine): round
  /// timing, offset-corrected per-link latency, the cluster-wide
  /// per-superstep critical path, and the online straggler count.
  std::optional<obs::JsonValue> cluster;

  /// Row-major M x M per-link network bytes, diagonal zero. Analytic runs
  /// report the priced model bytes; concurrent runs report measured wire
  /// bytes. The two reconcile exactly (tests pin this).
  std::vector<double> link_network_bytes;

  /// State of a vertex addressed by its *original* (pre-encoding) ID.
  const VertexState& StateOfOriginal(VertexId original) const {
    return states[graph->encoding().ToEncoded(original)];
  }

  const PartitionedGraph* graph = nullptr;
};

namespace internal {

/// Human-readable name of an app type for diagnostics
/// ("surfer::ReverseLinkGraphApp" instead of the mangled typeid string).
inline std::string DemangledTypeName(const std::type_info& info) {
#if defined(__GNUG__)
  int status = 0;
  char* demangled =
      abi::__cxa_demangle(info.name(), nullptr, nullptr, &status);
  if (status == 0 && demangled != nullptr) {
    std::string result = demangled;
    std::free(demangled);
    return result;
  }
  std::free(demangled);
#endif
  return info.name();
}

template <typename App>
std::string AppTypeName() {
  return DemangledTypeName(typeid(App));
}

template <typename App>
Result<RunAppResult<App>> RunAnalytic(const PartitionedGraph* graph,
                                      const ReplicatedPlacement* placement,
                                      const Topology* topology, App app,
                                      const EngineOptions& options,
                                      JobSimulation* sim) {
  PropagationRunner<App> runner(graph, placement, topology, std::move(app),
                                options.propagation);
  std::optional<JobSimulation> local_sim;
  if (sim == nullptr) {
    local_sim.emplace(topology, options.sim);
    for (const FaultPlan& fault : options.sim_faults) {
      local_sim->InjectFault(fault);
    }
    sim = &*local_sim;
  }
  SURFER_RETURN_IF_ERROR(runner.RunWith(sim));
  RunAppResult<App> result;
  result.states = runner.states();
  result.virtual_outputs = runner.virtual_outputs();
  result.counters = runner.counters();
  result.metrics = sim->metrics();
  result.link_network_bytes = runner.link_network_bytes();
  result.graph = graph;
  return result;
}

/// Folds a real engine's measured link matrix into the unified M x M
/// network-byte matrix: the runtime's diagonal carries local (non-network)
/// traffic, so only off-diagonal entries are reported.
inline std::vector<double> NetworkLinkBytes(const runtime::RuntimeStats& stats,
                                            uint32_t n) {
  std::vector<double> bytes(static_cast<size_t>(n) * n, 0.0);
  for (uint32_t src = 0; src < n; ++src) {
    for (uint32_t dst = 0; dst < n; ++dst) {
      const size_t i = static_cast<size_t>(src) * n + dst;
      if (src != dst && i < stats.link_bytes.size()) {
        bytes[i] = static_cast<double>(stats.link_bytes[i]);
      }
    }
  }
  return bytes;
}

template <typename App>
Result<RunAppResult<App>> RunConcurrent(const PartitionedGraph* graph,
                                        const ReplicatedPlacement* placement,
                                        const Topology* topology, App app,
                                        const EngineOptions& options) {
  if constexpr (runtime::WireSerializableApp<App>) {
    runtime::RuntimeExecutor<App> executor(graph, placement, topology,
                                           std::move(app), options.propagation,
                                           options.runtime);
    SURFER_RETURN_IF_ERROR(executor.Run());
    RunAppResult<App> result;
    result.states = executor.states();
    result.virtual_outputs = executor.virtual_outputs();
    result.runtime_stats = executor.stats();
    if (executor.telemetry() != nullptr && executor.telemetry()->enabled()) {
      result.telemetry = executor.telemetry()->ToJson();
    }
    result.link_network_bytes =
        NetworkLinkBytes(executor.stats(), topology->num_machines());
    result.graph = graph;
    return result;
  } else {
    (void)graph;
    (void)placement;
    (void)topology;
    return Status::InvalidArgument(
        "app " + AppTypeName<App>() +
        " is not wire-serializable (its Message is not trivially copyable), "
        "so the concurrent engine (kConcurrent) cannot carry it; engines "
        "supporting this app: kAnalytic");
  }
}

/// Runs `app` as a job of `session`, or on a group of its own (formed and
/// closed around the job) when `session` is null.
template <typename App>
Result<RunAppResult<App>> RunDistributed(const PartitionedGraph* graph,
                                         const ReplicatedPlacement* placement,
                                         const Topology* topology, App app,
                                         const EngineOptions& options,
                                         net::DistributedSession* session) {
  if constexpr (net::DistributableApp<App>) {
    net::DistributedExecutor<App> executor(graph, placement, topology,
                                           std::move(app), options.propagation,
                                           options.distributed);
    SURFER_RETURN_IF_ERROR(session != nullptr ? executor.RunIn(*session)
                                              : executor.Run());
    RunAppResult<App> result;
    result.states = executor.states();
    result.virtual_outputs = executor.virtual_outputs();
    result.runtime_stats = executor.stats();
    if (executor.cluster_report().is_object()) {
      result.cluster = executor.cluster_report();
    }
    result.link_network_bytes =
        NetworkLinkBytes(executor.stats(), topology->num_machines());
    result.graph = graph;
    return result;
  } else {
    (void)graph;
    (void)placement;
    (void)topology;
    (void)session;
    // Name the app and exactly which engines *can* run it: everything runs
    // on the analytic engine, and wire-serializable apps whose states are
    // not trivially copyable still run on the threaded runtime.
    std::string supported = "kAnalytic";
    if constexpr (runtime::WireSerializableApp<App>) {
      supported += ", kConcurrent";
    }
    return Status::InvalidArgument(
        "app " + AppTypeName<App>() +
        " cannot run on the distributed engine (kDistributed): it requires a "
        "trivially-copyable Message (wire serialization) and "
        "trivially-copyable vertex states (state replication frames); "
        "engines supporting this app: " + supported);
  }
}

/// Runs `app` on the engine `options` selects; a distributed job runs on
/// `session` when one is given.
template <typename App>
Result<RunAppResult<App>> Dispatch(const PartitionedGraph* graph,
                                   const ReplicatedPlacement* placement,
                                   const Topology* topology, App app,
                                   const EngineOptions& options,
                                   net::DistributedSession* session = nullptr) {
  switch (options.engine) {
    case EngineKind::kAnalytic:
      return RunAnalytic(graph, placement, topology, std::move(app), options,
                         /*sim=*/nullptr);
    case EngineKind::kConcurrent:
      return RunConcurrent(graph, placement, topology, std::move(app),
                           options);
    case EngineKind::kDistributed:
      return RunDistributed(graph, placement, topology, std::move(app),
                            options, session);
  }
  return Status::InvalidArgument("unknown engine kind");
}

}  // namespace internal

inline Status EngineOptions::Validate() const {
  if (propagation.iterations < 0) {
    return Status::InvalidArgument(
        "propagation.iterations must be >= 0 (got " +
        std::to_string(propagation.iterations) + ")");
  }
  if (engine != EngineKind::kAnalytic && !sim_faults.empty()) {
    return Status::InvalidArgument(
        std::string("sim_faults schedule failures into the analytic "
                    "JobSimulation and do nothing on ") +
        EngineKindName(engine) +
        "; use runtime.faults (kConcurrent) or distributed.faults "
        "(kDistributed) instead");
  }
  if (engine == EngineKind::kAnalytic) {
    if (runtime.max_workers != 0) {
      return Status::InvalidArgument(
          "runtime.max_workers is a concurrent-engine knob; the analytic "
          "engine executes sequentially (select EngineKind::kConcurrent)");
    }
    if (runtime.channel_window_bytes !=
        runtime::RuntimeOptions::kDefaultChannelWindowBytes) {
      return Status::InvalidArgument(
          "runtime.channel_window_bytes shapes the concurrent engine's "
          "bounded channels; the analytic engine has no channels (select "
          "EngineKind::kConcurrent)");
    }
    if (runtime.telemetry.enabled) {
      return Status::InvalidArgument(
          "runtime.telemetry samples the concurrent runtime's gauges; the "
          "analytic engine has none (select EngineKind::kConcurrent)");
    }
    if (!runtime.faults.empty()) {
      return Status::InvalidArgument(
          "runtime.faults kill concurrent-runtime workers; schedule analytic "
          "failures through sim_faults instead");
    }
  }
  if (engine == EngineKind::kConcurrent &&
      runtime.channel_window_bytes == 0) {
    return Status::InvalidArgument(
        "runtime.channel_window_bytes must be > 0: a zero admission window "
        "would starve every channel");
  }
  if (engine != EngineKind::kDistributed) {
    if (distributed.max_processes != 0 || !distributed.faults.empty()) {
      return Status::InvalidArgument(
          std::string("distributed.max_processes / distributed.faults "
                      "configure the multi-process engine and do nothing "
                      "on ") +
          EngineKindName(engine) + " (select EngineKind::kDistributed)");
    }
  }
  if (engine == EngineKind::kDistributed && !runtime.faults.empty()) {
    return Status::InvalidArgument(
        "runtime.faults kill threads of the concurrent engine; distributed "
        "fault plans (real process kills) belong in distributed.faults");
  }
  return Status::OK();
}

/// The session front-end for running propagation applications: open the
/// partitioned graph, its placement, the topology, and validated
/// EngineOptions *once*, then run many apps — or start the long-lived
/// query-serving plane — against that session.
///
///   SURFER_ASSIGN_OR_RETURN(Engine engine, Engine::Open(setup, options));
///   SURFER_ASSIGN_OR_RETURN(auto run, engine.Run(NetworkRankingApp(n)));
///   SURFER_ASSIGN_OR_RETURN(auto service, engine.Serve(serve_options));
///
/// The Engine does not own the graph/placement/topology (they typically live
/// in a SurferEngine); it owns the validated options and, for kDistributed,
/// the session's worker group, which it closes on destruction. An Engine
/// moves but does not copy.
class Engine {
 public:
  /// Opens a session. Fails with InvalidArgument when any pointer is null or
  /// options.Validate() rejects the configuration.
  static Result<Engine> Open(const PartitionedGraph* graph,
                             const ReplicatedPlacement* placement,
                             const Topology* topology,
                             EngineOptions options = {}) {
    if (graph == nullptr || placement == nullptr || topology == nullptr) {
      return Status::InvalidArgument(
          "Engine::Open requires non-null graph, placement, and topology");
    }
    SURFER_RETURN_IF_ERROR(options.Validate());
    return Engine(graph, placement, topology, std::move(options));
  }

  /// Opens a session over a BenchmarkSetup bundle: the setup's sim_options
  /// replace `options.sim` (a setup is a ready-to-run bundle; its simulated
  /// hardware is part of the bundle).
  static Result<Engine> Open(const BenchmarkSetup& setup,
                             EngineOptions options = {}) {
    options.sim = setup.sim_options;
    return Open(setup.graph, setup.placement, setup.topology,
                std::move(options));
  }

  /// Runs one app through the session's engine; see RunAppResult for what
  /// comes back per engine kind. On kDistributed the first Run forks the
  /// worker group and later Runs reuse it; concurrent Runs serialize.
  template <typename App>
    requires PropagationApp<App>
  Result<RunAppResult<App>> Run(App app) const {
    return internal::Dispatch(graph_, placement_, topology_, std::move(app),
                              options_, distributed_.get());
  }

  /// Runs one app on an externally owned simulation (fault-injection
  /// experiments, job composition): metrics accumulate into `sim`, and
  /// `options.sim` / `options.sim_faults` are ignored in favor of the
  /// caller's simulation. Analytic engine only.
  template <typename App>
    requires PropagationApp<App>
  Result<RunAppResult<App>> Run(App app, JobSimulation* sim) const {
    if (options_.engine != EngineKind::kAnalytic) {
      return Status::InvalidArgument(
          std::string("an external JobSimulation only applies to the "
                      "analytic engine (session engine is ") +
          EngineKindName(options_.engine) + ")");
    }
    return internal::RunAnalytic(graph_, placement_, topology_,
                                 std::move(app), options_, sim);
  }

  /// Starts the long-lived query-serving plane over this session: a
  /// GraphService answering k-hop / partition-local shortest-path / cached
  /// NetworkRanking queries concurrently, with weighted admission control.
  /// The per-vertex rank scores are precomputed here by one batch Run of
  /// NetworkRankingApp through the session's engine kind (on kDistributed,
  /// on a worker group of its own, since it runs its own iteration count).
  /// Defined in serve/graph_service.h — include it to call Serve.
  Result<std::unique_ptr<serve::GraphService>> Serve(
      serve::ServeOptions options) const;

  const PartitionedGraph* graph() const { return graph_; }
  const ReplicatedPlacement* placement() const { return placement_; }
  const Topology* topology() const { return topology_; }
  const EngineOptions& options() const { return options_; }

 private:
  Engine(const PartitionedGraph* graph, const ReplicatedPlacement* placement,
         const Topology* topology, EngineOptions options)
      : graph_(graph),
        placement_(placement),
        topology_(topology),
        options_(std::move(options)) {
    if (options_.engine == EngineKind::kDistributed) {
      distributed_ = std::make_unique<net::DistributedSession>(
          graph_, placement_, topology_, options_.propagation,
          options_.distributed);
    }
  }

  const PartitionedGraph* graph_;
  const ReplicatedPlacement* placement_;
  const Topology* topology_;
  EngineOptions options_;
  /// The kDistributed session's worker group (null on other engines).
  std::unique_ptr<net::DistributedSession> distributed_;
};

}  // namespace surfer

#endif  // SURFER_CORE_ENGINE_H_

#ifndef SURFER_PROPAGATION_CONFIG_H_
#define SURFER_PROPAGATION_CONFIG_H_

#include <cstdint>
#include <string>

namespace surfer {

namespace obs {
class MetricsRegistry;
class Tracer;
}  // namespace obs

/// The optimization levels evaluated in Section 6.3. The storage-layout half
/// (O2/O4 vs O1/O3) is chosen by the *placement* passed to the runner; the
/// local-optimization half (O3/O4 vs O1/O2) by these flags.
enum class OptimizationLevel {
  kO1,  ///< ParMetis layout, no local optimizations
  kO2,  ///< bandwidth-aware layout, no local optimizations
  kO3,  ///< ParMetis layout, local propagation + local combination
  kO4,  ///< bandwidth-aware layout, local propagation + local combination
};

std::string OptimizationLevelName(OptimizationLevel level);

/// True when the level uses the bandwidth-aware storage layout.
bool UsesBandwidthAwareLayout(OptimizationLevel level);
/// True when the level enables local propagation / local combination.
bool UsesLocalOptimizations(OptimizationLevel level);

/// Runtime configuration of a propagation job.
struct PropagationConfig {
  /// Local propagation (Section 5.1): messages to inner vertices are applied
  /// in memory during the partition scan, never materialized to disk.
  bool local_propagation = true;
  /// Local combination (Section 5.1): messages bound for the same remote
  /// vertex are merged before transmission when `combine` is associative
  /// (the app exposes Merge).
  bool local_combination = true;
  /// Cascaded multi-iteration propagation (Section 5.2): vertices whose
  /// k-hop neighborhood stays in the partition run k iterations per scan.
  bool cascaded = false;
  /// Frontier gating: combine loops visit only vertices whose
  /// received-message frontier bit is set, skipping silent (converged)
  /// vertices. Takes effect only for apps that declare the
  /// SilentVertexSkippableApp trait (`kSkipSilentVertices`), whose contract
  /// makes the skip result-invariant; other apps keep the legacy full-range
  /// loop regardless of this flag. On by default — it is inert unless an
  /// app opts in — and exposed so tests can pin bit-identity with gating
  /// both on and off.
  bool frontier_gating = true;
  /// Number of propagation iterations (NR runs several; most apps run one).
  int iterations = 1;
  /// Simulated per-machine memory available to a partition's working set;
  /// exceeding it degrades the task to random disk I/O (P2). Zero disables
  /// the check.
  uint64_t memory_limit_bytes = 0;
  /// Optional observability hooks (not owned; may be null). The tracer gets
  /// wall-clock spans per iteration; the registry gets propagation_*
  /// counters. Pass the same pointers via JobSimulationOptions to also
  /// capture the simulated-clock side of the run.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;

  static PropagationConfig ForLevel(OptimizationLevel level) {
    PropagationConfig config;
    config.local_propagation = UsesLocalOptimizations(level);
    config.local_combination = UsesLocalOptimizations(level);
    return config;
  }
};

/// Message-routing counters of one propagation run, accumulated across
/// iterations. These count *messages* (not bytes) at the point the
/// optimization decision is made, so they diagnose the Section 5 levels
/// directly:
///   emitted == locally_propagated + locally_combined + materialized
/// and network <= materialized (every network message also spills once as a
/// send buffer). Cascaded elision changes byte accounting only and leaves
/// these counts untouched.
struct PropagationCounters {
  /// Messages produced by Transfer (real + virtual targets).
  uint64_t messages_emitted = 0;
  /// Inner-vertex messages applied in memory by local propagation.
  uint64_t messages_locally_propagated = 0;
  /// Messages merged away by local combination before materialization.
  uint64_t messages_locally_combined = 0;
  /// Messages spilled to disk (boundary-local, unoptimized inner-local, and
  /// every cross-partition send buffer).
  uint64_t messages_materialized = 0;
  /// Messages that crossed a machine boundary.
  uint64_t messages_network = 0;
  /// Combine calls skipped by frontier gating (SilentVertexSkippableApps
  /// under PropagationConfig::frontier_gating only; always 0 otherwise).
  uint64_t frontier_vertices_skipped = 0;

  void MergeFrom(const PropagationCounters& other) {
    messages_emitted += other.messages_emitted;
    messages_locally_propagated += other.messages_locally_propagated;
    messages_locally_combined += other.messages_locally_combined;
    messages_materialized += other.messages_materialized;
    messages_network += other.messages_network;
    frontier_vertices_skipped += other.frontier_vertices_skipped;
  }
};

}  // namespace surfer

#endif  // SURFER_PROPAGATION_CONFIG_H_

#ifndef SURFER_PARTITION_RECURSIVE_PARTITIONER_H_
#define SURFER_PARTITION_RECURSIVE_PARTITIONER_H_

#include <cstdint>

#include "common/result.h"
#include "graph/graph.h"
#include "partition/bisection.h"
#include "partition/partition_sketch.h"
#include "partition/partitioning.h"

namespace surfer {

namespace obs {
class MetricsRegistry;
class Tracer;
}  // namespace obs

/// The partitioner's default worker count: one less than the hardware
/// threads, because the calling thread works too while it waits for the
/// bisection tree (TaskGroup::Wait helps). 0, the sequential path, on a
/// single-core host or when the core count is unknown.
uint32_t DefaultPartitionerThreads();

/// Options for the P-way multilevel recursive-bisection partitioner (the
/// algorithm family of Metis/ParMetis, Appendix A.2).
struct RecursivePartitionerOptions {
  /// Number of partitions; must be a power of two (the partition sketch is a
  /// balanced binary tree).
  uint32_t num_partitions = 16;
  BisectionOptions bisection;
  /// Worker threads for the partitioner, by default
  /// DefaultPartitionerThreads(). 0 selects the sequential reference path
  /// (no pool is created); any value >= 1 runs the bisection tree
  /// task-parallel — after a node's bisection its two subtrees become
  /// independent pool tasks — plus intra-bisection parallelism on large
  /// nodes. Every thread count, including 0, produces a bit-identical
  /// assignment and sketch: per-node seeds make each subtree's result
  /// independent of execution order, and all concurrent writes land in
  /// disjoint ranges (see DESIGN.md Section 10). `bisection.pool` is
  /// overridden per node and need not be set by callers.
  uint32_t num_threads = DefaultPartitionerThreads();
  /// Optional observability hooks (not owned; may be null). The tracer gets
  /// one wall-clock span per bisection (category "partition", args level /
  /// vertices / cut); the registry gets partition_* counters, per-level
  /// partition_edge_cut gauges, and partition_bisection_seconds histograms.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

/// The result: the assignment plus the partition sketch annotated with the
/// cut weight of every bisection.
struct RecursivePartitionResult {
  Partitioning partitioning;
  PartitionSketch sketch;
};

/// Partitions `graph` into P parts by recursive multilevel bisection,
/// balancing stored record bytes. Partition IDs follow sketch order: the
/// leaves of the bisection tree left to right, so sibling partitions have
/// adjacent IDs — the property the bandwidth-aware placement exploits.
Result<RecursivePartitionResult> RecursivePartition(
    const Graph& graph, const RecursivePartitionerOptions& options);

}  // namespace surfer

#endif  // SURFER_PARTITION_RECURSIVE_PARTITIONER_H_

#include "partition/partitioning_cost.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "common/random.h"
#include "partition/machine_graph.h"
#include "partition/partition_sketch.h"

namespace surfer {

namespace {

/// Time for one machine group to bisect S bytes: compute + disk + the
/// all-to-all exchange bounded by the slowest member's average bandwidth to
/// its peers.
double GroupBisectionSeconds(const Topology& topology,
                             const std::vector<MachineId>& group,
                             double bytes,
                             const PartitioningCostParameters& params) {
  const double m = static_cast<double>(group.size());
  double seconds = bytes * params.cpu_work_factor /
                   (m * params.cpu_bytes_per_sec);
  seconds += bytes * params.disk_passes / (m * params.disk_bytes_per_sec);
  if (group.size() > 1) {
    // Each machine exchanges its bytes/|M| share with the group at its
    // average pairwise bandwidth. The group finishes in the *mean* of the
    // per-machine times rather than the max: the multilevel bisection is a
    // long pipeline of micro-steps, and machines that finish a step early
    // proceed with local coarsening/refinement work, so slow members
    // overlap rather than serialize with fast ones.
    double mean_exchange = 0.0;
    for (MachineId a : group) {
      double bw_sum = 0.0;
      for (MachineId b : group) {
        if (a != b) {
          bw_sum += topology.Bandwidth(a, b);
        }
      }
      const double avg_bw = bw_sum / (m - 1.0);
      const double per_machine_bytes = bytes / m;
      mean_exchange += params.exchange_rounds * per_machine_bytes / avg_bw;
    }
    seconds += mean_exchange / m;
  }
  return seconds;
}

/// Splits `group` in half randomly (bandwidth-oblivious).
void RandomSplit(const std::vector<MachineId>& group, Rng& rng,
                 std::vector<MachineId>* left,
                 std::vector<MachineId>* right) {
  std::vector<MachineId> shuffled = group;
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  const size_t half = shuffled.size() / 2;
  left->assign(shuffled.begin(), shuffled.begin() + half);
  right->assign(shuffled.begin() + half, shuffled.end());
}

struct Recursion {
  const Topology* topology;
  const PartitioningCostParameters* params;
  MachineGroupingPolicy policy;
  const BandwidthAwarePlacement* ba_placement;  // set for kBandwidthAware
  Rng rng;
  PartitioningCostBreakdown* out;
  uint32_t num_levels = 0;

  // Group times at each recursion level. The level's elapsed time is the
  // machine-weighted mean over its groups: sibling subtrees and their
  // store/refine phases overlap, so a slow group delays the pipeline in
  // proportion to its share rather than gating everything (the same reason
  // the per-group exchange uses the mean over members).
  std::vector<double> level_time_sum{};
  std::vector<double> level_weight_sum{};
  double local_phase_max = 0.0;

  void Visit(const std::vector<MachineId>& group, double bytes,
             uint32_t level, uint32_t sketch_node, uint32_t remaining_splits);
};

void Recursion::Visit(const std::vector<MachineId>& group, double bytes,
                      uint32_t level, uint32_t sketch_node,
                      uint32_t remaining_splits) {
  if (remaining_splits == 0) {
    return;
  }
  if (group.size() == 1) {
    // Local phase: one machine partitions its share into 2^remaining parts
    // sequentially — remaining_splits passes of in-memory bisection.
    const double local =
        static_cast<double>(remaining_splits) *
        (bytes * params->cpu_work_factor / params->cpu_bytes_per_sec +
         bytes * params->disk_passes / params->disk_bytes_per_sec);
    local_phase_max = std::max(local_phase_max, local);
    return;
  }
  if (level_time_sum.size() <= level) {
    level_time_sum.resize(level + 1, 0.0);
    level_weight_sum.resize(level + 1, 0.0);
  }
  const double weight = static_cast<double>(group.size());
  level_time_sum[level] +=
      weight * GroupBisectionSeconds(*topology, group, bytes, *params);
  level_weight_sum[level] += weight;

  std::vector<MachineId> left;
  std::vector<MachineId> right;
  if (policy == MachineGroupingPolicy::kBandwidthAware &&
      ba_placement != nullptr &&
      PartitionSketch::Left(sketch_node) < ba_placement->node_machines.size() &&
      !ba_placement->node_machines[PartitionSketch::Left(sketch_node)]
           .empty()) {
    left = ba_placement->node_machines[PartitionSketch::Left(sketch_node)];
    right = ba_placement->node_machines[PartitionSketch::Right(sketch_node)];
  } else {
    RandomSplit(group, rng, &left, &right);
  }
  Visit(left, bytes / 2.0, level + 1, PartitionSketch::Left(sketch_node),
        remaining_splits - 1);
  Visit(right, bytes / 2.0, level + 1, PartitionSketch::Right(sketch_node),
        remaining_splits - 1);
}

}  // namespace

Result<PartitioningCostBreakdown> EstimatePartitioningTime(
    const Topology& topology, size_t graph_bytes, uint32_t num_partitions,
    MachineGroupingPolicy policy,
    const PartitioningCostParameters& params) {
  if (num_partitions == 0 || (num_partitions & (num_partitions - 1)) != 0) {
    return Status::InvalidArgument("num_partitions must be a power of two");
  }
  if (topology.num_machines() == 0) {
    return Status::InvalidArgument("empty topology");
  }
  const uint32_t levels =
      static_cast<uint32_t>(std::bit_width(num_partitions)) - 1;

  // For the bandwidth-aware policy, derive the machine groups from the
  // actual machine-graph bisection (the same code the placement uses).
  BandwidthAwarePlacement placement;
  const BandwidthAwarePlacement* placement_ptr = nullptr;
  if (policy == MachineGroupingPolicy::kBandwidthAware && levels > 0) {
    PartitionSketch sketch(num_partitions);
    // The partitioning *process* divides its bisection work over machines
    // evenly (the data shape is still being discovered), so the machine
    // groups here balance by count, not capability.
    BandwidthAwarePlacementOptions options;
    options.capability_weights = false;
    SURFER_ASSIGN_OR_RETURN(
        placement, ComputeBandwidthAwarePlacement(topology, sketch, options));
    placement_ptr = &placement;
  }

  PartitioningCostBreakdown breakdown;
  Recursion rec{&topology, &params, policy, placement_ptr, Rng(params.seed),
                &breakdown};
  rec.num_levels = levels;

  std::vector<MachineId> all(topology.num_machines());
  std::iota(all.begin(), all.end(), 0);
  rec.Visit(all, static_cast<double>(graph_bytes), 0, 1, levels);

  breakdown.level_seconds.resize(rec.level_time_sum.size());
  for (size_t l = 0; l < rec.level_time_sum.size(); ++l) {
    breakdown.level_seconds[l] =
        rec.level_weight_sum[l] > 0.0
            ? rec.level_time_sum[l] / rec.level_weight_sum[l]
            : 0.0;
  }
  for (double& s : breakdown.level_seconds) {
    s *= params.work_scale;
  }
  breakdown.local_phase_seconds = rec.local_phase_max * params.work_scale;
  breakdown.total_seconds =
      std::accumulate(breakdown.level_seconds.begin(),
                      breakdown.level_seconds.end(), 0.0) +
      breakdown.local_phase_seconds;
  return breakdown;
}

std::string PartitioningCostBreakdown::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "total=%.1fs levels=%zu local_phase=%.1fs", total_seconds,
                level_seconds.size(), local_phase_seconds);
  return buf;
}

}  // namespace surfer

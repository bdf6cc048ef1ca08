#ifndef SURFER_PROPAGATION_RUNNER_H_
#define SURFER_PROPAGATION_RUNNER_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "cluster/metrics.h"
#include "cluster/topology.h"
#include "common/logging.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "engine/job_simulation.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "propagation/app_traits.h"
#include "propagation/cascade.h"
#include "propagation/config.h"
#include "propagation/engine_inputs.h"
#include "runtime/combine_plan.h"
#include "storage/partitioned_graph.h"
#include "storage/replication.h"

namespace surfer {

namespace internal {

/// Simulated size of one virtual-vertex output record.
inline constexpr size_t kVirtualOutputBytes = 16;

}  // namespace internal

/// Executes a propagation application on a partitioned graph over a
/// simulated cluster (Algorithm 5 plus the Section 5 optimizations).
///
/// The computation itself always runs exactly — every message is delivered
/// and every combine executes, so results are identical across optimization
/// levels (tests assert this). What the flags change is the *accounted
/// cost*:
///   - local propagation: messages to inner vertices are applied in memory
///     during the partition scan and never materialized to disk;
///   - local combination: messages to the same remote vertex are merged
///     before being priced as network bytes (requires Merge on the app;
///     semantics-preserving because Merge is associative);
///   - storage layout: cross-partition messages between partitions placed on
///     the same machine bypass the network entirely;
///   - cascaded propagation: across iterations, vertices in V_k skip
///     intermediate state round-trips (Section 5.2).
template <typename App>
  requires PropagationApp<App>
class PropagationRunner {
 public:
  using VertexState = typename App::VertexState;
  using Message = typename App::Message;
  using VirtualOutput = typename internal::VirtualOutputOf<App>::type;

  PropagationRunner(const PartitionedGraph* graph,
                    const ReplicatedPlacement* placement,
                    const Topology* topology, App app,
                    PropagationConfig config)
      : graph_(graph),
        placement_(placement),
        topology_(topology),
        app_(std::move(app)),
        config_(config) {}

  /// Runs `config.iterations` iterations on a fresh simulation and returns
  /// its metrics.
  Result<RunMetrics> Run(JobSimulationOptions sim_options = {}) {
    JobSimulation sim(topology_, sim_options);
    SURFER_RETURN_IF_ERROR(RunWith(&sim));
    return sim.metrics();
  }

  /// Runs on an externally owned simulation (fault-injection experiments,
  /// job composition); metrics accumulate into `sim`.
  Status RunWith(JobSimulation* sim) {
    SURFER_RETURN_IF_ERROR(
        ValidateEngineInputs(graph_, placement_, topology_, config_));
    states_ = InitialStates(app_, *graph_);
    virtual_outputs_.clear();
    counters_ = PropagationCounters{};
    const uint32_t num_machines = topology_->num_machines();
    link_network_bytes_.assign(
        static_cast<size_t>(num_machines) * num_machines, 0.0);
    if (config_.cascaded && config_.iterations > 1) {
      cascade_ = ComputeCascadeInfo(*graph_);
    } else {
      cascade_ = CascadeInfo{};
    }
    for (int iteration = 0; iteration < config_.iterations; ++iteration) {
      SURFER_TRACE_SCOPE(config_.tracer,
                         "iteration[" + std::to_string(iteration) + "]",
                         "propagation");
      if constexpr (IterationAwareApp<App>) {
        app_.OnIterationStart(iteration);
      }
      SURFER_RETURN_IF_ERROR(RunIteration(sim, iteration));
    }
    PublishCounters();
    return Status::OK();
  }

  const std::vector<VertexState>& states() const { return states_; }

  /// Message-routing counters of the last Run/RunWith (see
  /// PropagationCounters for the invariants they satisfy).
  const PropagationCounters& counters() const { return counters_; }

  /// State of a vertex addressed by its *original* (pre-encoding) ID.
  const VertexState& StateOfOriginal(VertexId original) const {
    return states_[graph_->encoding().ToEncoded(original)];
  }

  /// Virtual-vertex results (empty unless the app aggregates on virtual
  /// vertices).
  const std::map<uint64_t, VirtualOutput>& virtual_outputs() const {
    return virtual_outputs_;
  }

  const CascadeInfo& cascade_info() const { return cascade_; }

  /// Analytic per-link network bytes of the last Run/RunWith: a row-major
  /// M x M matrix where entry [src * M + dst] sums the Transfer-stage bytes
  /// priced from src's primary machine to dst (the diagonal is zero — local
  /// traffic never touches the network). The concurrent runtime's measured
  /// RuntimeStats::link_bytes must reconcile with this matrix exactly, which
  /// cross-checks the cost model against real execution.
  const std::vector<double>& link_network_bytes() const {
    return link_network_bytes_;
  }

 private:
  /// True when this vertex's work in `iteration` is elided from disk
  /// accounting by cascaded propagation (its value for this iteration was
  /// already computed during an earlier scan of the phase). The phase length
  /// is the paper's d_min.
  bool CascadeSkips(VertexId v, int iteration) const {
    if (cascade_.level.empty() || iteration == 0) {
      return false;
    }
    const uint32_t level = cascade_.level[v];
    if (level == kCascadeInf) {
      return true;  // V_inf: all iterations ran in the first scan
    }
    const uint32_t c = cascade_.d_min;
    if (c < 2) {
      return false;
    }
    const uint32_t phase_pos = static_cast<uint32_t>(iteration) % c;
    return phase_pos >= 1 && std::min(level, c) > phase_pos;
  }

  /// Per-source-partition buffers produced by the Transfer stage.
  struct PartitionOut {
    std::vector<std::pair<VertexId, Message>> local;
    double inner_local_bytes = 0.0;
    double boundary_local_bytes = 0.0;
    std::unordered_map<PartitionId, std::vector<std::pair<VertexId, Message>>>
        remote_list;
    std::unordered_map<PartitionId, std::unordered_map<VertexId, Message>>
        remote_merged;
    std::unordered_map<PartitionId,
                       std::vector<std::pair<uint64_t, Message>>>
        virtual_list;
    std::unordered_map<PartitionId, std::unordered_map<uint64_t, Message>>
        virtual_merged;
    double emitted_bytes = 0.0;
    double state_read_bytes = 0.0;
    double skipped_state_bytes = 0.0;   // cascaded elision: states
    double skipped_record_bytes = 0.0;  // cascaded elision: adjacency records
    uint64_t skipped_vertices = 0;
    PropagationCounters counters;
  };

  Status RunIteration(JobSimulation* sim, int iteration) {
    const uint32_t num_partitions = graph_->num_partitions();
    const Graph& g = graph_->encoded_graph();
    const bool merge_remote = config_.local_combination && MergeableApp<App>;

    // ---------------- Transfer stage ----------------
    std::vector<PartitionOut> outs(num_partitions);
    std::vector<SimTask> transfer_tasks(num_partitions);

    // std::optional so the wall-clock span can close right after the
    // parallel compute, before the simulated stage runs.
    std::optional<obs::ScopedSpan> transfer_span(
        std::in_place, config_.tracer,
        "transfer_compute[" + std::to_string(iteration) + "]", "propagation");
    GlobalThreadPool().ParallelFor(num_partitions, [&](size_t pi) {
      const PartitionId p = static_cast<PartitionId>(pi);
      const PartitionMeta& meta = graph_->partition(p);
      PartitionOut& out = outs[p];
      PropagationEmitter<Message> emitter;
      // With local combination on, messages to *local* targets also merge
      // per target before they are counted (inner ones are applied in
      // memory anyway; boundary ones spill in merged form — the same
      // associativity argument as for remote merging).
      std::unordered_map<VertexId, Message> local_merged;

      for (VertexId v = meta.begin; v < meta.end; ++v) {
        const double state_bytes =
            static_cast<double>(app_.StateBytes(states_[v]));
        if (CascadeSkips(v, iteration)) {
          // This vertex's value for the current iteration was computed in a
          // batch during an earlier scan of the phase (Section 5.2): the
          // scan skips its adjacency record and state round-trip.
          out.skipped_state_bytes += state_bytes;
          out.skipped_record_bytes += static_cast<double>(
              StoredVertexRecordBytes(g.OutDegree(v)));
          ++out.skipped_vertices;
        }
        out.state_read_bytes += state_bytes;
        app_.Transfer(v, states_[v], g.OutNeighbors(v), emitter);
        // Drain() resets the emitter after streaming, so the next vertex's
        // Transfer starts from a clean slate.
        emitter.Drain(
            [&](VertexId target, Message message) {
              const double bytes =
                  static_cast<double>(app_.MessageBytes(message));
              out.emitted_bytes += bytes;
              ++out.counters.messages_emitted;
              // PartitionOf is a table lookup defined only up to n.
              SURFER_CHECK(target < g.num_vertices())
                  << "partition " << p << " emitted target " << target
                  << ", but the graph has only " << g.num_vertices()
                  << " vertices";
              const PartitionId pt = graph_->PartitionOf(target);
              if (pt == p) {
                if (merge_remote) {
                  if constexpr (MergeableApp<App>) {
                    auto it = local_merged.find(target);
                    if (it == local_merged.end()) {
                      local_merged.emplace(target, std::move(message));
                    } else {
                      it->second = app_.Merge(it->second, message);
                      ++out.counters.messages_locally_combined;
                    }
                  }
                } else {
                  const bool inner = meta.boundary[target - meta.begin] == 0;
                  if (inner) {
                    out.inner_local_bytes += bytes;
                    if (config_.local_propagation) {
                      ++out.counters.messages_locally_propagated;
                    } else {
                      ++out.counters.messages_materialized;
                    }
                  } else {
                    out.boundary_local_bytes += bytes;
                    ++out.counters.messages_materialized;
                  }
                  out.local.emplace_back(target, std::move(message));
                }
              } else if (merge_remote) {
                if constexpr (MergeableApp<App>) {
                  auto& bucket = out.remote_merged[pt];
                  auto it = bucket.find(target);
                  if (it == bucket.end()) {
                    bucket.emplace(target, std::move(message));
                  } else {
                    it->second = app_.Merge(it->second, message);
                    ++out.counters.messages_locally_combined;
                  }
                }
              } else {
                out.remote_list[pt].emplace_back(target, std::move(message));
              }
            },
            [&](uint64_t target, Message message) {
              const double bytes =
                  static_cast<double>(app_.MessageBytes(message));
              out.emitted_bytes += bytes;
              ++out.counters.messages_emitted;
              const PartitionId pt =
                  static_cast<PartitionId>(target % num_partitions);
              if (merge_remote) {
                if constexpr (MergeableApp<App>) {
                  auto& bucket = out.virtual_merged[pt];
                  auto it = bucket.find(target);
                  if (it == bucket.end()) {
                    bucket.emplace(target, std::move(message));
                  } else {
                    it->second = app_.Merge(it->second, message);
                    ++out.counters.messages_locally_combined;
                  }
                }
              } else {
                out.virtual_list[pt].emplace_back(target, std::move(message));
              }
            });
      }

      // Flush the merged local messages with post-merge byte counts.
      if constexpr (MergeableApp<App>) {
        for (auto& [target, message] : local_merged) {
          const double bytes =
              static_cast<double>(app_.MessageBytes(message));
          if (meta.boundary[target - meta.begin] == 0) {
            out.inner_local_bytes += bytes;
            if (config_.local_propagation) {
              ++out.counters.messages_locally_propagated;
            } else {
              ++out.counters.messages_materialized;
            }
          } else {
            out.boundary_local_bytes += bytes;
            ++out.counters.messages_materialized;
          }
          out.local.emplace_back(target, std::move(message));
        }
        local_merged.clear();
      }

      // Price the task.
      SimTask& task = transfer_tasks[p];
      task.kind = SimTaskKind::kTransfer;
      task.partition = p;
      for (MachineId m : placement_->replicas[p]) {
        if (m != kInvalidMachine) {
          task.candidate_machines.push_back(m);
        }
      }
      TaskCost& cost = task.cost;
      const double effective_state_read =
          out.state_read_bytes - out.skipped_state_bytes;
      const double effective_record_read = std::max(
          0.0, static_cast<double>(meta.stored_bytes) -
                   out.skipped_record_bytes);
      cost.disk_read_bytes = effective_record_read + effective_state_read;
      cost.cpu_bytes =
          static_cast<double>(meta.stored_bytes) + out.emitted_bytes;
      // Intermediate materialization: boundary-target local messages always
      // spill; inner-target ones only without local propagation; cascaded
      // elision removes the skipped vertices' share of the inner spill.
      double inner_spill =
          config_.local_propagation ? 0.0 : out.inner_local_bytes;
      const VertexId part_vertices = meta.num_vertices();
      if (part_vertices > 0 && out.skipped_vertices > 0) {
        const double skip_fraction = static_cast<double>(out.skipped_vertices) /
                                     static_cast<double>(part_vertices);
        inner_spill *= (1.0 - skip_fraction);
      }
      cost.disk_write_bytes = out.boundary_local_bytes + inner_spill;

      // Cross-partition traffic, merged or raw.
      const MachineId my_machine = placement_->primary(p);
      auto price_destination = [&](PartitionId dst, double bytes,
                                   uint64_t num_messages) {
        const MachineId dst_machine = placement_->primary(dst);
        // Either way the bytes spill once on this machine: as the final
        // intermediate for a co-located destination, or as the send buffer
        // for a remote one (which additionally pays the wire and a receive
        // spill on the destination).
        cost.disk_write_bytes += bytes;
        out.counters.messages_materialized += num_messages;
        if (dst_machine != my_machine) {
          cost.AddNetwork(dst_machine, bytes);
          out.counters.messages_network += num_messages;
        }
      };
      for (const auto& [dst, messages] : out.remote_list) {
        double bytes = 0.0;
        for (const auto& [target, message] : messages) {
          (void)target;
          bytes += static_cast<double>(app_.MessageBytes(message));
        }
        price_destination(dst, bytes, messages.size());
      }
      for (const auto& [dst, merged] : out.remote_merged) {
        double bytes = 0.0;
        for (const auto& [target, message] : merged) {
          (void)target;
          bytes += static_cast<double>(app_.MessageBytes(message));
        }
        price_destination(dst, bytes, merged.size());
      }
      for (const auto& [dst, messages] : out.virtual_list) {
        double bytes = 0.0;
        for (const auto& [target, message] : messages) {
          (void)target;
          bytes += static_cast<double>(app_.MessageBytes(message));
        }
        if (dst == p) {
          cost.disk_write_bytes += bytes;
          out.counters.messages_materialized += messages.size();
        } else {
          price_destination(dst, bytes, messages.size());
        }
      }
      for (const auto& [dst, merged] : out.virtual_merged) {
        double bytes = 0.0;
        for (const auto& [target, message] : merged) {
          (void)target;
          bytes += static_cast<double>(app_.MessageBytes(message));
        }
        if (dst == p) {
          cost.disk_write_bytes += bytes;
          out.counters.messages_materialized += merged.size();
        } else {
          price_destination(dst, bytes, merged.size());
        }
      }
      if (config_.memory_limit_bytes > 0) {
        const double working_set = static_cast<double>(meta.stored_bytes) +
                                   out.state_read_bytes +
                                   cost.disk_write_bytes;
        cost.random_io =
            working_set > static_cast<double>(config_.memory_limit_bytes);
      }
    });

    transfer_span.reset();
    for (const PartitionOut& out : outs) {
      counters_.MergeFrom(out.counters);
    }
    // Fold each task's priced sends into the per-link byte matrix before the
    // simulation consumes the tasks. Sources are the partitions' primaries:
    // the matrix describes the no-fault execution the runtime reproduces.
    const uint32_t nm = topology_->num_machines();
    for (PartitionId p = 0; p < num_partitions; ++p) {
      const MachineId src = placement_->primary(p);
      for (const auto& [dst, bytes] : transfer_tasks[p].cost.network_out) {
        link_network_bytes_[static_cast<size_t>(src) * nm + dst] += bytes;
      }
    }

    SURFER_RETURN_IF_ERROR(
        sim->RunStage("transfer[" + std::to_string(iteration) + "]",
                      std::move(transfer_tasks))
            .status());

    // ---------------- Delivery (zero-cost bookkeeping) ----------------
    std::vector<std::vector<std::pair<VertexId, Message>>> inbox(
        num_partitions);
    std::vector<std::vector<std::pair<uint64_t, Message>>> virtual_inbox(
        num_partitions);
    std::vector<double> incoming_remote_bytes(num_partitions, 0.0);
    std::vector<double> local_materialized_bytes(num_partitions, 0.0);

    for (PartitionId p = 0; p < num_partitions; ++p) {
      PartitionOut& out = outs[p];
      auto& own = inbox[p];
      std::move(out.local.begin(), out.local.end(), std::back_inserter(own));
      out.local.clear();
      local_materialized_bytes[p] +=
          out.boundary_local_bytes +
          (config_.local_propagation ? 0.0 : out.inner_local_bytes);
      const MachineId src_machine = placement_->primary(p);
      // Bytes from a co-located partition were already spilled to this
      // machine's disk by the Transfer task; the Combine task only re-reads
      // them. Truly remote bytes additionally pay the receive spill, and
      // are what a recovering Combine task must re-transfer.
      auto account = [&](PartitionId dst, double bytes) {
        if (placement_->primary(dst) == src_machine) {
          local_materialized_bytes[dst] += bytes;
        } else {
          incoming_remote_bytes[dst] += bytes;
        }
      };
      for (auto& [dst, messages] : out.remote_list) {
        for (auto& [target, message] : messages) {
          account(dst, static_cast<double>(app_.MessageBytes(message)));
          inbox[dst].emplace_back(target, std::move(message));
        }
      }
      for (auto& [dst, merged] : out.remote_merged) {
        for (auto& [target, message] : merged) {
          account(dst, static_cast<double>(app_.MessageBytes(message)));
          inbox[dst].emplace_back(target, std::move(message));
        }
      }
      for (auto& [dst, messages] : out.virtual_list) {
        for (auto& [target, message] : messages) {
          if (dst != p) {
            account(dst, static_cast<double>(app_.MessageBytes(message)));
          } else {
            local_materialized_bytes[p] +=
                static_cast<double>(app_.MessageBytes(message));
          }
          virtual_inbox[dst].emplace_back(target, std::move(message));
        }
      }
      for (auto& [dst, merged] : out.virtual_merged) {
        for (auto& [target, message] : merged) {
          if (dst != p) {
            account(dst, static_cast<double>(app_.MessageBytes(message)));
          } else {
            local_materialized_bytes[p] +=
                static_cast<double>(app_.MessageBytes(message));
          }
          virtual_inbox[dst].emplace_back(target, std::move(message));
        }
      }
      out = PartitionOut{};  // release buffers eagerly
    }

    // ---------------- Combine stage ----------------
    std::vector<SimTask> combine_tasks(num_partitions);
    std::vector<std::vector<std::pair<uint64_t, VirtualOutput>>>
        virtual_results(num_partitions);

    std::optional<obs::ScopedSpan> combine_span(
        std::in_place, config_.tracer,
        "combine_compute[" + std::to_string(iteration) + "]", "propagation");
    std::vector<uint64_t> skipped_per_partition(num_partitions, 0);
    GlobalThreadPool().ParallelFor(num_partitions, [&](size_t pi) {
      const PartitionId p = static_cast<PartitionId>(pi);
      const PartitionMeta& meta = graph_->partition(p);
      auto& messages = inbox[p];
      // Sort-free regroup (runtime/combine_plan.h): the inbox was filled in
      // ascending source-partition order, so a stable counting scatter by
      // target reproduces, byte for byte, the grouping the legacy
      // stable_sort produced — each vertex's messages contiguous, per-sender
      // emission order preserved.
      runtime::CombineScratch scratch = combine_pool_.Acquire();
      std::vector<Message> grouped;
      runtime::GroupMessagesByVertex(scratch, meta.begin, meta.end, messages,
                                     grouped);

      // Frontier gating skips only the Combine *call* for silent vertices
      // (legal by the app's kSkipSilentVertices contract); the simulated
      // cost model still walks and prices every vertex state, so accounted
      // costs are independent of the gate.
      bool gate = false;
      if constexpr (SilentVertexSkippableApp<App>) {
        gate = config_.frontier_gating;
      }
      double new_state_bytes = 0.0;
      double skipped_state_bytes = 0.0;
      uint64_t skipped_vertices = 0;
      std::vector<Message> vertex_messages;
      for (VertexId v = meta.begin; v < meta.end; ++v) {
        const size_t i = static_cast<size_t>(v - meta.begin);
        if (gate && !scratch.Received(i)) {
          ++skipped_vertices;
        } else {
          vertex_messages.clear();
          for (size_t j = scratch.RunBegin(i), end = scratch.RunEnd(i);
               j < end; ++j) {
            vertex_messages.push_back(std::move(grouped[j]));
          }
          app_.Combine(v, states_[v], g.OutNeighbors(v), vertex_messages);
        }
        const double state_bytes =
            static_cast<double>(app_.StateBytes(states_[v]));
        new_state_bytes += state_bytes;
        if (CascadeSkips(v, iteration)) {
          skipped_state_bytes += state_bytes;
        }
      }
      skipped_per_partition[p] = skipped_vertices;
      combine_pool_.Release(std::move(scratch));

      // Virtual vertices owned by this partition: rank-and-scatter regroup
      // (only the distinct IDs are sorted, not all records).
      double virtual_output_bytes = 0.0;
      if constexpr (VirtualVertexApp<App>) {
        auto& vmsgs = virtual_inbox[p];
        runtime::VirtualGroupScratch vgroups;
        std::vector<Message> vgrouped;
        runtime::GroupVirtualMessages(vgroups, vmsgs, vgrouped);
        std::vector<Message> group;
        for (size_t i = 0; i < vgroups.ids.size(); ++i) {
          const uint64_t id = vgroups.ids[i];
          group.clear();
          for (size_t j = vgroups.offsets[i]; j < vgroups.offsets[i + 1];
               ++j) {
            group.push_back(std::move(vgrouped[j]));
          }
          virtual_results[p].emplace_back(id, app_.CombineVirtual(id, group));
          virtual_output_bytes +=
              static_cast<double>(internal::kVirtualOutputBytes);
        }
      }

      SimTask& task = combine_tasks[p];
      task.kind = SimTaskKind::kCombine;
      task.partition = p;
      for (MachineId m : placement_->replicas[p]) {
        if (m != kInvalidMachine) {
          task.candidate_machines.push_back(m);
        }
      }
      TaskCost& cost = task.cost;
      const double incoming = incoming_remote_bytes[p];
      const double local_bytes = local_materialized_bytes[p];
      cost.network_in_bytes = incoming;  // pulled from remote transfers
      cost.disk_read_bytes = local_bytes + incoming;
      // Receive spill + the updated states (cascade skips intermediate
      // state round-trips for qualifying vertices).
      cost.disk_write_bytes =
          incoming + (new_state_bytes - skipped_state_bytes) +
          virtual_output_bytes;
      cost.cpu_bytes = incoming + local_bytes + new_state_bytes;
      task.recovery_refetch_bytes = incoming;
      if (config_.memory_limit_bytes > 0) {
        const double working_set = incoming + local_bytes + new_state_bytes;
        cost.random_io =
            working_set > static_cast<double>(config_.memory_limit_bytes);
      }
    });

    combine_span.reset();

    for (uint64_t skipped : skipped_per_partition) {
      counters_.frontier_vertices_skipped += skipped;
    }

    // Merge virtual outputs deterministically.
    if constexpr (VirtualVertexApp<App>) {
      for (auto& per_partition : virtual_results) {
        for (auto& [id, output] : per_partition) {
          virtual_outputs_[id] = std::move(output);
        }
      }
    }

    SURFER_RETURN_IF_ERROR(
        sim->RunStage("combine[" + std::to_string(iteration) + "]",
                      std::move(combine_tasks))
            .status());
    return Status::OK();
  }

  /// Publishes the run's message-routing counters to the configured
  /// registry (no-op without one). Counters accumulate across runs; the
  /// per-run values stay available via counters().
  void PublishCounters() {
    obs::MetricsRegistry* metrics = config_.metrics;
    if (metrics == nullptr) {
      return;
    }
    metrics->CounterRef("propagation_runs_total").Increment();
    metrics->CounterRef("propagation_iterations_total")
        .Increment(static_cast<uint64_t>(config_.iterations));
    metrics->CounterRef("propagation_messages_emitted")
        .Increment(counters_.messages_emitted);
    metrics->CounterRef("propagation_messages_locally_propagated")
        .Increment(counters_.messages_locally_propagated);
    metrics->CounterRef("propagation_messages_locally_combined")
        .Increment(counters_.messages_locally_combined);
    metrics->CounterRef("propagation_messages_materialized")
        .Increment(counters_.messages_materialized);
    metrics->CounterRef("propagation_messages_network")
        .Increment(counters_.messages_network);
    metrics->CounterRef("propagation_frontier_vertices_skipped")
        .Increment(counters_.frontier_vertices_skipped);
  }

  const PartitionedGraph* graph_;
  const ReplicatedPlacement* placement_;
  const Topology* topology_;
  App app_;
  PropagationConfig config_;

  std::vector<VertexState> states_;
  std::map<uint64_t, VirtualOutput> virtual_outputs_;
  CascadeInfo cascade_;
  PropagationCounters counters_;
  /// Regroup scratch freelist shared by the ParallelFor combine tasks
  /// (thread-safe; keeps counting-scatter storage warm across iterations).
  runtime::CombineScratchPool combine_pool_;
  std::vector<double> link_network_bytes_;
};

}  // namespace surfer

#endif  // SURFER_PROPAGATION_RUNNER_H_

#ifndef SURFER_RUNTIME_EXECUTOR_H_
#define SURFER_RUNTIME_EXECUTOR_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/topology.h"
#include "common/logging.h"
#include "common/result.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "obs/trace_shard.h"
#include "propagation/app_traits.h"
#include "propagation/config.h"
#include "propagation/engine_inputs.h"
#include "runtime/barrier.h"
#include "runtime/channel.h"
#include "runtime/channel_plan.h"
#include "runtime/fault.h"
#include "runtime/partition_kernel.h"
#include "runtime/report.h"
#include "runtime/stats.h"
#include "runtime/timeline.h"
#include "runtime/wire_batch.h"
#include "storage/partitioned_graph.h"
#include "storage/replication.h"

namespace surfer {
namespace runtime {

/// Knobs of the concurrent runtime. Observability hooks come from the
/// PropagationConfig so runner and runtime share one configuration surface.
struct RuntimeOptions {
  /// Default admission window; named so EngineOptions::Validate can tell
  /// "left at default" apart from "deliberately configured".
  static constexpr size_t kDefaultChannelWindowBytes = 256 << 10;

  /// Worker threads; 0 means one per simulated machine. With fewer workers
  /// than machines, machine m is owned by worker (m % num_workers).
  uint32_t max_workers = 0;
  /// Bytes-in-flight granted to the widest topology link's channel; narrower
  /// links are scaled down proportionally (see PlanChannelCapacities), so
  /// cross-pod links backpressure sooner at equal traffic. Channels weigh
  /// each WireBatch by its wire size; a batch larger than the whole window
  /// is still admitted once the queue is empty (progress guarantee), so a
  /// tiny window maximizes backpressure without deadlocking.
  size_t channel_window_bytes = kDefaultChannelWindowBytes;
  /// Flight-recorder sampling of runtime gauges (channel occupancy, pool
  /// pressure, barrier membership, RSS): off by default. The instrumented
  /// hot paths only ever update relaxed atomics — one store per batch-level
  /// event, never per message — whether or not the sampler runs; enabling
  /// telemetry only starts the background sampling thread.
  obs::TelemetryOptions telemetry;
  /// Machines to kill mid-stage (Appendix-B recovery drills).
  std::vector<RuntimeFaultPlan> faults;
};

/// Concurrent BSP executor for propagation apps: the wall-clock counterpart
/// of the analytic PropagationRunner.
///
/// One worker thread per simulated machine runs that machine's Transfer and
/// Combine tasks through the shared PartitionKernel, which performs local
/// combination as it routes each emission. Messages travel as serialized
/// WireBatches: each machine's WireStager packs its outbound (src partition
/// -> dst partition) streams into pooled per-destination-machine byte
/// buffers and ships them through bounded channels whose byte capacities
/// mirror the topology's bandwidth matrix; a barrier separates the BSP
/// supersteps. The executor's contract, asserted by tests/runtime_test.cc,
/// is *bit-identical* results to the sequential runner at every
/// optimization level:
///   - each Combine sees its messages in the exact sequential order (the
///     ordering argument is PartitionKernel's; channels are FIFO);
///   - the kernel merges a task's complete per-stream records before the
///     stager prices or serializes any of them, so a merged stream carries
///     at most one message per target per source and chunking never
///     changes the priced byte count;
///   - cascaded propagation and memory limits change the *accounted* cost
///     only, so the runtime ignores them without affecting results.
///
/// Its kernel policies: Combine updates states_ in place, sealed batches go
/// to SendBatch, and refetches are priced against the placement's primary.
///
/// Fault injection follows Appendix B at task granularity: a machine killed
/// mid-stage keeps the buffers of tasks it completed (its disk replicas
/// survive), while its unfinished tasks are re-assigned to the next alive
/// replica holder on the following round; re-executed Combine tasks
/// re-fetch their remote inputs (counted in RuntimeStats::refetch_bytes).
/// Dead machines' worker threads stay up purely to drain their inbound
/// channels, so senders never deadlock against a corpse.
template <typename App>
  requires PropagationApp<App> && WireSerializableApp<App>
class RuntimeExecutor {
 public:
  using VertexState = typename App::VertexState;
  using Message = typename App::Message;
  using VirtualOutput = typename internal::VirtualOutputOf<App>::type;

  RuntimeExecutor(const PartitionedGraph* graph,
                  const ReplicatedPlacement* placement,
                  const Topology* topology, App app, PropagationConfig config,
                  RuntimeOptions options = {})
      : graph_(graph),
        placement_(placement),
        topology_(topology),
        app_(std::move(app)),
        config_(config),
        options_(options),
        fault_(options.faults) {}

  /// Executes config.iterations supersteps. Fails when every replica of a
  /// partition is dead (the job is unrecoverable, as in Appendix B).
  Status Run() {
    SURFER_RETURN_IF_ERROR(
        ValidateEngineInputs(graph_, placement_, topology_, config_));
    const auto wall_start = std::chrono::steady_clock::now();
    run_start_ = wall_start;
    // Tracer time at the run's start instant: the offset that maps the
    // flight recorder's run-relative timestamps onto the tracer's origin
    // when counter events merge into the Chrome trace.
    const double wall_start_tracer_us =
        config_.tracer != nullptr ? config_.tracer->WallNowUs() : 0.0;
    states_ = InitialStates(app_, *graph_);
    virtual_outputs_.clear();
    stats_ = RuntimeStats{};

    const uint32_t num_machines = topology_->num_machines();
    const uint32_t num_workers =
        options_.max_workers == 0
            ? num_machines
            : std::min(options_.max_workers, num_machines);
    num_machines_ = num_machines;
    num_workers_ = num_workers;

    owned_machines_.assign(num_workers, {});
    for (MachineId m = 0; m < num_machines; ++m) {
      owned_machines_[m % num_workers].push_back(m);
    }
    const size_t num_channels = static_cast<size_t>(num_machines) * num_machines;
    const std::vector<size_t> capacities =
        PlanChannelCapacities(*topology_, options_.channel_window_bytes);
    channels_.clear();
    channels_.reserve(num_channels);
    for (size_t i = 0; i < num_channels; ++i) {
      channels_.push_back(
          std::make_unique<BoundedChannel<WireBatch>>(capacities[i]));
    }
    // One stager per machine, touched only by the machine's owner worker.
    pool_ = std::make_unique<WireBufferPool>();
    stagers_.clear();
    stagers_.reserve(num_machines);
    for (MachineId m = 0; m < num_machines; ++m) {
      stagers_.emplace_back(&app_, WireBatchOptions{}, pool_.get(), m,
                            num_machines);
    }

    const uint32_t num_partitions = graph_->num_partitions();
    kernel_ = std::make_unique<PartitionKernel<App>>(
        app_, *graph_, config_.frontier_gating, config_.local_combination,
        num_workers);
    done_.assign(num_partitions, 0);
    alive_.assign(num_machines, 1);
    stage_tasks_done_.assign(num_machines, 0);
    locals_.assign(num_workers + 1, WorkerLocal{});
    for (WorkerLocal& local : locals_) {
      local.link_bytes.assign(num_channels, 0);
    }
    drain_phase_.assign(num_workers, DrainPhase{});
    barrier_ = std::make_unique<BspBarrier>(num_workers + 1);
    // Workers spin-then-park only when each has a hardware thread of its
    // own; the main thread always parks, leaving the CPUs to the workers.
    workers_spin_ = BspBarrier::SpinFits(num_workers);
    phase_ = Phase{};

    // Telemetry mirrors live whether or not the sampler runs: each is one
    // relaxed atomic touched at batch granularity, so keeping them
    // unconditional avoids a branch on the same paths.
    staged_wire_bytes_ =
        std::make_unique<std::atomic<uint64_t>[]>(num_machines);
    for (MachineId m = 0; m < num_machines; ++m) {
      staged_wire_bytes_[m].store(0, std::memory_order_relaxed);
    }
    worker_state_ = std::make_unique<std::atomic<uint32_t>[]>(num_workers);
    for (uint32_t w = 0; w < num_workers; ++w) {
      worker_state_[w].store(0, std::memory_order_relaxed);
    }
    step_bounds_.assign(static_cast<size_t>(config_.iterations) * 2,
                        {0.0, 0.0});
    telemetry_ = std::make_unique<obs::TelemetryRecorder>(options_.telemetry);
    if (options_.telemetry.enabled) {
      RegisterTelemetryGauges();
    }

    // Superstep timeline: one slot per (stage, machine). Slot [step][m] is
    // written only by m's owner worker, so the matrix needs no locking; the
    // main thread reads it after the join.
    step_phases_.assign(static_cast<size_t>(config_.iterations) * 2,
                        std::vector<PhaseSeconds>(num_machines));
    handoff_s_.assign(static_cast<size_t>(config_.iterations) * 2,
                      std::vector<double>(num_workers, 0.0));
    sharded_.reset();
    if (config_.tracer != nullptr && obs::Tracer::CompiledIn()) {
      sharded_ = std::make_unique<obs::ShardedTracer>(
          config_.tracer, num_workers,
          obs::ShardedTracer::kDefaultShardCapacity);
      transfer_name_id_ =
          sharded_->InternName("rt_task_transfer", "runtime", "partition");
      combine_name_id_ =
          sharded_->InternName("rt_task_combine", "runtime", "partition");
    }

    telemetry_->Start(wall_start);

    std::vector<std::thread> workers;
    workers.reserve(num_workers);
    for (uint32_t w = 0; w < num_workers; ++w) {
      workers.emplace_back([this, w] { WorkerMain(w); });
    }

    Status status = Status::OK();
    for (int iteration = 0; iteration < config_.iterations; ++iteration) {
      if constexpr (IterationAwareApp<App>) {
        app_.OnIterationStart(iteration);
      }
      status = RunStage(PhaseKind::kTransfer, iteration);
      if (!status.ok()) {
        break;
      }
      status = RunStage(PhaseKind::kCombine, iteration);
      if (!status.ok()) {
        break;
      }
      // Flush point: workers are past their last task of the iteration
      // (finishing their final drain or parked at the next start barrier),
      // so their shards only grow while we drain (SPSC-safe either way).
      // One flush per iteration keeps ring occupancy bounded without
      // touching the global tracer mutex from the hot path.
      if (sharded_ != nullptr) {
        sharded_->Flush();
      }
      // Fold this iteration's virtual-vertex outputs in partition order,
      // exactly as the sequential runner does at the end of RunIteration.
      if constexpr (VirtualVertexApp<App>) {
        for (PartitionId p = 0; p < num_partitions; ++p) {
          for (auto& [id, output] : kernel_->virtual_results(p)) {
            virtual_outputs_[id] = std::move(output);
          }
        }
      }
    }

    // Publish the shutdown phase whether or not the run succeeded; workers
    // read phase_ only after the start barrier releases them.
    phase_.kind = PhaseKind::kShutdown;
    MainBarrier();
    for (std::thread& t : workers) {
      t.join();
    }
    if (sharded_ != nullptr) {
      sharded_->Flush();
    }
    // The sampler must stop before stats finalization tears anything down:
    // its providers read the channels, pool, and barrier it outlives here.
    telemetry_->Stop();
    if (config_.tracer != nullptr) {
      telemetry_->ExportCounterEvents(config_.tracer, wall_start_tracer_us);
    }
    stats_.wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count();
    FinalizeStats();
    return status;
  }

  const std::vector<VertexState>& states() const { return states_; }

  /// State of a vertex addressed by its *original* (pre-encoding) ID.
  const VertexState& StateOfOriginal(VertexId original) const {
    return states_[graph_->encoding().ToEncoded(original)];
  }

  const std::map<uint64_t, VirtualOutput>& virtual_outputs() const {
    return virtual_outputs_;
  }

  const RuntimeStats& stats() const { return stats_; }

  /// The run's flight recorder (null before the first Run call; inert when
  /// RuntimeOptions::telemetry is off). Valid until the next Run call.
  const obs::TelemetryRecorder* telemetry() const { return telemetry_.get(); }

  /// Machine liveness after the run (all ones without injected faults).
  const std::vector<uint8_t>& alive() const { return alive_; }

 private:
  enum class PhaseKind : uint8_t { kIdle, kTransfer, kCombine, kShutdown };

  /// One stage round published by the main thread before the start barrier;
  /// workers read it (immutably) after the barrier releases them.
  struct Phase {
    PhaseKind kind = PhaseKind::kIdle;
    int iteration = 0;
    bool recovery = false;
    /// tasks[m]: partitions machine m executes this round, ascending.
    std::vector<std::vector<PartitionId>> tasks;
  };

  /// The stage a worker is currently draining for; written by the worker
  /// after the start barrier and read only by that worker inside Drain, so
  /// deserialization time lands in the right superstep slot.
  struct DrainPhase {
    int iteration = 0;
    PhaseKind kind = PhaseKind::kTransfer;
  };

  /// Per-thread tallies, merged into RuntimeStats after the join.
  struct WorkerLocal : RuntimeCounters {
    Histogram barrier_wait;
    std::vector<uint64_t> link_bytes;
  };

  double MainBarrier() { return barrier_->ArriveAndWait(); }

  static double Seconds(std::chrono::steady_clock::duration d) {
    return std::chrono::duration<double>(d).count();
  }

  /// Superstep index in execution order: two stages per BSP iteration.
  static size_t StepIndex(int iteration, PhaseKind kind) {
    return static_cast<size_t>(iteration) * 2 +
           (kind == PhaseKind::kCombine ? 1 : 0);
  }

  PhaseSeconds& PhaseSlot(int iteration, PhaseKind kind, MachineId m) {
    return step_phases_[StepIndex(iteration, kind)][m];
  }

  /// Books a worker's barrier idle time against its owned machines, split
  /// evenly: with workers == machines the attribution is exact; with fewer
  /// workers each hosted machine shares its worker's idle time.
  void AttributeBarrierWait(int iteration, PhaseKind kind, uint32_t w,
                            double seconds) {
    const std::vector<MachineId>& owned = owned_machines_[w];
    if (owned.empty() || seconds <= 0.0) {
      return;
    }
    const double share = seconds / static_cast<double>(owned.size());
    for (MachineId m : owned) {
      PhaseSlot(iteration, kind, m).barrier_s += share;
    }
  }

  /// Attaches the runtime's gauge providers to the flight recorder. Every
  /// provider reads only relaxed atomics (the mirrors maintained next to
  /// the mutex-protected structures), so sampling never contends with the
  /// run. Per-entity series are registered up to a small fan-out cap and
  /// fall back to aggregates beyond it — M^2 channel series at large M
  /// would dominate the recorder's own memory; all-zero series are elided
  /// at export either way.
  void RegisterTelemetryGauges() {
    constexpr uint32_t kPerEntityCap = 8;
    const std::vector<size_t> capacities =
        PlanChannelCapacities(*topology_, options_.channel_window_bytes);
    double total_capacity = 0.0;
    for (size_t c : capacities) {
      total_capacity += static_cast<double>(c);
    }
    if (num_machines_ <= kPerEntityCap) {
      for (MachineId s = 0; s < num_machines_; ++s) {
        for (MachineId d = 0; d < num_machines_; ++d) {
          const size_t i = static_cast<size_t>(s) * num_machines_ + d;
          BoundedChannel<WireBatch>* ch = channels_[i].get();
          telemetry_->RegisterGauge(
              "rt_channel_bytes_in_flight.m" + std::to_string(s) + ".m" +
                  std::to_string(d),
              "bytes",
              [ch] { return static_cast<double>(ch->ApproxQueuedWeight()); },
              static_cast<double>(capacities[i]));
        }
      }
    }
    telemetry_->RegisterGauge(
        "rt_channel_bytes_in_flight.total", "bytes",
        [this] {
          double total = 0.0;
          for (const auto& ch : channels_) {
            total += static_cast<double>(ch->ApproxQueuedWeight());
          }
          return total;
        },
        total_capacity);
    telemetry_->RegisterGauge("rt_channel_queued_batches.total", "batches",
                              [this] {
                                double total = 0.0;
                                for (const auto& ch : channels_) {
                                  total += static_cast<double>(
                                      ch->ApproxDepth());
                                }
                                return total;
                              });
    if (num_machines_ <= kPerEntityCap) {
      for (MachineId m = 0; m < num_machines_; ++m) {
        std::atomic<uint64_t>* staged = &staged_wire_bytes_[m];
        telemetry_->RegisterGauge(
            "rt_staged_wire_bytes.m" + std::to_string(m), "bytes", [staged] {
              return static_cast<double>(
                  staged->load(std::memory_order_relaxed));
            });
      }
    }
    telemetry_->RegisterGauge("rt_staged_wire_bytes.total", "bytes", [this] {
      double total = 0.0;
      for (MachineId m = 0; m < num_machines_; ++m) {
        total += static_cast<double>(
            staged_wire_bytes_[m].load(std::memory_order_relaxed));
      }
      return total;
    });
    WireBufferPool* pool = pool_.get();
    telemetry_->RegisterGauge("rt_pool_free_buffers", "buffers", [pool] {
      return static_cast<double>(pool->ApproxFreeBuffers());
    });
    telemetry_->RegisterGauge(
        "rt_pool_outstanding_buffers", "buffers", [pool] {
          return static_cast<double>(pool->ApproxOutstandingBuffers());
        });
    if (num_machines_ <= kPerEntityCap) {
      for (MachineId m = 0; m < num_machines_; ++m) {
        telemetry_->RegisterGauge(
            "rt_inbox_chunks.m" + std::to_string(m), "chunks", [this, m] {
              double total = 0.0;
              for (PartitionId p = 0; p < placement_->num_partitions(); ++p) {
                if (placement_->primary(p) == m) {
                  total += static_cast<double>(kernel_->ApproxInboxChunks(p));
                }
              }
              return total;
            });
      }
    }
    telemetry_->RegisterGauge("rt_inbox_chunks.total", "chunks", [this] {
      double total = 0.0;
      const uint32_t num_partitions = graph_->num_partitions();
      for (PartitionId p = 0; p < num_partitions; ++p) {
        total += static_cast<double>(kernel_->ApproxInboxChunks(p));
      }
      return total;
    });
    if (num_workers_ <= kPerEntityCap) {
      for (uint32_t w = 0; w < num_workers_; ++w) {
        std::atomic<uint32_t>* state = &worker_state_[w];
        telemetry_->RegisterGauge(
            "rt_worker_state.w" + std::to_string(w), "phase", [state] {
              return static_cast<double>(
                  state->load(std::memory_order_relaxed));
            });
      }
    }
    telemetry_->RegisterGauge(
        "rt_workers_busy", "workers",
        [this] {
          double busy = 0.0;
          for (uint32_t w = 0; w < num_workers_; ++w) {
            if (worker_state_[w].load(std::memory_order_relaxed) != 0) {
              busy += 1.0;
            }
          }
          return busy;
        },
        static_cast<double>(num_workers_));
    BspBarrier* barrier = barrier_.get();
    telemetry_->RegisterGauge(
        "rt_barrier_waiting", "threads",
        [barrier] { return static_cast<double>(barrier->ApproxWaiting()); },
        static_cast<double>(num_workers_ + 1));
    // The /proc probe costs a file read; subsampled so the base tick stays
    // cheap (see telemetry_sample microbenchmark). Not registered at all
    // when the probe is unavailable — an all-zero series would read as a
    // measurement.
    if (obs::ReadMemoryUsage().available) {
      telemetry_->RegisterGauge(
          "proc_rss_bytes", "bytes",
          [] { return static_cast<double>(obs::ReadMemoryUsage().rss_bytes); },
          /*ceiling=*/0.0, /*period_multiple=*/16);
    }
  }

  static RuntimeStage StageOf(PhaseKind kind) {
    return kind == PhaseKind::kTransfer ? RuntimeStage::kTransfer
                                        : RuntimeStage::kCombine;
  }

  static const char* StageName(PhaseKind kind) {
    return kind == PhaseKind::kTransfer ? "transfer" : "combine";
  }

  /// Drives one BSP stage to completion, re-assigning the tasks of machines
  /// that die mid-round to their next alive replica holder until every
  /// partition's task has run. Each extra round implies a fresh machine
  /// death, so the loop terminates within num_machines rounds.
  Status RunStage(PhaseKind kind, int iteration) {
    obs::ScopedSpan stage_span(
        config_.tracer,
        std::string("rt_") + StageName(kind) + "[" +
            std::to_string(iteration) + "]",
        "runtime");
    const uint32_t num_partitions = graph_->num_partitions();
    std::fill(done_.begin(), done_.end(), uint8_t{0});
    std::fill(stage_tasks_done_.begin(), stage_tasks_done_.end(), 0u);
    // Stage bounds relative to the run's start: the same clock and origin
    // the flight recorder samples against, so telemetry windows correlate
    // with supersteps by plain timestamp comparison.
    const size_t step = StepIndex(iteration, kind);
    step_bounds_[step].first =
        Seconds(std::chrono::steady_clock::now() - run_start_);
    bool recovery = false;
    for (;;) {
      // Assign every pending partition to its first alive replica holder
      // (Appendix B's recovery rule; round one degenerates to the primary).
      Phase phase;
      phase.kind = kind;
      phase.iteration = iteration;
      phase.recovery = recovery;
      phase.tasks.assign(num_machines_, {});
      uint32_t pending = 0;
      for (PartitionId p = 0; p < num_partitions; ++p) {
        if (done_[p]) {
          continue;
        }
        const MachineId m = placement_->FirstAliveReplica(p, alive_);
        if (m == kInvalidMachine) {
          // Workers are at (or draining on their way to) the start
          // barrier; Run publishes the shutdown phase and joins them
          // before surfacing this error.
          return Status::Internal(
              "all replicas of partition " + std::to_string(p) +
              " are dead; " + StageName(kind) + " stage cannot recover");
        }
        phase.tasks[m].push_back(p);
        ++pending;
      }
      if (pending == 0) {
        step_bounds_[step].second =
            Seconds(std::chrono::steady_clock::now() - run_start_);
        return Status::OK();
      }
      // Two generations per round: each worker's final drain precedes its
      // next start-barrier arrival, so that barrier orders the drain before
      // any consumer of the inboxes.
      phase_ = std::move(phase);
      locals_[num_workers_].barrier_wait_seconds += MainBarrier();  // start
      locals_[num_workers_].barrier_wait_seconds += MainBarrier();  // work done
      recovery = true;
    }
  }

  // --------------------------------------------------------- worker side

  void WorkerMain(uint32_t w) {
    WorkerLocal& local = locals_[w];
    for (;;) {
      const double start_wait =
          barrier_->ArriveAndWait({}, workers_spin_);  // start barrier
      // Hand-off lag: from the generation's flip to this worker running.
      const double handoff = Seconds(std::chrono::steady_clock::now() -
                                     barrier_->last_release());
      RecordBarrierWait(local, start_wait);
      if (phase_.kind == PhaseKind::kShutdown) {
        return;
      }
      const Phase& phase = phase_;
      // Copied out because phase_ is only stable until the work-done
      // barrier releases the main thread to publish the next phase.
      const int iteration = phase.iteration;
      const PhaseKind kind = phase.kind;
      drain_phase_[w] = DrainPhase{iteration, kind};
      handoff_s_[StepIndex(iteration, kind)][w] += handoff;
      // Run-state gauge: the stage being worked (PhaseKind value), 0 while
      // parked at a barrier. One relaxed store per stage round.
      worker_state_[w].store(static_cast<uint32_t>(kind),
                             std::memory_order_relaxed);
      for (MachineId m : owned_machines_[w]) {
        if (!alive_[m]) {
          continue;
        }
        for (PartitionId p : phase.tasks[m]) {
          if (fault_.ShouldKill(m, iteration, StageOf(kind),
                                stage_tasks_done_[m])) {
            KillMachine(m, iteration, kind, w, local);
            break;
          }
          if (kind == PhaseKind::kTransfer) {
            RunTransferTask(p, m, iteration, w, local);
          } else {
            RunCombineTask(p, m, iteration, w, local);
          }
          done_[p] = 1;
          ++stage_tasks_done_[m];
          ++local.tasks_executed;
          if (phase.recovery) {
            ++local.tasks_reexecuted;
          }
          Drain(w);  // keep inbound channels moving between tasks
        }
        if (kind == PhaseKind::kTransfer && alive_[m]) {
          // Stage-end flush: every batch must be on the wire before the
          // work-done barrier (the runtime's send-completeness contract).
          PhaseSlot(iteration, kind, m).blocked_s +=
              stagers_[m].FlushAll(SendSink(w, local));
        }
      }
      worker_state_[w].store(0, std::memory_order_relaxed);
      const double work_wait =
          barrier_->ArriveAndWait([this, w] { Drain(w); }, workers_spin_);
      RecordBarrierWait(local, work_wait);
      // All sends of this stage were accepted before the work-done barrier
      // released, so one final sweep leaves every owned channel empty. It
      // precedes this worker's next start-barrier arrival, which is what
      // orders it before the next stage consumes the inboxes.
      Drain(w);
      AttributeBarrierWait(iteration, kind, w, start_wait + work_wait);
    }
  }

  void RecordBarrierWait(WorkerLocal& local, double seconds) {
    local.barrier_wait_seconds += seconds;
    local.barrier_wait.Add(seconds);
  }

  void KillMachine(MachineId m, int iteration, PhaseKind kind, uint32_t w,
                   WorkerLocal& local) {
    // Batches staged by this machine's *completed* tasks still ship: a
    // completed task's output survives the crash (its disk replicas do,
    // Appendix B), so the wire plane must not lose it. Flush before marking
    // the machine dead.
    if (kind == PhaseKind::kTransfer) {
      PhaseSlot(iteration, kind, m).blocked_s +=
          stagers_[m].FlushAll(SendSink(w, local));
    }
    alive_[m] = 0;
    ++local.machine_failures;
    if (config_.tracer != nullptr) {
      config_.tracer->RecordInstant(
          obs::TraceClock::kWall, "rt_machine_failed", "runtime",
          config_.tracer->WallNowUs(), obs::Tracer::CurrentThreadLane(),
          {{"machine", std::to_string(m)}});
    }
  }

  /// Moves every batch waiting in worker w's inbound channels into the
  /// per-partition inboxes (deserializing segments into chunks). Only w ever
  /// consumes these channels (and only w writes inboxes of partitions whose
  /// primary it owns), so no lock is needed beyond the channels' own.
  void Drain(uint32_t w) {
    for (MachineId d : owned_machines_[w]) {
      for (MachineId s = 0; s < num_machines_; ++s) {
        BoundedChannel<WireBatch>& ch =
            *channels_[static_cast<size_t>(s) * num_machines_ + d];
        while (std::optional<WireBatch> batch = ch.TryRecv()) {
          ReceiveBatch(std::move(*batch), d, w);
        }
      }
    }
  }

  /// Unpacks a received batch into the kernel's inboxes and recycles its
  /// payload. Deserialization cost is booked as serialize time of the
  /// *receiving* machine in the current stage's slot (single-writer
  /// discipline holds: d's owner worker is the one draining).
  void ReceiveBatch(WireBatch batch, MachineId d, uint32_t w) {
    const auto unpack_start = std::chrono::steady_clock::now();
    const double wire_bytes = static_cast<double>(batch.wire_size());
    // Every batch comes from this run's own stagers: a decode error is a bug.
    SURFER_CHECK_OK(kernel_->Receive(w, batch));
    pool_->Release(std::move(batch.payload));
    const DrainPhase phase = drain_phase_[w];
    PhaseSeconds& slot = PhaseSlot(phase.iteration, phase.kind, d);
    slot.serialize_s +=
        Seconds(std::chrono::steady_clock::now() - unpack_start);
    slot.wire_bytes += wire_bytes;
  }

  /// Books a sealed batch against its link and moves it into the channel.
  /// Returns the seconds the send spent blocked on channel backpressure
  /// (0 when the first TrySend lands), which flows back through the stager
  /// into the superstep timeline's blocked phase.
  double SendBatch(WireBatch&& batch, uint32_t w, WorkerLocal& local) {
    local.link_bytes[static_cast<size_t>(batch.src_machine) * num_machines_ +
                     batch.dst_machine] += batch.priced_bytes;
    local.messages_sent += batch.num_messages;
    ++local.buffers_sent;
    staged_wire_bytes_[batch.src_machine].fetch_add(
        batch.wire_size(), std::memory_order_relaxed);
    BoundedChannel<WireBatch>& ch =
        *channels_[static_cast<size_t>(batch.src_machine) * num_machines_ +
                   batch.dst_machine];
    const size_t weight = batch.wire_size() > 0 ? batch.wire_size() : 1;
    if (ch.TrySend(batch, weight)) {
      return 0.0;
    }
    // Backpressure loop: while the link is saturated, keep draining our own
    // inbound channels so the system as a whole cannot wedge. Drain before
    // the timed wait: when the full channel is one this worker owns (always
    // true at one worker), draining it is what frees the window, and waiting
    // first would just burn the timeout. Retries pass is_retry so the stall
    // stats count this batch once in items_stalled however long it waits.
    const auto stall_start = std::chrono::steady_clock::now();
    do {
      Drain(w);
      if (ch.TrySendFor(batch, std::chrono::microseconds(200), weight,
                        /*is_retry=*/true)) {
        break;
      }
    } while (!ch.TrySend(batch, weight, /*is_retry=*/true));
    return Seconds(std::chrono::steady_clock::now() - stall_start);
  }

  /// Worker w's batch sink (the kernel's sink policy here): SendBatch
  /// booked against w's tallies.
  auto SendSink(uint32_t w, WorkerLocal& local) {
    return [this, w, &local](WireBatch&& batch) {
      return SendBatch(std::move(batch), w, local);
    };
  }

  /// Runs the Transfer task of partition p on `exec_machine`. The kernel
  /// routes and merges emissions into per-destination streams (replaying
  /// the sequential runner's merge sequence, keeping results bit-identical);
  /// pricing and serialization happen in the machine's WireStager.
  void RunTransferTask(PartitionId p, MachineId exec_machine, int iteration,
                       uint32_t w, WorkerLocal& local) {
    // Hot path: per-task events go through this worker's lock-free shard
    // (flushed into the tracer between supersteps), never the tracer mutex.
    const double task_start_us =
        sharded_ != nullptr ? config_.tracer->WallNowUs() : 0.0;
    WireStager<App>& stager = stagers_[exec_machine];
    double blocked_s = 0.0;
    const auto tally = kernel_->Transfer(
        w, p, states_, [&](PartitionId dst, auto& real, auto& virtuals) {
          blocked_s += stager.StageTask(p, dst, placement_->primary(dst), real,
                                        virtuals, SendSink(w, local));
        });
    local.wire_messages_combined += tally.combined;
    PhaseSeconds& slot = PhaseSlot(iteration, PhaseKind::kTransfer,
                                   exec_machine);
    slot.compute_s += tally.emit_s;
    slot.serialize_s += tally.sink_s - blocked_s;
    slot.blocked_s += blocked_s;
    if (sharded_ != nullptr) {
      sharded_->shard(w).Record(obs::ShardEvent{
          transfer_name_id_, exec_machine, task_start_us,
          config_.tracer->WallNowUs() - task_start_us, p});
    }
  }

  /// Runs the Combine task of partition p in place on states_. Inbox
  /// reconstruction (the chunk sort and scatter) is booked as serialize
  /// time, the Combine calls as compute.
  void RunCombineTask(PartitionId p, MachineId exec_machine, int iteration,
                      uint32_t w, WorkerLocal& local) {
    const double task_start_us =
        sharded_ != nullptr ? config_.tracer->WallNowUs() : 0.0;
    const auto tally = kernel_->Combine(w, p, exec_machine,
                                        placement_->primary(p), states_);
    local.refetch_bytes += tally.refetch_bytes;
    local.combine_scatter_seconds += tally.scatter_s;
    local.combine_messages_scattered += tally.scattered;
    local.frontier_vertices_skipped += tally.skipped;
    PhaseSeconds& slot = PhaseSlot(iteration, PhaseKind::kCombine,
                                   exec_machine);
    slot.serialize_s += tally.regroup_s;
    slot.compute_s += tally.compute_s;
    slot.scatter_messages += static_cast<double>(tally.scattered);
    slot.frontier_skipped += static_cast<double>(tally.skipped);
    if (sharded_ != nullptr) {
      sharded_->shard(w).Record(obs::ShardEvent{
          combine_name_id_, exec_machine, task_start_us,
          config_.tracer->WallNowUs() - task_start_us, p});
    }
  }

  // ------------------------------------------------------------- wrap-up

  void FinalizeStats() {
    stats_.num_workers = num_workers_;
    stats_.num_machines = num_machines_;
    stats_.iterations = config_.iterations;
    stats_.barrier_generations = barrier_->generation();
    const BspBarrier::WaitCounts waits = barrier_->wait_counts();
    stats_.barrier_waits_spun = waits.spun;
    stats_.barrier_waits_parked = waits.parked;
    stats_.link_bytes.assign(
        static_cast<size_t>(num_machines_) * num_machines_, 0);
    for (const WorkerLocal& local : locals_) {
      stats_ += local;
      stats_.barrier_wait.Merge(local.barrier_wait);
      stats_.AddLinkBytes(local.link_bytes);
    }
    // Mean/max over *workers only* (locals_[num_workers_] is the main
    // thread, whose waits overlap every worker's): the per-thread view that
    // stays comparable to wall_seconds where the overlapping sum does not.
    double wait_total = 0.0;
    for (uint32_t w = 0; w < num_workers_; ++w) {
      wait_total += locals_[w].barrier_wait_seconds;
      stats_.barrier_wait_max_s =
          std::max(stats_.barrier_wait_max_s, locals_[w].barrier_wait_seconds);
    }
    stats_.barrier_wait_mean_s =
        num_workers_ > 0 ? wait_total / num_workers_ : 0.0;
    stats_.channels.reserve(channels_.size());
    for (const auto& channel : channels_) {
      ChannelStats snapshot = channel->stats();
      stats_.send_stalls += snapshot.stall_attempts;
      stats_.items_stalled += snapshot.items_stalled;
      stats_.channel_depth.Merge(snapshot.depth_on_send);
      stats_.channels.push_back(std::move(snapshot));
    }
    ReadEndOfRunStats(stagers_, *pool_, *telemetry_, stats_);

    stats_.timeline.clear();
    stats_.timeline.reserve(step_phases_.size());
    for (size_t step = 0; step < step_phases_.size(); ++step) {
      SuperstepProfile profile;
      profile.iteration = static_cast<int>(step / 2);
      profile.stage = step % 2 == 0 ? RuntimeStage::kTransfer
                                    : RuntimeStage::kCombine;
      if (step < step_bounds_.size()) {
        profile.start_s = step_bounds_[step].first;
        profile.end_s = step_bounds_[step].second;
      }
      profile.machines = std::move(step_phases_[step]);
      for (double lag : handoff_s_[step]) {
        profile.handoff_s = std::max(profile.handoff_s, lag);
      }
      stats_.handoff_seconds += profile.handoff_s;
      stats_.timeline.push_back(std::move(profile));
    }
    step_phases_.clear();
    handoff_s_.clear();
    if (sharded_ != nullptr) {
      stats_.trace_events_dropped = sharded_->total_dropped();
    }
    ExportRuntimeStats(stats_, config_.metrics);
  }

  const PartitionedGraph* graph_;
  const ReplicatedPlacement* placement_;
  const Topology* topology_;
  App app_;
  PropagationConfig config_;
  RuntimeOptions options_;
  FaultController fault_;

  uint32_t num_machines_ = 0;
  uint32_t num_workers_ = 0;
  std::vector<std::vector<MachineId>> owned_machines_;
  std::vector<std::unique_ptr<BoundedChannel<WireBatch>>> channels_;
  std::unique_ptr<BspBarrier> barrier_;
  /// Whether workers spin before parking at the barrier (BspBarrier's host
  /// rule for num_workers_ spinners); the main thread never spins.
  bool workers_spin_ = false;
  /// Payload freelist shared by all stagers (thread-safe on its own).
  std::unique_ptr<WireBufferPool> pool_;
  /// stagers_[m]: machine m's wire stager, touched only by m's owner worker.
  std::vector<WireStager<App>> stagers_;

  // Shared state with single-writer-per-element or barrier-separated access
  // (the data-race-freedom discipline TSan verifies):
  //  - phase_: written by main before the start barrier, read by workers
  //    after it releases;
  //  - done_[p]: written by the one worker executing that partition this
  //    round, read by main (and any re-assigned worker) only across a
  //    barrier;
  //  - kernel_'s inbox and combine plan of partition p: written by the drain
  //    worker of p's primary machine during the transfer stage, consumed by
  //    p's combine executor across the stage barrier; p's virtual results:
  //    written by that executor, read by main across a barrier; kernel
  //    scratch of thread w: touched only by worker w;
  //  - alive_[m], stage_tasks_done_[m]: written solely by m's owner worker
  //    (reset by main between stages, across a barrier);
  //  - states_[v]: written by the Combine executor of v's partition, read
  //    by the next iteration's Transfer executor across two barriers.
  //  - drain_phase_[w]: written and read only by worker w.
  Phase phase_;
  std::vector<uint8_t> done_;
  std::vector<uint8_t> alive_;
  std::vector<uint32_t> stage_tasks_done_;
  std::unique_ptr<PartitionKernel<App>> kernel_;
  std::vector<VertexState> states_;
  std::vector<WorkerLocal> locals_;
  std::vector<DrainPhase> drain_phase_;

  //  - step_phases_[step][m]: written solely by m's owner worker during that
  //    superstep, read by main after the join.
  std::vector<std::vector<PhaseSeconds>> step_phases_;
  //  - handoff_s_[step][w]: worker w's start-barrier hand-off lag, summed
  //    over the step's rounds; written solely by w, read by main after the
  //    join.
  std::vector<std::vector<double>> handoff_s_;
  /// (start_s, end_s) of each superstep relative to run_start_, stamped by
  /// the main thread around the stage's barrier rounds.
  std::vector<std::pair<double, double>> step_bounds_;
  std::unique_ptr<obs::ShardedTracer> sharded_;  ///< null when tracing is off
  uint32_t transfer_name_id_ = 0;
  uint32_t combine_name_id_ = 0;

  // Flight-recorder plane. The atomic arrays are lock-free mirrors written
  // by the instrumented paths (relaxed, batch granularity) and read by the
  // sampler thread; the recorder itself stops before Run returns, so its
  // providers never outlive the structures they read.
  std::unique_ptr<obs::TelemetryRecorder> telemetry_;
  std::unique_ptr<std::atomic<uint64_t>[]> staged_wire_bytes_;  ///< per mach.
  std::unique_ptr<std::atomic<uint32_t>[]> worker_state_;  ///< PhaseKind or 0
  std::chrono::steady_clock::time_point run_start_;

  std::map<uint64_t, VirtualOutput> virtual_outputs_;
  RuntimeStats stats_;
};

}  // namespace runtime
}  // namespace surfer

#endif  // SURFER_RUNTIME_EXECUTOR_H_

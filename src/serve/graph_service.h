#ifndef SURFER_SERVE_GRAPH_SERVICE_H_
#define SURFER_SERVE_GRAPH_SERVICE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "apps/common.h"
#include "apps/network_ranking.h"
#include "common/histogram.h"
#include "common/result.h"
#include "core/engine.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "obs/trace_shard.h"
#include "runtime/barrier.h"
#include "runtime/channel.h"
#include "serve/frontier.h"
#include "serve/lru_cache.h"
#include "storage/partitioned_graph.h"

namespace surfer {
namespace serve {

/// Configuration of the long-lived serving plane (Engine::Serve).
struct ServeOptions {
  /// Worker threads draining the admission queue.
  uint32_t num_workers = 2;
  /// Spawn the workers inside Open. Tests set this to false and call
  /// Start() themselves so they can fill the admission window
  /// deterministically before anything drains.
  bool start_workers = true;
  /// Weight budget of the admission queue in cost-bytes (see
  /// EstimateCostBytes): queries that do not fit are shed immediately with
  /// kResourceExhausted — submission never blocks.
  size_t admission_window_bytes = 256 << 10;
  /// LRU entries per partition shard for k-hop / path results.
  size_t cache_capacity_per_partition = 1024;
  /// Batch NetworkRanking pass run at startup to precompute the per-vertex
  /// scores served by Rank queries.
  int rank_iterations = 3;
  double rank_damping = kDefaultDamping;
  /// Largest accepted k for k-hop queries (cost grows geometrically in k).
  uint32_t max_khop = 8;
  /// Deadline applied when a query does not carry its own: a worker that
  /// dequeues a query past its deadline sheds it with kResourceExhausted
  /// instead of doing stale work.
  std::chrono::milliseconds default_deadline{250};
  /// Optional serve_* metrics export: counters as queries run, and the
  /// serve_latency_us histogram once Stop() has joined the workers.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional per-query spans ("serve" category). Workers record them into
  /// bounded per-worker shards, which Stop flushes here.
  obs::Tracer* tracer = nullptr;

  Status Validate() const {
    if (num_workers == 0) {
      return Status::InvalidArgument("ServeOptions.num_workers must be > 0");
    }
    if (admission_window_bytes == 0) {
      return Status::InvalidArgument(
          "ServeOptions.admission_window_bytes must be > 0");
    }
    if (rank_iterations < 0) {
      return Status::InvalidArgument(
          "ServeOptions.rank_iterations must be >= 0");
    }
    if (rank_damping <= 0.0 || rank_damping >= 1.0) {
      return Status::InvalidArgument(
          "ServeOptions.rank_damping must be in (0, 1)");
    }
    if (max_khop == 0) {
      return Status::InvalidArgument("ServeOptions.max_khop must be > 0");
    }
    return Status::OK();
  }
};

/// Per-query overrides.
struct QueryOptions {
  /// Replaces ServeOptions.default_deadline for this query.
  std::optional<std::chrono::milliseconds> deadline;
  /// Skip the result cache (reads and writes) — the cache-correctness tests
  /// compare cached against bypassed results bit for bit.
  bool bypass_cache = false;
};

/// K-hop neighborhood answer: all vertices within k hops of the origin over
/// out-edges, as sorted *original* IDs (origin included).
struct KHopResponse {
  std::vector<VertexId> vertices;
  uint32_t k = 0;
  bool from_cache = false;
  /// Direction-optimizing steps the expansion actually took.
  uint32_t push_steps = 0;
  uint32_t pull_steps = 0;
};

/// Partition-local shortest path answer (unit weights).
struct PathResponse {
  uint32_t distance = 0;
  PartitionId partition = 0;
  bool from_cache = false;
};

/// Cached NetworkRanking score, precomputed at startup.
struct RankResponse {
  double rank = 0.0;
};

/// Counter snapshot of a service (see GraphService::stats).
struct ServiceStats {
  uint64_t submitted = 0;        ///< accepted into the admission queue
  uint64_t completed = 0;        ///< answered (ok or query-level error)
  uint64_t rejected = 0;         ///< failed submit-side validation
  uint64_t shed_admission = 0;   ///< admission window full at submit
  uint64_t shed_deadline = 0;    ///< dequeued after the deadline passed
  uint64_t unavailable = 0;      ///< resolved kUnavailable by Stop
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Worker claims of a published query by how the worker got it, mirroring
  /// runtime::BspBarrier::WaitCounts: found on arrival, found while
  /// spinning, or found after registering to park (or never spun).
  uint64_t claims_immediate = 0;
  uint64_t claims_spun = 0;
  uint64_t claims_parked = 0;
  /// Serve spans lost because the recording worker's trace shard was full.
  uint64_t trace_events_dropped = 0;
  Histogram latency_us;          ///< submit-to-answer, accepted queries
};

/// The long-lived query-serving plane over one opened graph session: a
/// fixed worker pool pulling from a cost-weighted admission queue
/// (BoundedChannel's weighted admission — the same backpressure machinery
/// the batch runtime uses for wire traffic), per-partition LRU result
/// caches, per-query deadlines, and load shedding with kResourceExhausted.
///
/// Obtain one through Engine::Serve, which runs the startup batch
/// NetworkRanking pass through the session's engine:
///
///   SURFER_ASSIGN_OR_RETURN(Engine engine, Engine::Open(setup));
///   SURFER_ASSIGN_OR_RETURN(auto service, engine.Serve({}));
///   auto hop = service->KHop(/*origin=*/42, /*k=*/2).get();
///
/// Thread safety: KHop/PartitionPath/Rank may be called from any number of
/// client threads concurrently; results arrive through std::future. A full
/// admission window NEVER blocks the caller — the future resolves
/// immediately with kResourceExhausted.
///
/// Hand-off: a query carries one promise, of its own kind. Submit enqueues
/// it and bumps an atomic count of published queries; a worker claims one
/// with a CAS decrement. An idle worker spins for
/// runtime::BspBarrier::kSpinBudget before it parks, when the workers and
/// one client fit the host (BspBarrier::SpinFits), so while queries keep
/// coming Submit makes no syscall and takes no lock. Each worker records
/// its latencies and spans into state of its own, merged by stats() and
/// flushed by Stop.
class GraphService {
 public:
  /// One admission-queue entry. Public only because Task::Kind appears in
  /// EstimateCostBytes' signature.
  struct Task {
    enum class Kind { kKHop, kPath, kRank };
    Kind kind = Kind::kRank;
    VertexId a = 0;  ///< encoded origin / src
    VertexId b = 0;  ///< encoded dst (paths)
    uint32_t k = 0;
    bool bypass_cache = false;
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point deadline;
    /// Only the promise of `kind` is engaged.
    std::variant<std::monostate, std::promise<Result<KHopResponse>>,
                 std::promise<Result<PathResponse>>,
                 std::promise<Result<RankResponse>>>
        promise;
  };

  /// Opens the service over a partitioned graph and its precomputed rank
  /// vector (encoded order). Engine::Serve is the usual entry point; tests
  /// that want a rank vector of their own call this directly.
  static Result<std::unique_ptr<GraphService>> Open(
      const PartitionedGraph* graph, const ReplicatedPlacement* placement,
      const Topology* topology, std::vector<double> ranks,
      ServeOptions options) {
    if (graph == nullptr) {
      return Status::InvalidArgument("GraphService requires a graph");
    }
    SURFER_RETURN_IF_ERROR(options.Validate());
    if (ranks.size() !=
        static_cast<size_t>(graph->encoded_graph().num_vertices())) {
      return Status::InvalidArgument(
          "rank vector size " + std::to_string(ranks.size()) +
          " does not match the graph's " +
          std::to_string(graph->encoded_graph().num_vertices()) +
          " vertices");
    }
    std::unique_ptr<GraphService> service(new GraphService(
        graph, placement, topology, std::move(ranks), std::move(options)));
    if (service->options_.start_workers) {
      service->Start();
    }
    return service;
  }

  ~GraphService() { Stop(); }

  GraphService(const GraphService&) = delete;
  GraphService& operator=(const GraphService&) = delete;

  /// Spawns the worker pool (idempotent). Only needed after Open with
  /// start_workers = false.
  void Start() {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (!workers_.empty() || stopped_) {
      return;
    }
    for (uint32_t w = 0; w < options_.num_workers; ++w) {
      workers_.emplace_back([this, w] { WorkerLoop(*worker_state_[w]); });
    }
  }

  /// Lets the workers drain what is published, joins them, flushes their
  /// serve spans into ServeOptions::tracer and their latencies into
  /// serve_latency_us, and resolves every query still queued, or submitted
  /// afterwards, with kUnavailable. Idempotent; the destructor calls it.
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(lifecycle_mu_);
      if (stopped_) {
        return;
      }
      stopped_ = true;
    }
    {
      // Under wake_mu_, so a worker between its last check and its wait
      // cannot miss it.
      std::lock_guard<std::mutex> lock(wake_mu_);
      stop_.store(true);
    }
    wake_cv_.notify_all();
    for (std::thread& worker : workers_) {
      worker.join();
    }
    workers_.clear();
    if (sharded_ != nullptr) {
      sharded_->Flush();
    }
    if (latency_metric_ != nullptr) {
      // Merged once here, so no answer takes the metric's shared lock.
      for (const auto& worker : worker_state_) {
        std::lock_guard<std::mutex> lock(worker->mu);
        latency_metric_->Merge(worker->latency_us);
      }
    }
    // closed_ and a submitter's published_ form the same kind of pair as
    // Park's: a query published after this drain's last claim attempt is
    // one whose submitter sees closed_ and resolves it itself.
    closed_.store(true);
    ResolveUnclaimed();
  }

  /// All vertices within k hops of `origin` (an original vertex ID).
  std::future<Result<KHopResponse>> KHop(VertexId origin, uint32_t k,
                                         QueryOptions query = {}) {
    auto task = NewTask<KHopResponse>(Task::Kind::kKHop);
    task->k = k;
    task->bypass_cache = query.bypass_cache;
    std::future<Result<KHopResponse>> future =
        PromiseOf<KHopResponse>(*task).get_future();
    if (k == 0 || k > options_.max_khop) {
      Reject(*task, Status::InvalidArgument(
                        "k must be in [1, " +
                        std::to_string(options_.max_khop) + "], got " +
                        std::to_string(k)));
      return future;
    }
    Submit(std::move(task), origin, /*b=*/std::nullopt, query);
    return future;
  }

  /// Hop distance from src to dst without leaving their (shared) partition.
  /// Endpoints in different partitions fail with kInvalidArgument; an
  /// unreachable dst fails with kNotFound.
  std::future<Result<PathResponse>> PartitionPath(VertexId src, VertexId dst,
                                                  QueryOptions query = {}) {
    auto task = NewTask<PathResponse>(Task::Kind::kPath);
    task->bypass_cache = query.bypass_cache;
    std::future<Result<PathResponse>> future =
        PromiseOf<PathResponse>(*task).get_future();
    Submit(std::move(task), src, dst, query);
    return future;
  }

  /// The vertex's precomputed NetworkRanking score.
  std::future<Result<RankResponse>> Rank(VertexId vertex,
                                         QueryOptions query = {}) {
    auto task = NewTask<RankResponse>(Task::Kind::kRank);
    std::future<Result<RankResponse>> future =
        PromiseOf<RankResponse>(*task).get_future();
    Submit(std::move(task), vertex, /*b=*/std::nullopt, query);
    return future;
  }

  ServiceStats stats() const {
    ServiceStats s;
    s.submitted = submitted_.load(std::memory_order_relaxed);
    s.completed = completed_.load(std::memory_order_relaxed);
    s.rejected = rejected_.load(std::memory_order_relaxed);
    s.shed_admission = shed_admission_.load(std::memory_order_relaxed);
    s.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
    s.unavailable = unavailable_.load(std::memory_order_relaxed);
    s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
    s.cache_misses = cache_misses_.load(std::memory_order_relaxed);
    for (const auto& worker : worker_state_) {
      s.claims_immediate +=
          worker->claims_immediate.load(std::memory_order_relaxed);
      s.claims_spun += worker->claims_spun.load(std::memory_order_relaxed);
      s.claims_parked += worker->claims_parked.load(std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(worker->mu);
      s.latency_us.Merge(worker->latency_us);
    }
    if (sharded_ != nullptr) {
      s.trace_events_dropped = sharded_->total_dropped();
    }
    return s;
  }

  const PartitionedGraph* graph() const { return graph_; }
  const ReplicatedPlacement* placement() const { return placement_; }
  const Topology* topology() const { return topology_; }
  const std::vector<double>& ranks() const { return ranks_; }
  const ServeOptions& options() const { return options_; }

  /// Coarse admission weight of a query in cost-bytes: ranks are array
  /// lookups, paths scan one partition, k-hop grows geometrically with k
  /// (capped so one query can never exceed every realistic window — the
  /// channel's empty-queue escape hatch would admit it anyway).
  static size_t EstimateCostBytes(Task::Kind kind, uint32_t k);

 private:
  using CacheKey = std::tuple<int, VertexId, VertexId, uint32_t>;
  using CacheValue = std::variant<KHopResponse, PathResponse>;

  struct CacheShard {
    explicit CacheShard(size_t capacity) : cache(capacity) {}
    std::mutex mu;
    LruCache<CacheKey, CacheValue> cache;
  };

  /// What one worker owns. Its claim counts have one writer; its latency
  /// histogram is locked only by that worker and by stats(). Each worker
  /// records spans into trace shard `index`.
  struct alignas(64) WorkerState {
    explicit WorkerState(uint32_t i) : index(i) {}
    const uint32_t index;
    std::atomic<uint64_t> claims_immediate{0};
    std::atomic<uint64_t> claims_spun{0};
    std::atomic<uint64_t> claims_parked{0};
    std::mutex mu;
    Histogram latency_us;
  };

  GraphService(const PartitionedGraph* graph,
               const ReplicatedPlacement* placement, const Topology* topology,
               std::vector<double> ranks, ServeOptions options)
      : graph_(graph),
        placement_(placement),
        topology_(topology),
        ranks_(std::move(ranks)),
        options_(std::move(options)),
        reversed_(graph->encoded_graph().Reversed()),
        queue_(options_.admission_window_bytes),
        spin_(runtime::BspBarrier::SpinFits(options_.num_workers + 1)) {
    shards_.reserve(graph_->num_partitions());
    for (uint32_t p = 0; p < graph_->num_partitions(); ++p) {
      shards_.push_back(std::make_unique<CacheShard>(
          options_.cache_capacity_per_partition));
    }
    worker_state_.reserve(options_.num_workers);
    for (uint32_t w = 0; w < options_.num_workers; ++w) {
      worker_state_.push_back(std::make_unique<WorkerState>(w));
    }
    if (options_.tracer != nullptr && obs::Tracer::CompiledIn()) {
      sharded_ = std::make_unique<obs::ShardedTracer>(
          options_.tracer, options_.num_workers,
          obs::ShardedTracer::kDefaultShardCapacity);
      for (Task::Kind kind :
           {Task::Kind::kKHop, Task::Kind::kPath, Task::Kind::kRank}) {
        span_name_ids_[static_cast<size_t>(kind)] =
            sharded_->InternName(SpanName(kind), "serve");
      }
    }
    if (options_.metrics != nullptr) {
      obs::MetricsRegistry& m = *options_.metrics;
      queries_khop_ = &m.CounterRef("serve_queries_total", {{"kind", "khop"}});
      queries_path_ = &m.CounterRef("serve_queries_total", {{"kind", "path"}});
      queries_rank_ = &m.CounterRef("serve_queries_total", {{"kind", "rank"}});
      shed_admission_metric_ =
          &m.CounterRef("serve_shed_total", {{"reason", "admission"}});
      shed_deadline_metric_ =
          &m.CounterRef("serve_shed_total", {{"reason", "deadline"}});
      cache_hits_metric_ = &m.CounterRef("serve_cache_hits_total");
      cache_misses_metric_ = &m.CounterRef("serve_cache_misses_total");
      latency_metric_ = &m.HistogramRef("serve_latency_us");
      if (sharded_ != nullptr) {
        trace_dropped_metric_ = &m.CounterRef("serve_trace_events_dropped");
      }
    }
  }

  /// A task of `kind` with the promise answering `Response` engaged.
  template <typename Response>
  static std::unique_ptr<Task> NewTask(Task::Kind kind) {
    auto task = std::make_unique<Task>();
    task->kind = kind;
    task->promise.template emplace<std::promise<Result<Response>>>();
    return task;
  }

  template <typename Response>
  static std::promise<Result<Response>>& PromiseOf(Task& task) {
    return std::get<std::promise<Result<Response>>>(task.promise);
  }

  void Submit(std::unique_ptr<Task> task, VertexId a,
              std::optional<VertexId> b, const QueryOptions& query) {
    const VertexId n = graph_->encoded_graph().num_vertices();
    if (a >= n || (b.has_value() && *b >= n)) {
      Reject(*task,
             Status::InvalidArgument(
                 "vertex ID out of range [0, " + std::to_string(n) + ")"));
      return;
    }
    task->a = graph_->encoding().ToEncoded(a);
    if (b.has_value()) {
      task->b = graph_->encoding().ToEncoded(*b);
      if (graph_->encoding().PartitionOf(task->a) !=
          graph_->encoding().PartitionOf(task->b)) {
        Reject(*task, Status::InvalidArgument(
                          "PartitionPath endpoints live in different "
                          "partitions (" +
                          std::to_string(a) + " and " + std::to_string(*b) +
                          "); cross-partition paths need a batch run"));
        return;
      }
    }
    task->enqueued = std::chrono::steady_clock::now();
    task->deadline =
        task->enqueued + query.deadline.value_or(options_.default_deadline);
    CountQuery(task->kind);
    const size_t weight = EstimateCostBytes(task->kind, task->k);
    if (!queue_.TrySend(task, weight)) {
      shed_admission_.fetch_add(1, std::memory_order_relaxed);
      if (shed_admission_metric_ != nullptr) {
        shed_admission_metric_->Increment();
      }
      Resolve(*task,
              Status::ResourceExhausted(
                  "admission window full (" +
                  std::to_string(options_.admission_window_bytes) +
                  " cost-bytes in flight); retry with backoff"));
      return;
    }
    // TrySend moved the task into the queue; `task` is now null.
    submitted_.fetch_add(1, std::memory_order_relaxed);
    // The submitter's half of Park's pair: publish, then look for sleepers.
    published_.fetch_add(1);
    if (sleepers_.load() > 0) {
      // Taking wake_mu_ orders this notify after any parking worker's
      // final check: that worker holds the mutex until wait() releases it.
      { std::lock_guard<std::mutex> lock(wake_mu_); }
      wake_cv_.notify_one();
    }
    if (closed_.load()) {
      ResolveUnclaimed();
    }
  }

  void Reject(Task& task, Status status) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    Resolve(task, std::move(status));
  }

  /// Fails the task's engaged promise with `status`.
  static void Resolve(Task& task, Status status) {
    std::visit(
        [&status](auto& promise) {
          if constexpr (!std::is_same_v<std::decay_t<decltype(promise)>,
                                        std::monostate>) {
            promise.set_value(std::move(status));
          }
        },
        task.promise);
  }

  /// Claims every published query no worker claimed and resolves it with
  /// kUnavailable. Runs only once the workers are joined.
  void ResolveUnclaimed() {
    while (TryClaim()) {
      if (std::optional<std::unique_ptr<Task>> task = queue_.TryRecv()) {
        unavailable_.fetch_add(1, std::memory_order_relaxed);
        Resolve(**task, Status::Unavailable("GraphService stopped"));
      }
    }
  }

  void CountQuery(Task::Kind kind) {
    obs::Counter* counter = nullptr;
    switch (kind) {
      case Task::Kind::kKHop:
        counter = queries_khop_;
        break;
      case Task::Kind::kPath:
        counter = queries_path_;
        break;
      case Task::Kind::kRank:
        counter = queries_rank_;
        break;
    }
    if (counter != nullptr) {
      counter->Increment();
    }
  }

  /// Takes one published query off the count; false when none is left.
  bool TryClaim() {
    size_t published = published_.load();
    while (published > 0) {
      if (published_.compare_exchange_weak(published, published - 1)) {
        return true;
      }
    }
    return false;
  }

  /// Claims one published query at a time and executes it; once stopping,
  /// drains what is published and returns. Finding none, the worker spins
  /// for BspBarrier::kSpinBudget when spin_ holds, then parks (Park). Every
  /// claim follows its query's TrySend and only claimants dequeue, so the
  /// queue holds a query for each claim.
  void WorkerLoop(WorkerState& self) {
    bool claimed = false;
    const auto claim_or_stop = [this, &claimed] {
      claimed = TryClaim();
      return claimed || stop_.load(std::memory_order_relaxed);
    };
    while (true) {
      if (TryClaim()) {
        self.claims_immediate.fetch_add(1, std::memory_order_relaxed);
      } else if (spin_ &&
                 runtime::SpinUntil(claim_or_stop,
                                    std::chrono::steady_clock::now() +
                                        runtime::BspBarrier::kSpinBudget) &&
                 claimed) {
        self.claims_spun.fetch_add(1, std::memory_order_relaxed);
      } else if (Park()) {
        self.claims_parked.fetch_add(1, std::memory_order_relaxed);
      } else {
        return;
      }
      if (std::optional<std::unique_ptr<Task>> task = queue_.TryRecv()) {
        Execute(**task, self);
      }
    }
  }

  /// Sleeps on wake_cv_ until it claims a query (true) or the service stops
  /// with nothing published (false). No wake-up can be lost, so the wait
  /// has no timeout. The worker increments sleepers_ and then re-reads
  /// published_ (in TryClaim); Submit increments published_ and then reads
  /// sleepers_. All four accesses are seq_cst, so in their single total
  /// order at least one side sees the other's write: either this check
  /// finds the query, or the submitter sees a sleeper and notifies. It
  /// notifies only after taking wake_mu_, which the worker holds from its
  /// check until wait() releases it, so the notify cannot fall between the
  /// two.
  bool Park() {
    std::unique_lock<std::mutex> lock(wake_mu_);
    sleepers_.fetch_add(1);
    bool claimed = false;
    while (!(claimed = TryClaim()) && !stop_.load()) {
      wake_cv_.wait(lock);
    }
    sleepers_.fetch_sub(1);
    return claimed;
  }

  void Execute(Task& task, WorkerState& self) {
    const auto now = std::chrono::steady_clock::now();
    if (now > task.deadline) {
      shed_deadline_.fetch_add(1, std::memory_order_relaxed);
      if (shed_deadline_metric_ != nullptr) {
        shed_deadline_metric_->Increment();
      }
      Resolve(task, Status::ResourceExhausted(
                        "deadline exceeded before execution; the service is "
                        "overloaded"));
      return;
    }
    const double span_start_us =
        sharded_ != nullptr ? options_.tracer->WallNowUs() : 0.0;
    // Counters, the latency histogram and the span update BEFORE the
    // promise resolves, so a client that calls stats() right after
    // future.get() returns sees its own query accounted for.
    const auto finish = [this, &task, &self, span_start_us] {
      completed_.fetch_add(1, std::memory_order_relaxed);
      const double latency_us =
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - task.enqueued)
              .count();
      {
        std::lock_guard<std::mutex> lock(self.mu);
        self.latency_us.Add(latency_us);
      }
      if (sharded_ != nullptr) {
        const obs::ShardEvent span{
            span_name_ids_[static_cast<size_t>(task.kind)],
            obs::Tracer::CurrentThreadLane(), span_start_us,
            options_.tracer->WallNowUs() - span_start_us, 0};
        if (!sharded_->shard(self.index).Record(span) &&
            trace_dropped_metric_ != nullptr) {
          trace_dropped_metric_->Increment();
        }
      }
    };
    switch (task.kind) {
      case Task::Kind::kKHop: {
        Result<KHopResponse> result = ExecuteKHop(task);
        finish();
        PromiseOf<KHopResponse>(task).set_value(std::move(result));
        break;
      }
      case Task::Kind::kPath: {
        Result<PathResponse> result = ExecutePath(task);
        finish();
        PromiseOf<PathResponse>(task).set_value(std::move(result));
        break;
      }
      case Task::Kind::kRank: {
        Result<RankResponse> result = RankResponse{ranks_[task.a]};
        finish();
        PromiseOf<RankResponse>(task).set_value(std::move(result));
        break;
      }
    }
  }

  static const char* SpanName(Task::Kind kind) {
    switch (kind) {
      case Task::Kind::kKHop:
        return "serve_khop";
      case Task::Kind::kPath:
        return "serve_path";
      case Task::Kind::kRank:
        return "serve_rank";
    }
    return "serve";
  }

  Result<KHopResponse> ExecuteKHop(Task& task) {
    const CacheKey key{0, task.a, 0, task.k};
    CacheShard& shard = *shards_[graph_->encoding().PartitionOf(task.a)];
    if (!task.bypass_cache) {
      std::shared_ptr<const CacheValue> cached;
      {
        std::lock_guard<std::mutex> lock(shard.mu);
        cached = shard.cache.Get(key);
      }
      if (cached != nullptr) {
        CountCache(/*hit=*/true);
        KHopResponse response = std::get<KHopResponse>(*cached);
        response.from_cache = true;
        return response;
      }
      CountCache(/*hit=*/false);
    }
    KHopStats hop_stats;
    std::vector<VertexId> encoded = KHopFrontier(
        graph_->encoded_graph(), reversed_, task.a, task.k, &hop_stats);
    KHopResponse response;
    response.k = task.k;
    response.push_steps = hop_stats.push_steps;
    response.pull_steps = hop_stats.pull_steps;
    response.vertices.reserve(encoded.size());
    for (VertexId v : encoded) {
      response.vertices.push_back(graph_->encoding().ToOriginal(v));
    }
    std::sort(response.vertices.begin(), response.vertices.end());
    if (!task.bypass_cache) {
      auto value = std::make_shared<const CacheValue>(response);
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.cache.Put(key, std::move(value));
    }
    return response;
  }

  Result<PathResponse> ExecutePath(Task& task) {
    const PartitionId p = graph_->encoding().PartitionOf(task.a);
    const CacheKey key{1, task.a, task.b, 0};
    CacheShard& shard = *shards_[p];
    if (!task.bypass_cache) {
      std::shared_ptr<const CacheValue> cached;
      {
        std::lock_guard<std::mutex> lock(shard.mu);
        cached = shard.cache.Get(key);
      }
      if (cached != nullptr) {
        CountCache(/*hit=*/true);
        PathResponse response = std::get<PathResponse>(*cached);
        response.from_cache = true;
        return response;
      }
      CountCache(/*hit=*/false);
    }
    const PartitionMeta& meta = graph_->partition(p);
    std::optional<uint32_t> distance = PartitionLocalDistance(
        graph_->encoded_graph(), meta.begin, meta.end, task.a, task.b);
    if (!distance.has_value()) {
      return Status::NotFound(
          "no path inside partition " + std::to_string(p) +
          " (the vertices may connect through other partitions)");
    }
    PathResponse response;
    response.distance = *distance;
    response.partition = p;
    if (!task.bypass_cache) {
      auto value = std::make_shared<const CacheValue>(response);
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.cache.Put(key, std::move(value));
    }
    return response;
  }

  void CountCache(bool hit) {
    if (hit) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      if (cache_hits_metric_ != nullptr) {
        cache_hits_metric_->Increment();
      }
    } else {
      cache_misses_.fetch_add(1, std::memory_order_relaxed);
      if (cache_misses_metric_ != nullptr) {
        cache_misses_metric_->Increment();
      }
    }
  }

  const PartitionedGraph* graph_;
  const ReplicatedPlacement* placement_;
  const Topology* topology_;
  const std::vector<double> ranks_;
  const ServeOptions options_;
  /// Pre-transposed CSR for the pull direction, built once at Open.
  const Graph reversed_;

  runtime::BoundedChannel<std::unique_ptr<Task>> queue_;
  std::vector<std::unique_ptr<CacheShard>> shards_;
  /// Whether idle workers spin before parking: the workers plus one
  /// submitting client must fit the host.
  const bool spin_;
  std::vector<std::unique_ptr<WorkerState>> worker_state_;
  /// One shard per worker; null when no tracer is set or tracing is
  /// compiled out.
  std::unique_ptr<obs::ShardedTracer> sharded_;
  uint32_t span_name_ids_[3] = {0, 0, 0};  ///< indexed by Task::Kind

  std::mutex lifecycle_mu_;
  bool stopped_ = false;
  std::vector<std::thread> workers_;
  /// Queries enqueued and not yet claimed. See Park for the seq_cst pair
  /// it forms with sleepers_.
  std::atomic<size_t> published_{0};
  /// Workers inside Park; Submit notifies only when this is nonzero.
  std::atomic<uint32_t> sleepers_{0};
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  /// Set under wake_mu_ when Stop begins.
  std::atomic<bool> stop_{false};
  /// Set once Stop has joined the workers.
  std::atomic<bool> closed_{false};

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> shed_admission_{0};
  std::atomic<uint64_t> shed_deadline_{0};
  std::atomic<uint64_t> unavailable_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};

  obs::Counter* queries_khop_ = nullptr;
  obs::Counter* queries_path_ = nullptr;
  obs::Counter* queries_rank_ = nullptr;
  obs::Counter* shed_admission_metric_ = nullptr;
  obs::Counter* shed_deadline_metric_ = nullptr;
  obs::Counter* cache_hits_metric_ = nullptr;
  obs::Counter* cache_misses_metric_ = nullptr;
  obs::HistogramMetric* latency_metric_ = nullptr;
  obs::Counter* trace_dropped_metric_ = nullptr;
};

inline size_t GraphService::EstimateCostBytes(Task::Kind kind, uint32_t k) {
  switch (kind) {
    case Task::Kind::kRank:
      return 64;
    case Task::Kind::kPath:
      return 2048;
    case Task::Kind::kKHop:
      // 512 bytes at k=1, doubling per hop, capped at 16 KiB.
      return size_t{256} << (k < 6 ? k + 1 : 7);
  }
  return 64;
}

}  // namespace serve

/// Engine::Serve lives here (not in core/engine.h) so core stays free of a
/// serve dependency; including serve/graph_service.h is what makes Serve
/// callable.
inline Result<std::unique_ptr<serve::GraphService>> Engine::Serve(
    serve::ServeOptions options) const {
  SURFER_RETURN_IF_ERROR(options.Validate());
  // The startup batch pass: NetworkRanking through this session's engine
  // (analytic, concurrent, and distributed all produce bit-identical
  // states), at the serving plane's iteration count.
  EngineOptions rank_options = options_;
  rank_options.propagation.iterations = options.rank_iterations;
  SURFER_ASSIGN_OR_RETURN(
      auto rank_run,
      internal::Dispatch(graph_, placement_, topology_,
                         NetworkRankingApp(graph_->encoded_graph()
                                               .num_vertices(),
                                           options.rank_damping),
                         rank_options));
  return serve::GraphService::Open(graph_, placement_, topology_,
                                   std::move(rank_run.states),
                                   std::move(options));
}

}  // namespace surfer

#endif  // SURFER_SERVE_GRAPH_SERVICE_H_

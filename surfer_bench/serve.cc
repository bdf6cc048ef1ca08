// Serving workloads: one GraphService under a closed loop (one client with
// sixteen queries outstanding; the capacity measurement) and then an open
// loop at the workload's fixed offered rate (independent users; the latency
// measurement). Open-loop queries are timed from the moment they were due,
// so a stall also charges the queries queued behind it. Every rank answer is
// checked against a batch NetworkRanking run; a uniform sample of k-hop and
// path answers is checked after the run against plain BFS oracles.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "apps/network_ranking.h"
#include "common/logging.h"
#include "common/random.h"
#include "core/sim_scale.h"
#include "graph/algorithms.h"
#include "harness.h"
#include "percentile.h"
#include "serve/frontier.h"

namespace surfer_bench {

using namespace surfer;

namespace {

/// Queries the closed-loop client keeps outstanding.
constexpr size_t kClientWindow = 16;
/// Outstanding open-loop queries polled per pass, oldest first; answers
/// arrive nearly in submission order, so the head is where they show up.
constexpr size_t kPollWindow = 8;
/// Answers per reservoir kept for the post-run k-hop/path oracle check.
constexpr size_t kReservoirSize = 24;
/// Traced runs keep spans for every kSpanEvery-th open-loop query.
constexpr size_t kSpanEvery = 16;
/// Stream queries timed through direct frontier calls in a traced run.
constexpr int kExecSamples = 2000;
/// Query-stream ids of the load phases.
constexpr uint64_t kWarmUpStream = 1000;
constexpr uint64_t kClosedLoopStream = 2000;
constexpr uint64_t kOpenLoopStream = 1;

enum class QueryKind { kKHop, kPath, kRank };

const char* KindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kKHop:
      return "khop";
    case QueryKind::kPath:
      return "path";
    case QueryKind::kRank:
      return "rank";
  }
  return "unknown";
}

/// One query, in original vertex IDs as a client would send it.
struct Query {
  QueryKind kind = QueryKind::kRank;
  VertexId a = 0;  ///< k-hop origin, path source, or ranked vertex
  VertexId b = 0;  ///< path destination
  uint32_t k = 0;
};

/// `size` distinct vertices drawn from `seed`.
std::vector<VertexId> HotSet(VertexId num_vertices, uint32_t size,
                             uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> taken(num_vertices, 0);
  std::vector<VertexId> hot;
  while (hot.size() < std::min<VertexId>(size, num_vertices)) {
    const auto v = static_cast<VertexId>(rng.Uniform(num_vertices));
    if (taken[v] == 0) {
      taken[v] = 1;
      hot.push_back(v);
    }
  }
  return hot;
}

/// A deterministic query sequence of one workload mix.
///  - hot: 3:1 k-hop (k uniform in {1, 2}) to rank, origins from the hot
///    set, so nearly every k-hop is a cache hit after warm-up;
///  - cold: 3:1 partition-local path (both endpoints uniform inside one
///    uniform partition) to 2-hop from a uniform origin, so nearly every
///    query misses the cache and runs the frontier code.
class QueryStream {
 public:
  QueryStream(const Workload& workload, const PartitionedGraph& graph,
              const std::vector<VertexId>& hot, uint64_t seed)
      : hot_mix_(workload.hot), graph_(graph), hot_(hot), rng_(seed) {}

  Query Next() {
    Query query;
    const bool minority = rng_.Uniform(4) == 0;
    if (hot_mix_) {
      query.a = hot_[rng_.Uniform(hot_.size())];
      if (minority) {
        query.kind = QueryKind::kRank;
      } else {
        query.kind = QueryKind::kKHop;
        query.k = 1 + static_cast<uint32_t>(rng_.Uniform(2));
      }
    } else if (minority) {
      query.kind = QueryKind::kKHop;
      query.k = 2;
      query.a = static_cast<VertexId>(
          rng_.Uniform(graph_.encoded_graph().num_vertices()));
    } else {
      query.kind = QueryKind::kPath;
      const PartitionMeta& meta = graph_.partition(
          static_cast<PartitionId>(rng_.Uniform(graph_.num_partitions())));
      const VertexId size = meta.num_vertices();
      query.a = graph_.encoding().ToOriginal(
          meta.begin + static_cast<VertexId>(rng_.Uniform(size)));
      query.b = graph_.encoding().ToOriginal(
          meta.begin + static_cast<VertexId>(rng_.Uniform(size)));
    }
    return query;
  }

 private:
  bool hot_mix_;
  const PartitionedGraph& graph_;
  const std::vector<VertexId>& hot_;
  Rng rng_;
};

/// A submitted query: its due time and the future of its kind.
struct Pending {
  Query query;
  Clock::time_point due;
  std::future<Result<serve::KHopResponse>> khop;
  std::future<Result<serve::PathResponse>> path;
  std::future<Result<serve::RankResponse>> rank;
};

void Submit(serve::GraphService& service, Pending& pending) {
  const Query& query = pending.query;
  switch (query.kind) {
    case QueryKind::kKHop:
      pending.khop = service.KHop(query.a, query.k);
      break;
    case QueryKind::kPath:
      pending.path = service.PartitionPath(query.a, query.b);
      break;
    case QueryKind::kRank:
      pending.rank = service.Rank(query.a);
      break;
  }
}

/// A k-hop or path answer kept for the oracle check.
struct Answer {
  Query query;
  std::vector<VertexId> vertices;    ///< k-hop: sorted original IDs
  std::optional<uint32_t> distance;  ///< path: nullopt when unreachable
};

/// Outcome counts of one client or phase, plus a uniform reservoir sample
/// (Algorithm R) of its k-hop and path answers.
struct Tally {
  explicit Tally(uint64_t seed) : rng(seed) {}

  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  uint64_t candidates = 0;
  std::vector<Answer> reservoir;
  std::vector<std::string> errors;
  Rng rng;

  void Offer(const Query& query, const std::vector<VertexId>* vertices,
             std::optional<uint32_t> distance) {
    ++candidates;
    size_t slot = reservoir.size();
    if (reservoir.size() == kReservoirSize) {
      slot = rng.Uniform(candidates);
      if (slot >= kReservoirSize) {
        return;
      }
    } else {
      reservoir.emplace_back();
    }
    reservoir[slot] = {query, vertices != nullptr ? *vertices
                                                  : std::vector<VertexId>{},
                       distance};
  }
};

/// Waits for one query's answer and classifies it. Rank answers are checked
/// on the spot; k-hop and path answers are offered to the reservoir. Returns
/// false when the query was shed or failed — it then missed every latency
/// limit.
bool Collect(Pending& pending, const PartitionedGraph& graph,
             const std::vector<double>& ranks, Tally& tally) {
  ++tally.attempted;
  const auto fail = [&tally](const Status& status) {
    ++tally.failed;
    // Sheds (kResourceExhausted) are load, not bugs; anything else is.
    if (status.code() != StatusCode::kResourceExhausted &&
        tally.errors.size() < 4) {
      tally.errors.push_back("query failed: " + status.ToString());
    }
    return false;
  };
  const Query& query = pending.query;
  switch (query.kind) {
    case QueryKind::kRank: {
      const auto answer = pending.rank.get();
      if (!answer.ok()) {
        return fail(answer.status());
      }
      const double expected = ranks[graph.encoding().ToEncoded(query.a)];
      if (std::memcmp(&answer->rank, &expected, sizeof(double)) != 0) {
        ++tally.failed;
        ++tally.wrong;
        if (tally.errors.size() < 4) {
          tally.errors.push_back("rank of " + std::to_string(query.a) +
                                 " differs from the batch run");
        }
      }
      return true;
    }
    case QueryKind::kKHop: {
      const auto answer = pending.khop.get();
      if (!answer.ok()) {
        return fail(answer.status());
      }
      tally.Offer(query, &answer->vertices, std::nullopt);
      return true;
    }
    case QueryKind::kPath: {
      const auto answer = pending.path.get();
      if (answer.ok()) {
        tally.Offer(query, nullptr, answer->distance);
        return true;
      }
      // Unreachable inside the partition is an answer, not a failure.
      if (answer.status().code() == StatusCode::kNotFound) {
        tally.Offer(query, nullptr, std::nullopt);
        return true;
      }
      return fail(answer.status());
    }
  }
  return false;
}

/// Shared inputs of the load phases.
struct LoadContext {
  serve::GraphService& service;
  const Workload& workload;
  const PartitionedGraph& graph;
  const std::vector<VertexId>& hot;
  const std::vector<double>& ranks;
  uint64_t seed;
};

/// True once the query's answer can be collected without blocking.
bool Ready(const Pending& pending) {
  constexpr std::chrono::seconds kNoWait(0);
  switch (pending.query.kind) {
    case QueryKind::kKHop:
      return pending.khop.wait_for(kNoWait) == std::future_status::ready;
    case QueryKind::kPath:
      return pending.path.wait_for(kNoWait) == std::future_status::ready;
    case QueryKind::kRank:
      return pending.rank.wait_for(kNoWait) == std::future_status::ready;
  }
  return false;
}

/// Closed loop: one client keeping kClientWindow queries outstanding,
/// sending the next one only when its oldest has answered. The window keeps
/// both service workers busy, so the rate measures the service's capacity
/// rather than thread wake-up latency. Returns queries answered per second.
double ClosedLoop(const LoadContext& context, uint64_t stream, double seconds,
                  std::vector<Tally>& tallies) {
  Tally& tally = tallies.emplace_back(MixSeed(context.seed, stream + 1));
  QueryStream queries(context.workload, context.graph, context.hot,
                      MixSeed(context.seed, stream));
  std::deque<Pending> window;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  while (Clock::now() < stop || !window.empty()) {
    while (window.size() < kClientWindow && Clock::now() < stop) {
      window.emplace_back();
      window.back().query = queries.Next();
      Submit(context.service, window.back());
    }
    Collect(window.front(), context.graph, context.ranks, tally);
    window.pop_front();
  }
  return static_cast<double>(tally.attempted - tally.failed) /
         SecondsSince(start);
}

struct OpenLoopResult {
  /// Due time to answer. A shed or failed query is charged the whole
  /// window: it missed every latency limit.
  std::vector<double> latency_s;
  std::vector<double> late_s;    ///< how late the generator sent
  std::vector<double> submit_s;  ///< time to return a future (traced)
};

/// Open loop: this thread sends each query when it falls due, whatever the
/// answers do, and between sends polls the oldest outstanding queries for
/// answers. It spins rather than sleeps: a sleeping generator wakes at the
/// timer's granularity, sends in bursts, and adds its own wake-up to every
/// measured latency.
OpenLoopResult OpenLoop(const LoadContext& context, uint64_t stream_id,
                        double seconds, Tally& tally, SpanLog* spans) {
  const double rate = context.workload.offered_qps;
  const auto total =
      std::max<size_t>(1, static_cast<size_t>(std::llround(rate * seconds)));
  // Only queries still in flight are kept, so the generator's own memory does
  // not grow with the window.
  struct InFlight {
    size_t id = 0;
    Pending pending;
    bool answered = false;
  };
  std::deque<InFlight> in_flight;
  OpenLoopResult result;
  result.latency_s.resize(total);
  result.late_s.resize(total);
  result.submit_s.resize(spans != nullptr ? total : 0);
  QueryStream stream(context.workload, context.graph, context.hot,
                     MixSeed(context.seed, stream_id));
  const std::chrono::duration<double> interval(1.0 / rate);
  const Clock::time_point start = Clock::now();

  size_t next = 0;
  Clock::time_point next_due = start;
  while (next < total || !in_flight.empty()) {
    const Clock::time_point now = Clock::now();
    if (next < total && now >= next_due) {
      InFlight& entry = in_flight.emplace_back();
      entry.id = next;
      entry.pending.query = stream.Next();
      entry.pending.due = next_due;
      Submit(context.service, entry.pending);
      result.late_s[next] = SecondsBetween(next_due, now);
      if (spans != nullptr) {
        const Clock::time_point returned = Clock::now();
        result.submit_s[next] = SecondsBetween(now, returned);
        if (next % kSpanEvery == 0) {
          spans->Record("submit", "serve", now, returned,
                        {{"id", std::to_string(next)}});
        }
      }
      ++next;
      next_due = start + std::chrono::duration_cast<Clock::duration>(
                             interval * static_cast<double>(next));
      continue;
    }
    size_t polled = 0;
    for (auto it = in_flight.begin();
         it != in_flight.end() && polled < kPollWindow; ++it, ++polled) {
      if (it->answered || !Ready(it->pending)) {
        continue;
      }
      const Clock::time_point done = Clock::now();
      it->answered = true;
      result.latency_s[it->id] =
          Collect(it->pending, context.graph, context.ranks, tally)
              ? SecondsBetween(it->pending.due, done)
              : seconds;
      if (spans != nullptr && it->id % kSpanEvery == 0) {
        spans->Record("query", "serve", it->pending.due, done,
                      {{"id", std::to_string(it->id)},
                       {"kind", KindName(it->pending.query.kind)}});
      }
    }
    while (!in_flight.empty() && in_flight.front().answered) {
      in_flight.pop_front();
    }
  }
  return result;
}

/// Hop distance from src to dst inside the encoded range [begin, end): a
/// plain BFS, the oracle for PartitionLocalDistance.
std::optional<uint32_t> PartitionBfs(const Graph& graph, VertexId begin,
                                     VertexId end, VertexId src,
                                     VertexId dst) {
  std::vector<uint32_t> distance(end - begin, kUnreachableDistance);
  std::vector<VertexId> queue = {src};
  distance[src - begin] = 0;
  for (size_t head = 0; head < queue.size(); ++head) {
    const VertexId u = queue[head];
    if (u == dst) {
      return distance[u - begin];
    }
    for (VertexId v : graph.OutNeighbors(u)) {
      if (v >= begin && v < end &&
          distance[v - begin] == kUnreachableDistance) {
        distance[v - begin] = distance[u - begin] + 1;
        queue.push_back(v);
      }
    }
  }
  return std::nullopt;
}

/// Checks sampled k-hop answers against BfsDistances truncated at k and
/// sampled path answers against PartitionBfs. Returns the wrong ones.
uint64_t VerifyAnswers(const Deployment& deployment,
                       const std::vector<Answer>& answers,
                       std::vector<std::string>& errors) {
  const PartitionedGraph& graph = deployment.surfer->partitioned_graph();
  uint64_t wrong = 0;
  for (const Answer& answer : answers) {
    const Query& query = answer.query;
    bool ok = true;
    if (query.kind == QueryKind::kKHop) {
      const std::vector<uint32_t> distance =
          BfsDistances(deployment.graph, query.a);
      std::vector<VertexId> expected;
      for (VertexId v = 0; v < deployment.graph.num_vertices(); ++v) {
        if (distance[v] <= query.k) {
          expected.push_back(v);
        }
      }
      ok = answer.vertices == expected;
    } else {
      const VertexId src = graph.encoding().ToEncoded(query.a);
      const PartitionMeta& meta = graph.partition(graph.PartitionOf(src));
      ok = answer.distance ==
           PartitionBfs(graph.encoded_graph(), meta.begin, meta.end, src,
                        graph.encoding().ToEncoded(query.b));
    }
    if (!ok) {
      ++wrong;
      if (errors.size() < 8) {
        errors.push_back(std::string(KindName(query.kind)) + " answer from " +
                         std::to_string(query.a) + " differs from BFS");
      }
    }
  }
  return wrong;
}

/// Times KHopFrontier and PartitionLocalDistance called directly on the
/// first kExecSamples queries of the open-loop stream: the execute layer
/// without admission, queueing or cache.
void MeasureExecution(const LoadContext& context, MetricValues& metrics) {
  const PartitionedGraph& graph = context.graph;
  const Graph& encoded = graph.encoded_graph();
  const Graph reversed = encoded.Reversed();
  QueryStream stream(context.workload, graph, context.hot,
                     MixSeed(context.seed, kOpenLoopStream));
  std::vector<double> khop_s;
  std::vector<double> path_s;
  for (int i = 0; i < kExecSamples; ++i) {
    const Query query = stream.Next();
    const VertexId a = graph.encoding().ToEncoded(query.a);
    const Clock::time_point start = Clock::now();
    if (query.kind == QueryKind::kKHop) {
      serve::KHopFrontier(encoded, reversed, a, query.k);
      khop_s.push_back(SecondsSince(start));
    } else if (query.kind == QueryKind::kPath) {
      const PartitionMeta& meta = graph.partition(graph.PartitionOf(a));
      serve::PartitionLocalDistance(encoded, meta.begin, meta.end, a,
                                    graph.encoding().ToEncoded(query.b));
      path_s.push_back(SecondsSince(start));
    }
  }
  metrics.Set("serve.khop_exec_us_p50", Percentile(khop_s, 50.0) * 1e6);
  metrics.Set("serve.path_exec_us_p50", Percentile(path_s, 50.0) * 1e6);
}

}  // namespace

Measurement RunServe(const Workload& workload, const Scale& scale,
                     uint64_t seed, Deployment& deployment, double seconds,
                     SpanLog* spans, MetricValues& metrics,
                     std::vector<std::string>& errors) {
  const serve::ServeOptions serve_options = deployment.service->options();
  const PartitionedGraph& graph = deployment.surfer->partitioned_graph();
  const VertexId n = graph.encoded_graph().num_vertices();

  // Rank oracle: a batch NetworkRanking run on the analytic engine at the
  // service's iteration count and damping.
  const Engine& session = *deployment.session;
  EngineOptions reference_options;
  reference_options.propagation = session.options().propagation;
  reference_options.propagation.iterations = serve_options.rank_iterations;
  reference_options.sim = MakeScaledSimOptions();
  auto reference_session =
      Engine::Open(session.graph(), session.placement(), session.topology(),
                   reference_options);
  SURFER_CHECK(reference_session.ok())
      << reference_session.status().ToString();
  Clock::time_point start = Clock::now();
  auto ranks = reference_session->Run(
      NetworkRankingApp(n, serve_options.rank_damping));
  Clock::time_point end = Clock::now();
  SURFER_CHECK(ranks.ok()) << ranks.status().ToString();
  metrics.Set("propagation.reference_s", SecondsBetween(start, end));
  if (spans != nullptr) {
    spans->Record("analytic_rank_reference", "oracle", start, end);
  }

  const std::vector<VertexId> hot =
      HotSet(n, scale.hot_set, MixSeed(seed, 0));

  const LoadContext context{*deployment.service, workload, graph, hot,
                            ranks->states, seed};
  // Warm-up fills the cache the way a long-running service's would; its
  // answers are checked like every other.
  std::vector<Tally> tallies;
  ClosedLoop(context, kWarmUpStream, std::min(0.5, 0.05 * seconds), tallies);
  start = Clock::now();
  const double qps =
      ClosedLoop(context, kClosedLoopStream, seconds / 3.0, tallies);
  end = Clock::now();
  if (spans != nullptr) {
    spans->Record("closed_loop", "serve", start, end);
  }
  tallies.emplace_back(MixSeed(seed, kOpenLoopStream + 1));
  start = Clock::now();
  OpenLoopResult open = OpenLoop(context, kOpenLoopStream,
                                 seconds * 2.0 / 3.0, tallies.back(), spans);
  end = Clock::now();
  if (spans != nullptr) {
    spans->Record("open_loop", "serve", start, end);
  }
  const serve::ServiceStats stats = deployment.service->stats();

  Measurement measurement;
  measurement.latency_s = std::move(open.latency_s);
  std::vector<Answer> answers;
  for (Tally& tally : tallies) {
    measurement.attempted += tally.attempted;
    measurement.failed += tally.failed;
    measurement.wrong += tally.wrong;
    errors.insert(errors.end(), tally.errors.begin(), tally.errors.end());
    answers.insert(answers.end(), tally.reservoir.begin(),
                   tally.reservoir.end());
  }
  const uint64_t wrong = VerifyAnswers(deployment, answers, errors);
  measurement.wrong += wrong;
  measurement.failed += wrong;

  metrics.Set("serve.qps_max", qps);
  const uint64_t lookups = stats.cache_hits + stats.cache_misses;
  metrics.Set("serve.cache_hit_rate",
              lookups > 0 ? static_cast<double>(stats.cache_hits) /
                                static_cast<double>(lookups)
                          : 0.0);
  metrics.Set("serve.cache_lookups", static_cast<double>(lookups));
  metrics.Set("serve.shed_admission",
              static_cast<double>(stats.shed_admission));
  metrics.Set("serve.shed_deadline", static_cast<double>(stats.shed_deadline));
  metrics.Set("serve.query_p99_us",
              Percentile(measurement.latency_s, 99.0) * 1e6);
  metrics.Set("bench.gen_late_p99_us", Percentile(open.late_s, 99.0) * 1e6);
  if (spans != nullptr) {
    metrics.Set("serve.submit_us_p50", Percentile(open.submit_s, 50.0) * 1e6);
    MeasureExecution(context, metrics);
  }
  return measurement;
}

}  // namespace surfer_bench

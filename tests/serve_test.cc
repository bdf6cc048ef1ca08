// The GraphService query-serving plane: k-hop answers bit-identical to a
// fresh BFS over the original graph, cached ranks bit-identical to a fresh
// batch run, cache hits returning exactly the computed bytes, deterministic
// admission-window shedding with kResourceExhausted (never blocking),
// deadline shedding, partition-local paths, a served run's report passing
// the run-report schema, the spin-then-park hand-off (no lost wake-up, a
// parked path that answers, Stop racing live clients), bounded serve spans,
// and a concurrent-client stress mix run under the TSan/ASan CI matrix.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "apps/network_ranking.h"
#include "core/engine.h"
#include "graph/algorithms.h"
#include "obs/bench_gate.h"
#include "obs/metrics_registry.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "obs/trace_shard.h"
#include "runtime/barrier.h"
#include "serve/frontier.h"
#include "serve/graph_service.h"
#include "serve/lru_cache.h"
#include "tests/test_fixtures.h"

namespace surfer {
namespace {

using serve::GraphService;
using serve::ServeOptions;
using testing_fixtures::EngineFixture;
using testing_fixtures::MakeEngineFixture;

const EngineFixture& Fixture() {
  static const EngineFixture* fixture = new EngineFixture(MakeEngineFixture());
  return *fixture;
}

Engine Session() {
  const EngineFixture& f = Fixture();
  static const BenchmarkSetup* setup =
      new BenchmarkSetup(f.Setup(OptimizationLevel::kO4));
  EngineOptions options;
  options.propagation.iterations = 3;
  auto session = Engine::Open(*setup, options);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return std::move(session).value();
}

/// Reference k-hop set over *original* IDs: plain BFS truncated at depth k.
std::vector<VertexId> ReferenceKHop(const Graph& graph, VertexId origin,
                                    uint32_t k) {
  const std::vector<uint32_t> distances = BfsDistances(graph, origin);
  std::vector<VertexId> result;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (distances[v] <= k) {
      result.push_back(v);
    }
  }
  return result;  // already sorted: v ascends
}

// ------------------------------------------------------------ LRU cache

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  serve::LruCache<int, int> cache(2);
  cache.Put(1, std::make_shared<const int>(10));
  cache.Put(2, std::make_shared<const int>(20));
  ASSERT_NE(cache.Get(1), nullptr);  // promotes 1; 2 is now LRU
  cache.Put(3, std::make_shared<const int>(30));
  EXPECT_EQ(cache.Get(2), nullptr);
  ASSERT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(*cache.Get(1), 10);
  ASSERT_NE(cache.Get(3), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCacheTest, PutRefreshesExistingKey) {
  serve::LruCache<int, int> cache(2);
  cache.Put(1, std::make_shared<const int>(10));
  cache.Put(2, std::make_shared<const int>(20));
  cache.Put(1, std::make_shared<const int>(11));  // refresh, 2 becomes LRU
  cache.Put(3, std::make_shared<const int>(30));
  EXPECT_EQ(cache.Get(2), nullptr);
  ASSERT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(*cache.Get(1), 11);
}

// ---------------------------------------------------- frontier expansion

TEST(FrontierTest, PushAndPullDirectionsAgreeOnEveryK) {
  const EngineFixture& f = Fixture();
  const Graph& graph = f.graph;
  const Graph reversed = graph.Reversed();
  // A hub: the highest out-degree vertex, so the frontier actually grows for
  // several hops (low-degree sources can die out after one step).
  VertexId hub = 0;
  for (VertexId v = 1; v < graph.num_vertices(); ++v) {
    if (graph.OutDegree(v) > graph.OutDegree(hub)) {
      hub = v;
    }
  }
  for (uint32_t k : {1u, 2u, 3u}) {
    serve::KHopStats stats;
    std::vector<VertexId> frontier =
        serve::KHopFrontier(graph, reversed, hub, k, &stats);
    std::sort(frontier.begin(), frontier.end());
    EXPECT_EQ(frontier, ReferenceKHop(graph, hub, k)) << "k=" << k;
    EXPECT_EQ(stats.push_steps + stats.pull_steps, k) << "k=" << k;
  }
  // A social graph's 3-hop frontier from a hub is dense enough that the pull
  // direction must have engaged at least once — otherwise the direction
  // optimization is dead code.
  serve::KHopStats stats;
  serve::KHopFrontier(graph, reversed, hub, 3, &stats);
  EXPECT_GT(stats.pull_steps, 0u);
}

// ------------------------------------------------- correctness vs batch

TEST(GraphServiceTest, KHopBitIdenticalToFreshBfs) {
  Engine session = Session();
  auto service = session.Serve(ServeOptions{});
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const Graph& graph = Fixture().graph;
  for (VertexId origin : {VertexId{0}, VertexId{17}, VertexId{4095}}) {
    for (uint32_t k : {1u, 2u}) {
      auto response = (*service)->KHop(origin, k).get();
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      EXPECT_EQ(response->vertices, ReferenceKHop(graph, origin, k))
          << "origin=" << origin << " k=" << k;
      EXPECT_EQ(response->k, k);
    }
  }
}

TEST(GraphServiceTest, RankBitIdenticalToFreshBatchRun) {
  Engine session = Session();
  ServeOptions options;
  options.rank_iterations = 3;
  auto service = session.Serve(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  // Fresh batch run through the same session at the same iteration count.
  EngineOptions batch_options = session.options();
  batch_options.propagation.iterations = 3;
  auto batch_session =
      Engine::Open(session.graph(), session.placement(), session.topology(),
                   batch_options);
  ASSERT_TRUE(batch_session.ok());
  auto batch = batch_session->Run(
      NetworkRankingApp(Fixture().graph.num_vertices()));
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();

  for (VertexId v : {VertexId{0}, VertexId{123}, VertexId{4000}}) {
    auto response = (*service)->Rank(v).get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    const double fresh = batch->StateOfOriginal(v);
    EXPECT_EQ(std::memcmp(&response->rank, &fresh, sizeof(double)), 0)
        << "rank of vertex " << v << " not bit-identical";
  }
}

TEST(GraphServiceTest, CachedResultsBitIdenticalToFreshComputation) {
  Engine session = Session();
  auto service = session.Serve(ServeOptions{});
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  auto first = (*service)->KHop(42, 2).get();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->from_cache);

  auto cached = (*service)->KHop(42, 2).get();
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  EXPECT_TRUE(cached->from_cache);

  serve::QueryOptions bypass;
  bypass.bypass_cache = true;
  auto fresh = (*service)->KHop(42, 2, bypass).get();
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_FALSE(fresh->from_cache);

  ASSERT_EQ(cached->vertices.size(), fresh->vertices.size());
  EXPECT_EQ(std::memcmp(cached->vertices.data(), fresh->vertices.data(),
                        fresh->vertices.size() * sizeof(VertexId)),
            0)
      << "cached k-hop differs from fresh computation";

  const serve::ServiceStats stats = (*service)->stats();
  EXPECT_GE(stats.cache_hits, 1u);
  EXPECT_GE(stats.cache_misses, 1u);
}

TEST(GraphServiceTest, PartitionPathMatchesLocalBfs) {
  Engine session = Session();
  auto service = session.Serve(ServeOptions{});
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const PartitionedGraph& pg = *session.graph();

  // Pick two encoded vertices of partition 0 connected by a local edge so a
  // path certainly exists.
  const PartitionMeta& meta = pg.partition(0);
  VertexId src_enc = meta.begin;
  VertexId dst_enc = kInvalidVertex;
  for (VertexId v = meta.begin; v < meta.end && dst_enc == kInvalidVertex;
       ++v) {
    for (VertexId u : pg.encoded_graph().OutNeighbors(v)) {
      if (u >= meta.begin && u < meta.end && u != v) {
        src_enc = v;
        dst_enc = u;
        break;
      }
    }
  }
  ASSERT_NE(dst_enc, kInvalidVertex) << "partition 0 has no inner edge";
  const VertexId src = pg.encoding().ToOriginal(src_enc);
  const VertexId dst = pg.encoding().ToOriginal(dst_enc);

  auto response = (*service)->PartitionPath(src, dst).get();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->distance, 1u);
  EXPECT_EQ(response->partition, 0u);

  // Self-path is 0 hops.
  auto self = (*service)->PartitionPath(src, src).get();
  ASSERT_TRUE(self.ok()) << self.status().ToString();
  EXPECT_EQ(self->distance, 0u);
}

TEST(GraphServiceTest, PartitionPathRejectsCrossPartitionEndpoints) {
  Engine session = Session();
  auto service = session.Serve(ServeOptions{});
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const PartitionedGraph& pg = *session.graph();
  const VertexId a = pg.encoding().ToOriginal(pg.partition(0).begin);
  const VertexId b = pg.encoding().ToOriginal(pg.partition(1).begin);
  auto response = (*service)->PartitionPath(a, b).get();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------ validation paths

TEST(GraphServiceTest, RejectsOutOfRangeAndOversizedQueriesImmediately) {
  Engine session = Session();
  auto service = session.Serve(ServeOptions{});
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const VertexId n = Fixture().graph.num_vertices();

  auto out_of_range = (*service)->Rank(n).get();
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kInvalidArgument);

  auto oversized_k = (*service)->KHop(0, /*k=*/999).get();
  ASSERT_FALSE(oversized_k.ok());
  EXPECT_EQ(oversized_k.status().code(), StatusCode::kInvalidArgument);

  EXPECT_GE((*service)->stats().rejected, 2u);
}

TEST(GraphServiceTest, ServeOptionsValidateRejectsNonsense) {
  Engine session = Session();
  ServeOptions zero_workers;
  zero_workers.num_workers = 0;
  EXPECT_FALSE(session.Serve(zero_workers).ok());

  ServeOptions zero_window;
  zero_window.admission_window_bytes = 0;
  EXPECT_FALSE(session.Serve(zero_window).ok());

  ServeOptions bad_damping;
  bad_damping.rank_damping = 1.5;
  EXPECT_FALSE(session.Serve(bad_damping).ok());
}

// ------------------------------------------------------- load shedding

TEST(GraphServiceTest, ShedsWithResourceExhaustedWhenAdmissionWindowFull) {
  Engine session = Session();
  ServeOptions options;
  options.start_workers = false;  // nothing drains: fill deterministically
  // One max-k k-hop weighs 16 KiB (EstimateCostBytes cap); a 20 KiB window
  // admits the first (it fits) and the second only via... it does not fit:
  // 16 KiB + 16 KiB > 20 KiB, so the second must shed.
  options.admission_window_bytes = 20 << 10;
  auto service = session.Serve(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  auto first = (*service)->KHop(0, 8);
  auto second = (*service)->KHop(1, 8);

  // The shed future resolves IMMEDIATELY (workers are not even running), so
  // a bounded get() proves submission never blocks.
  ASSERT_EQ(second.wait_for(std::chrono::seconds(5)),
            std::future_status::ready)
      << "full admission window blocked the caller";
  auto shed = second.get();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ((*service)->stats().shed_admission, 1u);

  // The admitted query completes once workers start.
  (*service)->Start();
  auto admitted = first.get();
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  (*service)->Stop();
}

TEST(GraphServiceTest, ShedsExpiredQueriesAtDequeueWithResourceExhausted) {
  Engine session = Session();
  ServeOptions options;
  options.start_workers = false;
  auto service = session.Serve(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  serve::QueryOptions tight;
  tight.deadline = std::chrono::milliseconds(1);
  auto future = (*service)->KHop(0, 2, tight);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  (*service)->Start();  // worker dequeues a long-expired query
  auto response = future.get();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ((*service)->stats().shed_deadline, 1u);
}

TEST(GraphServiceTest, StopResolvesQueuedQueriesWithUnavailable) {
  Engine session = Session();
  ServeOptions options;
  options.start_workers = false;
  auto service = session.Serve(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  auto future = (*service)->Rank(0);
  (*service)->Stop();  // never started: the queued query must not hang
  auto response = future.get();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
}

// ------------------------------------------------ concurrency + metrics

/// How long a test waits for one answer. Any answer arrives well within it
/// on a loaded or sanitized host, so a query still pending was stranded by
/// a lost wake-up: workers wait without a timeout, so nothing would ever
/// answer it.
constexpr std::chrono::seconds kLostWakeUp(30);

uint64_t Claims(const serve::ServiceStats& stats) {
  return stats.claims_immediate + stats.claims_spun + stats.claims_parked;
}

// A closed loop of one client and one worker: every query lands just as the
// worker finishes the previous one and looks for more, which is exactly when
// a wake-up can fall between its check for work and its sleep. Workers wait
// without a timeout, so a lost wake-up strands the query for good; the
// bounded wait turns that hang into a named failure. Each claim is counted
// by the way it was made, so the counts must add up to the answers.
TEST(GraphServiceTest, SequentialQueriesNeverMissAWakeUp) {
  Engine session = Session();
  ServeOptions options;
  options.num_workers = 1;
  auto service = session.Serve(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  constexpr int kQueries = 2000;
  const VertexId n = Fixture().graph.num_vertices();
  for (int q = 0; q < kQueries; ++q) {
    auto future = (*service)->Rank(static_cast<VertexId>(q) % n);
    ASSERT_EQ(future.wait_for(kLostWakeUp), std::future_status::ready)
        << "query " << q << " was never claimed: a wake-up was lost";
    auto response = future.get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
  }
  const serve::ServiceStats stats = (*service)->stats();
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kQueries));
  EXPECT_EQ(Claims(stats), stats.completed);
}

// Queries spaced well beyond the spin budget find the worker parked, so the
// park-and-notify path, not the spin, is what answers them.
TEST(GraphServiceTest, QueriesSpacedPastTheSpinBudgetWakeParkedWorkers) {
  Engine session = Session();
  ServeOptions options;
  options.num_workers = 1;
  auto service = session.Serve(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  constexpr int kQueries = 20;
  for (int q = 0; q < kQueries; ++q) {
    std::this_thread::sleep_for(4 * runtime::BspBarrier::kSpinBudget);
    auto future = (*service)->Rank(static_cast<VertexId>(q));
    ASSERT_EQ(future.wait_for(kLostWakeUp), std::future_status::ready)
        << "query " << q << " never woke the parked worker";
    ASSERT_TRUE(future.get().ok());
  }
  const serve::ServiceStats stats = (*service)->stats();
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kQueries));
  EXPECT_EQ(Claims(stats), stats.completed);
  EXPECT_GT(stats.claims_parked, 0u);
}

TEST(GraphServiceTest, ServedRunReportPassesSchemaWithoutDrops) {
  Engine session = Session();
  ServeOptions options;
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  options.metrics = &metrics;
  options.tracer = &tracer;
  auto service = session.Serve(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  // A 3:1 k-hop to rank mix over a small hot set, so the cache serves hits.
  constexpr int kQueries = 400;
  constexpr VertexId kHotSet = 64;
  for (int q = 0; q < kQueries; ++q) {
    const VertexId v = static_cast<VertexId>((q * 131) % kHotSet);
    if (q % 4 == 0) {
      ASSERT_TRUE((*service)->Rank(v).get().ok());
    } else {
      ASSERT_TRUE(
          (*service)->KHop(v, 1 + static_cast<uint32_t>(q % 2)).get().ok());
    }
  }
  // Stop joins the workers, so every query's span has been recorded.
  (*service)->Stop();
  const serve::ServiceStats stats = (*service)->stats();
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kQueries));
  EXPECT_GT(stats.cache_hits, 0u);

  obs::RunReportOptions report_options;
  report_options.name = "serve_test";
  const obs::JsonValue report =
      obs::BuildRunReport(report_options, nullptr, &metrics, &tracer);
  const Status schema = obs::ValidateRunReport(report);
  ASSERT_TRUE(schema.ok()) << schema.ToString();

  // No event was lost: one serve span per completed query.
  if (obs::Tracer::CompiledIn()) {
    uint64_t serve_spans = 0;
    for (const obs::JsonValue& span :
         report.Find("trace")->Find("spans")->as_array()) {
      const std::string& name = span.Find("name")->as_string();
      if (name == "serve_khop" || name == "serve_rank") {
        serve_spans += static_cast<uint64_t>(span.Find("count")->as_number());
      }
    }
    EXPECT_EQ(serve_spans, stats.completed);
  }

  // The gate a report artifact passes, with drops escalated to failures.
  obs::BenchCheckOptions strict;
  strict.strict_drops = true;
  const obs::BenchCheckResult check =
      obs::CheckBenchBaseline(report, report, strict);
  EXPECT_TRUE(check.ok) << (check.failures.empty() ? std::string()
                                                   : check.failures.front());
}

TEST(GraphServiceTest, ConcurrentClientsUnderSmallAdmissionWindow) {
  Engine session = Session();
  ServeOptions options;
  options.num_workers = 3;
  // Small window so admission shedding genuinely happens under load.
  options.admission_window_bytes = 8 << 10;
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;
  auto service = session.Serve(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 40;
  const VertexId n = Fixture().graph.num_vertices();
  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int q = 0; q < kQueriesPerClient; ++q) {
        const VertexId v = static_cast<VertexId>((c * 9973 + q * 131) % n);
        if (q % 3 == 0) {
          auto response = (*service)->Rank(v).get();
          if (response.ok()) {
            answered.fetch_add(1);
          } else if (response.status().code() ==
                     StatusCode::kResourceExhausted) {
            shed.fetch_add(1);
          } else {
            wrong.fetch_add(1);
          }
        } else {
          auto response = (*service)->KHop(v, 1 + (q % 2)).get();
          if (response.ok()) {
            answered.fetch_add(1);
          } else if (response.status().code() ==
                     StatusCode::kResourceExhausted) {
            shed.fetch_add(1);
          } else {
            wrong.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  (*service)->Stop();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GT(answered.load(), 0u);
  const serve::ServiceStats stats = (*service)->stats();
  EXPECT_EQ(stats.completed, answered.load());
  EXPECT_EQ(answered.load() + shed.load(),
            static_cast<uint64_t>(kClients * kQueriesPerClient));
  // Every completed query priced the latency histogram (shed queries never
  // reach execution, so they record no latency).
  EXPECT_EQ(stats.latency_us.count(), stats.completed);

  // serve_* metrics exported through the registry.
  uint64_t exported_queries = 0;
  for (const obs::MetricSample& sample : metrics.Snapshot()) {
    if (sample.name == "serve_queries_total") {
      exported_queries += static_cast<uint64_t>(sample.value);
    }
  }
  EXPECT_EQ(exported_queries,
            static_cast<uint64_t>(kClients * kQueriesPerClient));
  // serve_latency_us is filled from the workers' own histograms when Stop
  // joins them, once: a second Stop adds nothing.
  (*service)->Stop();
  EXPECT_EQ(metrics.HistogramRef("serve_latency_us").Snapshot().count(),
            stats.completed);
}

// Stop lands while four clients are still submitting, and the clients send
// their second halves after it returned: every future must still resolve
// (answered, shed, or kUnavailable), and the service's counts must account
// for every query the clients sent.
TEST(GraphServiceTest, StopWhileClientsSubmitResolvesEveryFuture) {
  Engine session = Session();
  ServeOptions options;
  options.num_workers = 2;
  options.admission_window_bytes = 16 << 10;
  auto service = session.Serve(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 300;
  const VertexId n = Fixture().graph.num_vertices();
  std::atomic<int> sent{0};
  std::atomic<bool> stopped{false};
  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> exhausted{0};
  std::atomic<uint64_t> unavailable{0};
  std::atomic<uint64_t> wrong{0};
  std::atomic<uint64_t> hung{0};
  const auto classify = [&](const Status& status) {
    if (status.ok()) {
      answered.fetch_add(1);
    } else if (status.code() == StatusCode::kResourceExhausted) {
      exhausted.fetch_add(1);
    } else if (status.code() == StatusCode::kUnavailable) {
      unavailable.fetch_add(1);
    } else {
      wrong.fetch_add(1);
    }
  };
  const auto settle = [&](auto& future) {
    if (future.wait_for(kLostWakeUp) != std::future_status::ready) {
      hung.fetch_add(1);
      return;
    }
    auto response = future.get();
    classify(response.status());
  };
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::future<Result<serve::KHopResponse>>> khops;
      std::vector<std::future<Result<serve::PathResponse>>> paths;
      std::vector<std::future<Result<serve::RankResponse>>> ranks;
      for (int q = 0; q < kQueriesPerClient; ++q) {
        if (q == kQueriesPerClient / 2) {
          while (!stopped.load()) {
            std::this_thread::yield();
          }
        }
        const VertexId v = static_cast<VertexId>((c * 9973 + q * 131) % n);
        switch (q % 3) {
          case 0:
            khops.push_back((*service)->KHop(v, 1 + (q % 2)));
            break;
          case 1:
            // A self-path always exists, so it answers ok when served.
            paths.push_back((*service)->PartitionPath(v, v));
            break;
          default:
            ranks.push_back((*service)->Rank(v));
            break;
        }
        sent.fetch_add(1);
      }
      for (auto& future : khops) {
        settle(future);
      }
      for (auto& future : paths) {
        settle(future);
      }
      for (auto& future : ranks) {
        settle(future);
      }
    });
  }
  std::thread stopper([&] {
    while (sent.load() < kClients * kQueriesPerClient / 4) {
      std::this_thread::yield();
    }
    (*service)->Stop();
    stopped.store(true);
  });
  for (std::thread& client : clients) {
    client.join();
  }
  stopper.join();

  constexpr uint64_t kTotal = kClients * kQueriesPerClient;
  EXPECT_EQ(hung.load(), 0u) << "a future never resolved";
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(answered.load() + exhausted.load() + unavailable.load(), kTotal);
  // Workers drain what was published before they stop, and every query sent
  // after Stop returned is resolved by its own submitter.
  EXPECT_GT(answered.load(), 0u);
  EXPECT_GE(unavailable.load(), kTotal / 2);
  const serve::ServiceStats stats = (*service)->stats();
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.completed, answered.load());
  EXPECT_EQ(stats.shed_admission + stats.shed_deadline, exhausted.load());
  EXPECT_EQ(stats.unavailable, unavailable.load());
  EXPECT_EQ(stats.completed + stats.shed_admission + stats.shed_deadline +
                stats.unavailable,
            kTotal);
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.shed_deadline + stats.unavailable);
  EXPECT_EQ(Claims(stats), stats.completed + stats.shed_deadline);
}

// A worker's trace shard holds kDefaultShardCapacity serve spans until Stop
// flushes it; the spans beyond are dropped, counted in ServiceStats and in
// the serve_trace_events_dropped metric, and the report's strict drop gate
// fails on them.
TEST(GraphServiceTest, FullTraceShardDropsAndCountsServeSpans) {
  if (!obs::Tracer::CompiledIn()) {
    GTEST_SKIP() << "tracing compiled out";
  }
  Engine session = Session();
  ServeOptions options;
  options.num_workers = 1;
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  options.metrics = &metrics;
  options.tracer = &tracer;
  auto service = session.Serve(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  constexpr uint64_t kOverflow = 50;
  constexpr uint64_t kQueries =
      obs::ShardedTracer::kDefaultShardCapacity + kOverflow;
  for (uint64_t q = 0; q < kQueries; ++q) {
    ASSERT_TRUE((*service)->Rank(static_cast<VertexId>(q % 64)).get().ok());
  }
  (*service)->Stop();
  const serve::ServiceStats stats = (*service)->stats();
  EXPECT_EQ(stats.completed, kQueries);
  EXPECT_EQ(stats.trace_events_dropped, kOverflow);
  EXPECT_EQ(tracer.num_events(), obs::ShardedTracer::kDefaultShardCapacity);

  obs::RunReportOptions report_options;
  report_options.name = "serve_test";
  const obs::JsonValue report =
      obs::BuildRunReport(report_options, nullptr, &metrics, &tracer);
  ASSERT_TRUE(obs::ValidateRunReport(report).ok());
  obs::BenchCheckOptions strict;
  strict.strict_drops = true;
  const obs::BenchCheckResult check =
      obs::CheckBenchBaseline(report, report, strict);
  EXPECT_FALSE(check.ok);
  ASSERT_FALSE(check.failures.empty());
  EXPECT_NE(check.failures.front().find("serve_trace_events_dropped"),
            std::string::npos)
      << check.failures.front();
}

}  // namespace
}  // namespace surfer

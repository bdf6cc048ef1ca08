#include <atomic>
#include <bit>
#include <functional>
#include <set>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include <gtest/gtest.h>

#include "common/histogram.h"
#include "common/host.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/units.h"

namespace surfer {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IOError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(s.message(), "disk on fire");
  EXPECT_EQ(s.ToString(), "IOError: disk on fire");
}

TEST(StatusTest, AllConstructorsMapToCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::NotSupported("x").code(), StatusCode::kNotSupported);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::IOError("a"));
}

Status FailsWhenNegative(int x) {
  if (x < 0) {
    return Status::InvalidArgument("negative");
  }
  return Status::OK();
}

Status UsesReturnIfError(int x) {
  SURFER_RETURN_IF_ERROR(FailsWhenNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(UsesReturnIfError(1).ok());
  EXPECT_EQ(UsesReturnIfError(-1).code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------- Result

Result<int> ParsePositive(int x) {
  if (x <= 0) {
    return Status::OutOfRange("not positive");
  }
  return x;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.value_or(0), 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(r.value_or(42), 42);
}

Result<int> DoubleIt(int x) {
  SURFER_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto ok = DoubleIt(4);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 8);
  EXPECT_FALSE(DoubleIt(0).ok());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

// ------------------------------------------------------------------- Rng

TEST(HostThreadsTest, AtLeastOne) { EXPECT_GE(HostThreads(), 1u); }

#if defined(__linux__)
// A thread confined to one CPU (what taskset -c 0 does to a process) counts
// one hardware thread, whatever the machine has.
TEST(HostThreadsTest, CountsTheAffinityMask) {
  uint32_t pinned = 0;
  bool pinned_ok = false;
  std::thread probe([&] {
    cpu_set_t current;
    CPU_ZERO(&current);
    if (sched_getaffinity(0, sizeof(current), &current) != 0) {
      return;
    }
    int cpu = 0;
    while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &current)) {
      ++cpu;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ok = sched_setaffinity(0, sizeof(one), &one) == 0;
    pinned = HostThreads();
  });
  probe.join();
  ASSERT_TRUE(pinned_ok);
  EXPECT_EQ(pinned, 1u);
}
#endif

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(MixSeedTest, DistinctStreamsDecorrelate) {
  // Nearby (seed, stream) pairs must land on distinct derived seeds — the
  // additive schemes this replaced (seed + depth * 7919) collided across
  // (seed, depth) pairs and correlated nearby shuffles.
  std::set<uint64_t> derived;
  for (uint64_t seed = 0; seed < 32; ++seed) {
    for (uint64_t stream = 0; stream < 32; ++stream) {
      derived.insert(MixSeed(seed, stream));
    }
  }
  EXPECT_EQ(derived.size(), 32u * 32u);
}

TEST(MixSeedTest, DeterministicAndAvalanching) {
  EXPECT_EQ(MixSeed(1, 2), MixSeed(1, 2));
  // A one-bit stream change should flip roughly half the output bits.
  const uint64_t diff = MixSeed(42, 7) ^ MixSeed(42, 6);
  EXPECT_GT(std::popcount(diff), 16);
  EXPECT_LT(std::popcount(diff), 48);
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    differing += a.Next() != b.Next();
  }
  EXPECT_GT(differing, 28);
}

TEST(RngTest, UniformStaysInBounds) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    seen.insert(rng.Uniform(8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(6);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    hits += rng.Bernoulli(0.25);
  }
  EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

// ----------------------------------------------------------------- Units

TEST(UnitsTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2048), "2.00 KiB");
  EXPECT_EQ(FormatBytes(3.5 * kMiB), "3.50 MiB");
  EXPECT_EQ(FormatBytes(1.25 * kGiB), "1.25 GiB");
}

TEST(UnitsTest, FormatSeconds) {
  EXPECT_EQ(FormatSeconds(0.002), "2.0 ms");
  EXPECT_EQ(FormatSeconds(2.5), "2.50 s");
  EXPECT_EQ(FormatSeconds(120.0), "2.0 min");
  EXPECT_EQ(FormatSeconds(7200.0), "2.00 h");
}

TEST(UnitsTest, BitsToBytes) {
  EXPECT_DOUBLE_EQ(BitsPerSecToBytesPerSec(8e9), 1e9);
}

// ------------------------------------------------------------- Histogram

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(50), 0.0);
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    h.Add(v);
  }
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.Mean(), 2.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
  EXPECT_NEAR(h.StdDev(), 1.118, 0.01);
}

TEST(HistogramTest, PercentileApproximation) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) {
    h.Add(static_cast<double>(i));
  }
  // Log-bucketed percentiles are coarse; allow 2x slack.
  EXPECT_GT(h.Percentile(99), 300.0);
  EXPECT_LT(h.Percentile(10), 256.0);
}

TEST(HistogramTest, MergeMatchesCombinedAdds) {
  Histogram a;
  Histogram b;
  Histogram combined;
  for (int i = 0; i < 50; ++i) {
    a.Add(i);
    combined.Add(i);
  }
  for (int i = 50; i < 100; ++i) {
    b.Add(i);
    combined.Add(i);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_DOUBLE_EQ(a.Mean(), combined.Mean());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
}

TEST(FrequencyCounterTest, CountsAndMerges) {
  FrequencyCounter a;
  a.Add(3);
  a.Add(3);
  a.Add(5, 4);
  EXPECT_EQ(a.Get(3), 2u);
  EXPECT_EQ(a.Get(5), 4u);
  EXPECT_EQ(a.Get(99), 0u);
  EXPECT_EQ(a.total(), 6u);
  FrequencyCounter b;
  b.Add(3, 1);
  b.Add(7, 2);
  a.Merge(b);
  EXPECT_EQ(a.Get(3), 3u);
  EXPECT_EQ(a.Get(7), 2u);
  EXPECT_EQ(a.distinct(), 3u);
  const auto sorted = a.Sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].first, 3u);
  EXPECT_EQ(sorted[2].first, 7u);
}

// ----------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForZeroAndOne) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

// ------------------------------------------------------------ TaskGroup

TEST(TaskGroupTest, WaitsOnlyForItsOwnTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 64; ++i) {
    group.Submit([&] { counter.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(counter.load(), 64);
  // Reusable after a wait.
  group.Submit([&] { counter.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(counter.load(), 65);
}

TEST(TaskGroupTest, NullPoolRunsInline) {
  TaskGroup group(nullptr);
  int order = 0;
  int first = -1;
  int second = -1;
  group.Submit([&] { first = order++; });
  group.Submit([&] { second = order++; });
  group.Wait();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST(TaskGroupTest, TasksMaySpawnMoreTasks) {
  // Recursive fan-out: every task submits two children until a depth cap.
  // The group must count the late submissions and Wait for all of them.
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  TaskGroup group(&pool);
  std::function<void(int)> spawn = [&](int depth) {
    counter.fetch_add(1);
    if (depth < 5) {
      group.Submit([&spawn, depth] { spawn(depth + 1); });
      group.Submit([&spawn, depth] { spawn(depth + 1); });
    }
  };
  group.Submit([&spawn] { spawn(0); });
  group.Wait();
  EXPECT_EQ(counter.load(), (1 << 6) - 1);
}

TEST(TaskGroupTest, NestedWaitInsideWorkerDoesNotDeadlock) {
  // Every worker blocks in a nested group Wait at once; helping (the waiter
  // drains the shared queue itself) is what keeps this from deadlocking.
  ThreadPool pool(2);
  std::atomic<int> inner_runs{0};
  TaskGroup outer(&pool);
  for (int i = 0; i < 4; ++i) {
    outer.Submit([&] {
      TaskGroup inner(&pool);
      for (int j = 0; j < 8; ++j) {
        inner.Submit([&] { inner_runs.fetch_add(1); });
      }
      inner.Wait();
    });
  }
  outer.Wait();
  EXPECT_EQ(inner_runs.load(), 32);
}

TEST(TaskGroupTest, ParallelForChunkedCoversDisjointRanges) {
  ThreadPool pool(3);
  std::vector<int> hits(10000, 0);
  ParallelForChunked(&pool, hits.size(), /*grain=*/64,
                     [&](size_t begin, size_t end) {
                       for (size_t i = begin; i < end; ++i) {
                         ++hits[i];  // disjoint ranges: no atomics needed
                       }
                     });
  for (int h : hits) {
    ASSERT_EQ(h, 1);
  }
  // Null pool and tiny n run inline.
  int calls = 0;
  ParallelForChunked(nullptr, 5, 64, [&](size_t begin, size_t end) {
    ++calls;
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 5u);
  });
  EXPECT_EQ(calls, 1);
  ParallelForChunked(&pool, 0, 64, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

// -------------------------------------------------------------- Logging

TEST(LoggingTest, LevelGate) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_FALSE(SURFER_LOG_ENABLED(kInfo));
  EXPECT_TRUE(SURFER_LOG_ENABLED(kError));
  SetLogLevel(LogLevel::kDebug);
  EXPECT_TRUE(SURFER_LOG_ENABLED(kInfo));
  SetLogLevel(original);
}

}  // namespace
}  // namespace surfer

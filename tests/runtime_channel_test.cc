#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/topology.h"
#include "common/host.h"
#include "runtime/barrier.h"
#include "runtime/channel.h"
#include "runtime/channel_plan.h"
#include "runtime/fault.h"

namespace surfer {
namespace runtime {
namespace {

// ------------------------------------------------------------ channels

TEST(BoundedChannelTest, FifoOrderAndStats) {
  BoundedChannel<int> ch(4);
  for (int i = 0; i < 4; ++i) {
    int item = i;
    EXPECT_TRUE(ch.TrySend(item));
  }
  EXPECT_EQ(ch.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    auto item = ch.TryRecv();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, i);
  }
  EXPECT_FALSE(ch.TryRecv().has_value());
  const ChannelStats stats = ch.stats();
  EXPECT_EQ(stats.capacity, 4u);
  EXPECT_EQ(stats.sends, 4u);
  EXPECT_EQ(stats.receives, 4u);
  EXPECT_EQ(stats.stall_attempts, 0u);
  EXPECT_EQ(stats.items_stalled, 0u);
  EXPECT_EQ(stats.max_depth, 4u);
  EXPECT_EQ(stats.depth_on_send.count(), 4u);
}

TEST(BoundedChannelTest, FullChannelRejectsAndCountsStalls) {
  BoundedChannel<int> ch(2);
  int item = 1;
  EXPECT_TRUE(ch.TrySend(item));
  item = 2;
  EXPECT_TRUE(ch.TrySend(item));
  item = 99;
  EXPECT_FALSE(ch.TrySend(item));
  EXPECT_EQ(item, 99);  // failed send leaves the item intact
  EXPECT_FALSE(
      ch.TrySendFor(item, std::chrono::milliseconds(5)));
  EXPECT_EQ(ch.stats().stall_attempts, 2u);
  // Both failures defaulted to is_retry=false, so each counts as a fresh
  // stalled item.
  EXPECT_EQ(ch.stats().items_stalled, 2u);
  EXPECT_EQ(ch.size(), 2u);
}

TEST(BoundedChannelTest, RetriesCountAttemptsNotItems) {
  BoundedChannel<int> ch(1);
  int item = 1;
  ASSERT_TRUE(ch.TrySend(item));
  item = 2;
  EXPECT_FALSE(ch.TrySend(item));  // first failure: a new stalled item
  EXPECT_FALSE(ch.TrySend(item, /*weight=*/1, /*is_retry=*/true));
  EXPECT_FALSE(ch.TrySend(item, /*weight=*/1, /*is_retry=*/true));
  const ChannelStats stats = ch.stats();
  EXPECT_EQ(stats.stall_attempts, 3u);
  EXPECT_EQ(stats.items_stalled, 1u);
}

TEST(BoundedChannelTest, WeightedAdmissionModelsBytesInFlight) {
  BoundedChannel<int> ch(100);
  int item = 1;
  EXPECT_TRUE(ch.TrySend(item, /*weight=*/60));
  item = 2;
  EXPECT_FALSE(ch.TrySend(item, /*weight=*/50));  // 60 + 50 > 100
  EXPECT_TRUE(ch.TrySend(item, /*weight=*/40));   // 60 + 40 == 100 fits
  EXPECT_EQ(ch.size(), 2u);
  ASSERT_TRUE(ch.TryRecv().has_value());  // frees 60
  item = 3;
  EXPECT_TRUE(ch.TrySend(item, /*weight=*/50));  // 40 + 50 <= 100
}

TEST(BoundedChannelTest, OversizedItemAdmittedOnlyWhenEmpty) {
  BoundedChannel<int> ch(10);
  int big = 1;
  // Heavier than the whole capacity, but the queue is empty: progress wins.
  EXPECT_TRUE(ch.TrySend(big, /*weight=*/64));
  int next = 2;
  EXPECT_FALSE(ch.TrySend(next, /*weight=*/1));  // queue non-empty, over budget
  ASSERT_TRUE(ch.TryRecv().has_value());
  EXPECT_TRUE(ch.TrySend(next, /*weight=*/1));
}

TEST(BoundedChannelTest, ProducerBlocksOnFullChannelUntilConsumerDrains) {
  BoundedChannel<int> ch(1);
  int item = 1;
  ASSERT_TRUE(ch.TrySend(item));

  std::atomic<bool> sent{false};
  std::thread producer([&] {
    ch.Send(2);  // must block: the single slot is taken
    sent.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(sent.load()) << "producer should be blocked on the full channel";

  auto first = ch.TryRecv();  // frees the slot, unblocking the producer
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, 1);
  producer.join();
  EXPECT_TRUE(sent.load());
  auto second = ch.TryRecv();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, 2);
}

TEST(BoundedChannelTest, MinimumCapacityIsOne) {
  BoundedChannel<int> ch(0);
  EXPECT_EQ(ch.capacity(), 1u);
}

// ------------------------------------------------------------- barrier

TEST(BspBarrierTest, GenerationsAdvanceAcrossThreads) {
  constexpr uint32_t kThreads = 4;
  constexpr int kRounds = 25;
  BspBarrier barrier(kThreads);
  std::atomic<uint32_t> inside{0};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        inside.fetch_add(1);
        barrier.ArriveAndWait();
        // Everyone must have entered this round before anyone proceeds.
        EXPECT_GE(inside.load(), (round + 1) * kThreads);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(barrier.generation(), static_cast<uint64_t>(kRounds));
}

TEST(BspBarrierTest, PollCallbackRunsWhileWaiting) {
  BspBarrier barrier(2);
  std::atomic<uint64_t> polls{0};
  std::thread waiter([&] {
    barrier.ArriveAndWait([&] { polls.fetch_add(1); });
  });
  // Give the waiter time to spin on the poll loop before releasing it.
  while (polls.load() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  barrier.ArriveAndWait();
  waiter.join();
  EXPECT_GE(polls.load(), 3u);
}

TEST(BspBarrierTest, DefectReleasesCurrentGeneration) {
  // Two of three participants arrive; the third defects (worker death) and
  // the generation must complete for the two waiters.
  BspBarrier barrier(3);
  std::thread a([&] { barrier.ArriveAndWait(); });
  std::thread b([&] { barrier.ArriveAndWait(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(barrier.generation(), 0u);
  barrier.Defect();
  a.join();
  b.join();
  EXPECT_EQ(barrier.generation(), 1u);
  EXPECT_EQ(barrier.participants(), 2u);
  // The barrier stays usable at the reduced membership.
  std::thread c([&] { barrier.ArriveAndWait(); });
  barrier.ArriveAndWait();
  c.join();
  EXPECT_EQ(barrier.generation(), 2u);
}

/// Yields until `barrier` reports at least `n` threads inside ArriveAndWait.
void AwaitWaiters(const BspBarrier& barrier, uint32_t n) {
  while (barrier.ApproxWaiting() < n) {
    std::this_thread::yield();
  }
}

// Spin timing depends on scheduling the test does not control, so the
// spin-path tests below retry until one release lands inside the budget;
// each trial still checks the invariants that hold either way.
constexpr int kSpinTrials = 200;

TEST(BspBarrierTest, ReleaseInsideSpinBudgetIsSeenWithoutParking) {
  // The main thread arrives only after ApproxWaiting() counts the waiter, so
  // a trial whose waiter was released spinning also shows that spinning
  // waiters are counted (the telemetry barrier-congestion scan reads it).
  BspBarrier barrier(2);
  bool released_spinning = false;
  for (int trial = 0; trial < kSpinTrials && !released_spinning; ++trial) {
    const BspBarrier::WaitCounts before = barrier.wait_counts();
    std::thread waiter([&] { barrier.ArriveAndWait({}, /*spin=*/true); });
    AwaitWaiters(barrier, 1);
    EXPECT_EQ(barrier.ApproxWaiting(), 1u);
    EXPECT_EQ(barrier.ArriveAndWait(), 0.0);  // the last arriver never waits
    waiter.join();
    EXPECT_EQ(barrier.ApproxWaiting(), 0u);
    const BspBarrier::WaitCounts after = barrier.wait_counts();
    EXPECT_EQ(after.spun + after.parked, before.spun + before.parked + 1);
    released_spinning = after.spun > before.spun;
  }
  EXPECT_TRUE(released_spinning);
}

TEST(BspBarrierTest, ReleaseAfterSpinBudgetReturnsThroughParkedPath) {
  BspBarrier barrier(2);
  std::atomic<uint64_t> polls{0};
  std::thread waiter([&] {
    barrier.ArriveAndWait([&] { polls.fetch_add(1); }, /*spin=*/true);
  });
  AwaitWaiters(barrier, 1);
  // Far past the budget, the waiter has parked; it must keep polling there.
  std::this_thread::sleep_for(BspBarrier::kSpinBudget * 50);
  const uint64_t polls_after_budget = polls.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GT(polls.load(), polls_after_budget);
  barrier.ArriveAndWait();
  waiter.join();
  const BspBarrier::WaitCounts counts = barrier.wait_counts();
  EXPECT_EQ(counts.spun, 0u);
  EXPECT_EQ(counts.parked, 1u);
  EXPECT_EQ(barrier.generation(), 1u);
}

TEST(BspBarrierTest, DefectReleasesSpinningWaiters) {
  bool released_spinning = false;
  for (int trial = 0; trial < kSpinTrials && !released_spinning; ++trial) {
    BspBarrier barrier(3);
    std::thread a([&] { barrier.ArriveAndWait({}, /*spin=*/true); });
    std::thread b([&] { barrier.ArriveAndWait({}, /*spin=*/true); });
    AwaitWaiters(barrier, 2);
    barrier.Defect();
    a.join();
    b.join();
    EXPECT_EQ(barrier.generation(), 1u);
    EXPECT_EQ(barrier.participants(), 2u);
    const BspBarrier::WaitCounts counts = barrier.wait_counts();
    EXPECT_EQ(counts.spun + counts.parked, 2u);
    released_spinning = counts.spun > 0;
  }
  EXPECT_TRUE(released_spinning);
}

TEST(BspBarrierTest, SpinsOnlyWhenSpinnersFitTheHost) {
  const uint32_t host = HostThreads();
  ASSERT_GE(host, 1u);
  EXPECT_FALSE(BspBarrier::SpinFits(host + 1));
  // A single hardware thread never spins: the spinner would hold the only
  // CPU the releasing thread needs.
  EXPECT_EQ(BspBarrier::SpinFits(host), host > 1);
  EXPECT_EQ(BspBarrier::SpinFits(1), host > 1);
}

TEST(BspBarrierTest, OversubscribedBarrierParksThrough1000Generations) {
  const uint32_t threads = HostThreads() + 2;
  const bool spin = BspBarrier::SpinFits(threads);
  ASSERT_FALSE(spin);
  constexpr int kGenerations = 1000;
  BspBarrier barrier(threads);
  std::vector<std::thread> pool;
  for (uint32_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (int g = 0; g < kGenerations; ++g) {
        barrier.ArriveAndWait({}, spin);
      }
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }
  EXPECT_EQ(barrier.generation(), static_cast<uint64_t>(kGenerations));
  const BspBarrier::WaitCounts counts = barrier.wait_counts();
  EXPECT_EQ(counts.spun, 0u);
  EXPECT_EQ(counts.parked, static_cast<uint64_t>(kGenerations) * (threads - 1));
}

TEST(BspBarrierTest, LastReleaseStampsEachFlip) {
  BspBarrier barrier(2);
  const auto before = std::chrono::steady_clock::now();
  std::thread waiter([&] { barrier.ArriveAndWait(); });
  barrier.ArriveAndWait();
  waiter.join();
  const auto after = std::chrono::steady_clock::now();
  EXPECT_GE(barrier.last_release(), before);
  EXPECT_LE(barrier.last_release(), after);
}

// -------------------------------------------------------- channel plan

TEST(ChannelPlanTest, UniformTopologyGetsUniformCapacities) {
  const Topology t1 = Topology::T1(4);
  const std::vector<size_t> caps = PlanChannelCapacities(t1, 32);
  ASSERT_EQ(caps.size(), 16u);
  for (size_t cap : caps) {
    EXPECT_EQ(cap, 32u);
  }
}

TEST(ChannelPlanTest, CrossPodLinksAreNarrow) {
  // T2 with two pods and a 16x cross-pod slowdown: intra-pod pairs keep the
  // base capacity, cross-pod pairs get base/16, self links stay at base.
  const Topology t2 = Topology::T2(4, 2, 1, /*second_level_factor=*/16.0);
  const uint32_t n = t2.num_machines();
  const std::vector<size_t> caps = PlanChannelCapacities(t2, 32);
  for (uint32_t a = 0; a < n; ++a) {
    for (uint32_t b = 0; b < n; ++b) {
      const size_t cap = caps[a * n + b];
      if (a == b) {
        EXPECT_EQ(cap, 32u);
      } else if (t2.machine(a).pod == t2.machine(b).pod) {
        EXPECT_EQ(cap, 32u);
      } else {
        EXPECT_EQ(cap, 2u);  // 32 / 16
      }
    }
  }
}

TEST(ChannelPlanTest, CapacityNeverDropsBelowOne) {
  const Topology t2 = Topology::T2(4, 2, 1, /*second_level_factor=*/128.0);
  const std::vector<size_t> caps = PlanChannelCapacities(t2, 4);
  for (size_t cap : caps) {
    EXPECT_GE(cap, 1u);  // 4/128 rounds to 0 and must clamp
  }
}

// --------------------------------------------------------------- fault

TEST(FaultControllerTest, KillsAtTaskGranularity) {
  FaultController controller({RuntimeFaultPlan{
      .machine = 3, .iteration = 1, .stage = RuntimeStage::kTransfer,
      .after_tasks = 2}});
  EXPECT_FALSE(controller.ShouldKill(3, 1, RuntimeStage::kTransfer, 0));
  EXPECT_FALSE(controller.ShouldKill(3, 1, RuntimeStage::kTransfer, 1));
  EXPECT_TRUE(controller.ShouldKill(3, 1, RuntimeStage::kTransfer, 2));
  EXPECT_TRUE(controller.ShouldKill(3, 1, RuntimeStage::kTransfer, 5));
  // Wrong machine / iteration / stage never fire.
  EXPECT_FALSE(controller.ShouldKill(2, 1, RuntimeStage::kTransfer, 9));
  EXPECT_FALSE(controller.ShouldKill(3, 0, RuntimeStage::kTransfer, 9));
  EXPECT_FALSE(controller.ShouldKill(3, 1, RuntimeStage::kCombine, 9));
  EXPECT_TRUE(FaultController{}.empty());
}

}  // namespace
}  // namespace runtime
}  // namespace surfer

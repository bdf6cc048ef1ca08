#include "runtime/barrier.h"

#include "common/host.h"

namespace surfer {
namespace runtime {

BspBarrier::BspBarrier(uint32_t participants) : participants_(participants) {}

bool BspBarrier::SpinFits(uint32_t spinners) {
  const uint32_t host = HostThreads();
  return host > 1 && spinners <= host;
}

void BspBarrier::Release(std::unique_lock<std::mutex>& lock) {
  arrived_ = 0;
  release_ticks_.store(
      std::chrono::steady_clock::now().time_since_epoch().count(),
      std::memory_order_relaxed);
  // Release order publishes the flip instant, and everything the arrivers
  // did before arriving, to waiters that observe the new generation
  // without taking the lock.
  generation_.fetch_add(1, std::memory_order_release);
  lock.unlock();
  released_.notify_all();
}

double BspBarrier::ArriveAndWait(const std::function<void()>& poll,
                                 bool spin) {
  const auto start = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t my_generation = generation_.load(std::memory_order_relaxed);
  if (++arrived_ >= participants_) {
    Release(lock);
    return 0.0;
  }
  waiting_.fetch_add(1, std::memory_order_relaxed);
  const auto released = [&] {
    return generation_.load(std::memory_order_acquire) != my_generation;
  };
  const auto finish = [&](std::atomic<uint64_t>& counter) {
    counter.fetch_add(1, std::memory_order_relaxed);
    waiting_.fetch_sub(1, std::memory_order_relaxed);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  if (spin) {
    lock.unlock();
    if (SpinUntil(released, start + kSpinBudget, poll)) {
      return finish(spun_);
    }
    lock.lock();
  }
  while (!released()) {
    if (poll) {
      // Drop the lock so the poll callback can touch channels freely; the
      // generation check re-reads under the lock afterwards.
      lock.unlock();
      poll();
      lock.lock();
      if (released()) {
        break;
      }
      // Short timeout: the poll callback is typically a channel drain, and
      // its cadence bounds the service rate of narrow (low-capacity) links
      // whose consumers are already parked here.
      released_.wait_for(lock, std::chrono::microseconds(100));
    } else {
      released_.wait(lock, released);
    }
  }
  lock.unlock();
  return finish(parked_);
}

void BspBarrier::Defect() {
  std::unique_lock<std::mutex> lock(mu_);
  if (participants_ > 0) {
    --participants_;
  }
  if (arrived_ > 0 && arrived_ >= participants_) {
    Release(lock);
  }
}

uint64_t BspBarrier::generation() const {
  return generation_.load(std::memory_order_acquire);
}

uint32_t BspBarrier::participants() const {
  std::lock_guard<std::mutex> lock(mu_);
  return participants_;
}

}  // namespace runtime
}  // namespace surfer

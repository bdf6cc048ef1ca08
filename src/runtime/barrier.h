#ifndef SURFER_RUNTIME_BARRIER_H_
#define SURFER_RUNTIME_BARRIER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

namespace surfer {
namespace runtime {

/// Checks between two poll-and-yield steps of a spinning waiter.
inline constexpr uint32_t kSpinChecksPerYield = 16;

/// Tells the core this is a spin-wait loop (frees pipeline resources for a
/// sibling hyperthread); a plain no-op where the ISA has no such hint.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// The runtime's one spin-wait: re-evaluates `done` with a CPU pause
/// between checks and, every kSpinChecksPerYield checks, runs `poll` (when
/// set) and yields the CPU; it gives up at the first yield step at or past
/// `deadline`. Returns whether `done` became true. BspBarrier's waiters and
/// the serving plane's idle workers (serve/graph_service.h) both spin
/// through it, and both decide whether to spin at all with
/// BspBarrier::SpinFits. A template so the check inlines into the loop.
template <typename Done>
bool SpinUntil(const Done& done, std::chrono::steady_clock::time_point deadline,
               const std::function<void()>& poll = {}) {
  for (uint32_t check = 1;; ++check) {
    if (done()) {
      return true;
    }
    if (check % kSpinChecksPerYield != 0) {
      CpuRelax();
      continue;
    }
    if (poll) {
      poll();
    }
    // Yielding keeps a straggler sharing this CPU moving; a pause-only
    // spin measured bimodal stage times.
    std::this_thread::yield();
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
  }
}

/// Reusable BSP barrier with dynamic membership.
///
/// Workers call ArriveAndWait between superstep stages; the last arriver
/// flips the generation and releases everyone. Three extensions over a
/// plain std::barrier drive the runtime's needs:
///   - ArriveAndWait accepts a `poll` callback invoked periodically while
///     waiting, so a blocked worker keeps draining its inbound channels
///     (without this, a full channel could deadlock against the barrier).
///   - A waiter may spin for kSpinBudget before parking on the condition
///     variable, so a release that lands soon after it arrived costs no
///     futex wake-up. Callers decide whether to spin with SpinFits.
///   - Defect() removes a participant for all future generations, used when
///     a worker thread exits early; if the defector was the last straggler
///     of the current generation, the generation completes.
class BspBarrier {
 public:
  /// How long a spinning waiter keeps checking the generation before it
  /// parks. On a 4-vCPU host the threaded engine's 20-stage NR job spent
  /// 3-10 ms per job (150-500 us per stage) waking parked workers, against
  /// ~1 ms of load imbalance (~50 us per stage) and ~0.7 ms of task loop per
  /// stage on the slowest worker. 300 us catches the release of a balanced
  /// stage with margin, and a waiter behind a real straggler burns less than
  /// half a stage of CPU before it parks.
  static constexpr std::chrono::microseconds kSpinBudget{300};

  /// Counts of completed waits by how they were released. The last arriver
  /// of a generation does not wait and is counted in neither.
  struct WaitCounts {
    uint64_t spun = 0;    ///< released while still spinning
    uint64_t parked = 0;  ///< released after parking (or never spun)
  };

  explicit BspBarrier(uint32_t participants);

  BspBarrier(const BspBarrier&) = delete;
  BspBarrier& operator=(const BspBarrier&) = delete;

  /// The host rule for spinning: `spinners` threads may spin-wait only when
  /// each fits on its own hardware thread (surfer::HostThreads(), which
  /// counts the CPU affinity set) of a multi-core host. Otherwise
  /// a spinner would take the CPU a straggler or the releasing thread
  /// needs, so waiters park at once.
  static bool SpinFits(uint32_t spinners);

  /// Blocks until all current participants have arrived. Returns the wall
  /// seconds spent waiting. With `spin`, the waiter first spins for
  /// kSpinBudget (yielding the CPU every few checks) and only then parks;
  /// callers pass it only when SpinFits holds for every thread that does.
  /// `poll`, when set, is invoked outside the barrier lock while waiting:
  /// between spin rounds, then roughly every 100 us once parked.
  double ArriveAndWait(const std::function<void()>& poll = {},
                       bool spin = false);

  /// Permanently removes one participant (caller must not arrive afterwards).
  void Defect();

  uint64_t generation() const;
  uint32_t participants() const;

  /// Steady-clock instant at which the most recent generation flipped. A
  /// participant that just left a generation reads that generation's flip:
  /// the next one cannot happen before it arrives again.
  std::chrono::steady_clock::time_point last_release() const {
    return std::chrono::steady_clock::time_point(
        std::chrono::steady_clock::duration(
            release_ticks_.load(std::memory_order_acquire)));
  }

  WaitCounts wait_counts() const {
    return {spun_.load(std::memory_order_relaxed),
            parked_.load(std::memory_order_relaxed)};
  }

  /// Participants currently inside ArriveAndWait, spinning or parked.
  /// Lock-free mirror for the telemetry sampler: a sustained value near
  /// participants() - 1 means everyone is idling behind one straggler.
  uint32_t ApproxWaiting() const {
    return waiting_.load(std::memory_order_relaxed);
  }

 private:
  /// Completes the current generation; `lock` must hold mu_ on entry and is
  /// released before waking the parked waiters.
  void Release(std::unique_lock<std::mutex>& lock);

  mutable std::mutex mu_;
  std::condition_variable released_;
  uint32_t participants_;
  uint32_t arrived_ = 0;
  /// Written under mu_; atomic so spinning waiters can read it lock-free.
  std::atomic<uint64_t> generation_{0};
  std::atomic<std::chrono::steady_clock::rep> release_ticks_{0};
  std::atomic<uint32_t> waiting_{0};
  std::atomic<uint64_t> spun_{0};
  std::atomic<uint64_t> parked_{0};
};

}  // namespace runtime
}  // namespace surfer

#endif  // SURFER_RUNTIME_BARRIER_H_

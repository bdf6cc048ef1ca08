#include "common/host.h"

#include <algorithm>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace surfer {

uint32_t HostThreads() {
  uint32_t threads = std::thread::hardware_concurrency();
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const uint32_t allowed = static_cast<uint32_t>(CPU_COUNT(&set));
    threads = threads == 0 ? allowed : std::min(threads, allowed);
  }
#endif
  return std::max(threads, 1u);
}

}  // namespace surfer

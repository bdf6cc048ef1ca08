#ifndef SURFER_COMMON_HOST_H_
#define SURFER_COMMON_HOST_H_

#include <cstdint>

namespace surfer {

/// Hardware threads this process may run on: its CPU affinity set where the
/// platform reports one (so a process under taskset or a cgroup cpuset
/// counts only the CPUs it was given), std::thread::hardware_concurrency()
/// otherwise; at least 1. Read at call time, so it reflects the calling
/// thread's current mask.
uint32_t HostThreads();

}  // namespace surfer

#endif  // SURFER_COMMON_HOST_H_

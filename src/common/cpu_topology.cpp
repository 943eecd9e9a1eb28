#include "common/cpu_topology.h"

#include <cstdint>

#ifdef __linux__
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace interedge::sys {

bool pin_thread_to_cpu(int cpu) {
#ifdef __linux__
  if (cpu < 0 || cpu >= CPU_SETSIZE) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return ::sched_setaffinity(0, sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

bool bind_memory_to_node(void* addr, std::size_t len, int node) {
#if defined(__linux__) && defined(__NR_mbind)
  if (addr == nullptr || len == 0 || node < 0) return false;
  // No <numaif.h> without libnuma; the ABI constants are stable.
  constexpr int kMpolBind = 2;
  constexpr unsigned kMpolMfMove = 1u << 1;
  constexpr unsigned kMaxNode = 1024;
  unsigned long mask[kMaxNode / (8 * sizeof(unsigned long))] = {0};
  if (static_cast<unsigned>(node) >= kMaxNode) return false;
  mask[node / (8 * sizeof(unsigned long))] |=
      1ul << (node % (8 * sizeof(unsigned long)));
  // mbind wants page-aligned start; round down and stretch the length.
  const long page = ::sysconf(_SC_PAGESIZE);
  const auto base = reinterpret_cast<std::uintptr_t>(addr);
  const std::uintptr_t aligned = base & ~static_cast<std::uintptr_t>(page - 1);
  len += base - aligned;
  return ::syscall(__NR_mbind, aligned, len, kMpolBind, mask, kMaxNode,
                   kMpolMfMove) == 0;
#else
  (void)addr;
  (void)len;
  (void)node;
  return false;
#endif
}

}  // namespace interedge::sys

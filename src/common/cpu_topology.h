// Thread-pinning and memory-placement helpers.
//
// Benchmarks and the real-socket example pin their threads to cores so
// runs are repeatable; the slab pool can place its arena on one NUMA node
// (buf_pool's pool_config::numa_node). This module is the one place that
// applies either: sched_setaffinity for threads, a best-effort raw mbind
// for memory.
//
// Everything here is advisory: a failed pin or bind degrades locality,
// never correctness, so every helper returns bool instead of throwing.
#pragma once

#include <cstddef>

namespace interedge::sys {

// Pins the calling thread to `cpu`. False when the cpu is invalid or the
// kernel refuses (caller logs and carries on unpinned).
bool pin_thread_to_cpu(int cpu);

// Best-effort: asks the kernel to place the pages of [addr, addr+len) on
// `node` (raw mbind; there is no libnuma in the image). False — not fatal
// — when the syscall is unavailable or refused; first-touch then decides.
bool bind_memory_to_node(void* addr, std::size_t len, int node);

}  // namespace interedge::sys

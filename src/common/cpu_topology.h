// CPU/NUMA topology probe and thread-placement helpers.
//
// The multi-core SN datapath (service_node workers) wants topology-aware
// placement: worker shards pinned to cores, the control thread on its own
// core, slab arenas on the node that owns those cores. This module is the
// one place that knows how to discover the machine shape —
// /sys/devices/system/node on Linux, with a portable single-node fallback
// everywhere else — and how to apply it (sched_setaffinity for threads, a
// best-effort raw mbind for memory).
//
// Everything here is advisory: a failed pin or bind degrades locality,
// never correctness, so every helper returns bool instead of throwing.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace interedge::sys {

struct numa_node {
  int id = 0;
  std::vector<int> cpus;  // ascending
};

// The machine shape. `nodes` is never empty: when /sys is unreadable (or
// on non-Linux builds) a single node 0 holding every online cpu stands in,
// so callers can iterate nodes unconditionally.
struct topology {
  std::vector<numa_node> nodes;

  std::size_t total_cpus() const;
  // Node owning `cpu`, -1 if no node lists it.
  int node_of_cpu(int cpu) const;

  // Probe once, cache forever (hotplug is out of scope for an SN's
  // lifetime).
  static const topology& get();
};

// Parses a kernel cpulist ("0-3,8,10-11") into ascending cpu ids. Exposed
// for tests; malformed chunks are skipped rather than fatal.
std::vector<int> parse_cpulist(const std::string& s);

// Uncached probe: reads /sys/devices/system/node/node*/cpulist, falls back
// to one node covering [0, hardware_concurrency).
topology probe_topology();

// Pins the calling thread. False when the cpu set is empty/invalid or the
// kernel refuses (caller logs and carries on unpinned).
bool pin_thread_to_cpu(int cpu);
bool pin_thread_to_cpus(const std::vector<int>& cpus);
// Pin to every cpu of `node` (one scheduler domain, not one core).
bool pin_thread_to_node(int node);

// The cpu the calling thread is on right now; -1 when unknowable.
int current_cpu();

// Best-effort: asks the kernel to place the pages of [addr, addr+len) on
// `node` (raw mbind; there is no libnuma in the image). False — not fatal
// — when the syscall is unavailable or refused; first-touch then decides.
bool bind_memory_to_node(void* addr, std::size_t len, int node);

}  // namespace interedge::sys

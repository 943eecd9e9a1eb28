// Thread-pinning and memory-placement helpers. Everything here must hold
// on any machine the suite runs on — single-node laptops, multi-socket
// servers, containers with restricted affinity masks — so the assertions
// pin the helpers' contracts, never the machine's shape.
#include "common/cpu_topology.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

namespace interedge::sys {
namespace {

TEST(Pinning, PinToCurrentCpuSucceedsAndIsObservable) {
  // Pin to whichever CPU we are on — always in the affinity mask, so this
  // works in containers too. Advisory API: false is allowed, but a true
  // return must be truthful (sched_getcpu agrees).
  const int here = ::sched_getcpu();
  if (here < 0) GTEST_SKIP() << "sched_getcpu unavailable";
  std::thread t([&] {
    if (pin_thread_to_cpu(here)) {
      EXPECT_EQ(::sched_getcpu(), here);
    }
  });
  t.join();
}

TEST(Pinning, BogusTargetsFailCleanly) {
  EXPECT_FALSE(pin_thread_to_cpu(-1));
  EXPECT_FALSE(pin_thread_to_cpu(1 << 20));
  // And a failed pin must not have wrecked the thread's ability to run.
  EXPECT_GE(::sched_getcpu(), -1);
}

TEST(Binding, MemoryBindIsAdvisory) {
  // On every box: binding to a nonsense node fails cleanly; binding a
  // buffer to node 0 (always present) either succeeds or degrades without
  // touching the bytes.
  std::vector<std::uint8_t> buf(1 << 16, 0xab);
  EXPECT_FALSE(bind_memory_to_node(buf.data(), buf.size(), 1 << 12));
  bind_memory_to_node(buf.data(), buf.size(), 0);
  EXPECT_TRUE(std::all_of(buf.begin(), buf.end(), [](std::uint8_t b) { return b == 0xab; }));
  // Zero-length and null are no-ops, not crashes.
  EXPECT_FALSE(bind_memory_to_node(nullptr, 0, 0));
}

}  // namespace
}  // namespace interedge::sys

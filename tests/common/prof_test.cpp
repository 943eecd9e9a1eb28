// Profiling plane (ISSUE 10): sample-ring overflow accounting, the
// async-signal sampling path under real SIGPROF load (the tsan target),
// symbolization of static functions through the ELF symtab fallback, and
// the FlameGraph-collapsed folded output shape.
#include "common/prof.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <sstream>
#include <thread>
#include <vector>

#ifdef __linux__
#include <time.h>
#endif

namespace interedge::prof {
namespace {

// Burns the current thread's CPU clock for `ms` milliseconds. A static,
// noinline, non-trivial function: the sampler should land in it and the
// symbolizer must find it in .symtab (static linkage means dladdr's
// .dynsym lookup cannot see it).
__attribute__((noinline)) static std::uint64_t prof_test_static_spin(int ms) {
  volatile std::uint64_t acc = 1;
#ifdef __linux__
  timespec start{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &start);
  for (;;) {
    for (int i = 0; i < 4096; ++i) acc = acc * 6364136223846793005ull + 1442695040888963407ull;
    timespec now{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
    long elapsed_ms = (now.tv_sec - start.tv_sec) * 1000 + (now.tv_nsec - start.tv_nsec) / 1000000;
    if (elapsed_ms >= ms) break;
  }
#else
  for (int i = 0; i < ms * 100000; ++i) acc = acc * 6364136223846793005ull + 1;
#endif
  return acc;
}

TEST(SampleRing, OverflowIsCountedDrop) {
  sample_ring ring(8);
  raw_sample s;
  s.depth = 2;
  s.pc[0] = 0x1000;
  s.pc[1] = 0x2000;
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.try_push(s));
  // Ring full: pushes fail and are counted, never block or overwrite.
  EXPECT_FALSE(ring.try_push(s));
  EXPECT_FALSE(ring.try_push(s));
  EXPECT_EQ(ring.dropped(), 2u);
  EXPECT_EQ(ring.pushed(), 8u);
  raw_sample out;
  std::size_t popped = 0;
  while (ring.try_pop(out)) {
    EXPECT_EQ(out.depth, 2u);
    EXPECT_EQ(out.pc[0], 0x1000u);
    ++popped;
  }
  EXPECT_EQ(popped, 8u);
  // Space again after the consumer caught up.
  EXPECT_TRUE(ring.try_push(s));
}

TEST(SampleRing, CapacityRoundsToPowerOfTwo) {
  sample_ring ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
}

TEST(Profiler, DisarmedByConfigIsInert) {
  profiler p(profiler_config{.sample_hz = 0});
  EXPECT_FALSE(p.register_current_thread("main"));
  EXPECT_FALSE(p.arm());
  EXPECT_FALSE(p.armed());
  EXPECT_EQ(p.drain(), 0u);
  EXPECT_EQ(p.folded(), "");
  EXPECT_EQ(p.hot_stacks_json(10), "[]");
}

#ifdef __linux__

// Validates every line of a folded export: "frames;separated;by;semis N".
void expect_folded_shape(const std::string& folded) {
  std::istringstream in(folded);
  std::string line;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    auto sp = line.find_last_of(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    ASSERT_GT(sp, 0u) << line;
    std::string count = line.substr(sp + 1);
    ASSERT_FALSE(count.empty()) << line;
    for (char c : count) EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(c))) << line;
    // At least thread;frame before the count.
    EXPECT_NE(line.substr(0, sp).find(';'), std::string::npos) << line;
  }
}

TEST(Profiler, CapturesAndSymbolizesStaticFunction) {
  // force_timer: the CPU-clock timer backend works under seccomp'd CI
  // where perf_event_open may not; the capture path is identical.
  profiler p(profiler_config{.sample_hz = 997, .ring_slots = 4096, .force_timer = true});
  ASSERT_TRUE(p.register_current_thread("main"));
  EXPECT_EQ(p.registered_threads(), 1u);
  ASSERT_TRUE(p.arm());
  EXPECT_EQ(p.active_backend(), backend::timer_signal);
  prof_test_static_spin(300);
  p.drain();
  p.disarm();
  p.unregister_current_thread();
  EXPECT_EQ(p.registered_threads(), 0u);

  EXPECT_GT(p.total_samples(), 20u) << "997Hz over 300ms CPU should land >20 samples";
  std::string folded = p.folded();
  ASSERT_FALSE(folded.empty());
  expect_folded_shape(folded);
  // The spin function is static: only the ELF .symtab fallback can name
  // it. It held the CPU for the whole capture, so it must appear.
  EXPECT_NE(folded.find("prof_test_static_spin"), std::string::npos) << folded;
  EXPECT_NE(folded.find("main;"), std::string::npos) << folded;

  auto top = p.top_functions(10);
  ASSERT_FALSE(top.empty());
  bool found = false;
  for (const auto& hf : top) {
    if (hf.name.find("prof_test_static_spin") != std::string::npos) {
      found = true;
      EXPECT_GT(hf.self, 0u);
      EXPECT_GE(hf.total, hf.self);
    }
  }
  EXPECT_TRUE(found);

  std::string hot = p.hot_stacks_json(5);
  EXPECT_EQ(hot.front(), '[');
  EXPECT_NE(hot.find("\"count\":"), std::string::npos);
  std::string json = p.export_json();
  EXPECT_NE(json.find("\"backend\":\"timer_signal\""), std::string::npos);
  EXPECT_NE(json.find("\"stacks\":["), std::string::npos);
}

// The tsan target: worker threads spinning under live SIGPROF fire while
// the control thread drains concurrently, then teardown races the last
// signals. Any lock or allocation in the handler deadlocks or trips the
// sanitizers here.
TEST(Profiler, ConcurrentSamplingDrainAndTeardown) {
  profiler p(profiler_config{.sample_hz = 1993, .ring_slots = 64, .force_timer = true});
  ASSERT_TRUE(p.arm());
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&p, &stop, i] {
      std::string name = "worker" + std::to_string(i);
      ASSERT_TRUE(p.register_current_thread(name.c_str()));
      while (!stop.load(std::memory_order_acquire)) prof_test_static_spin(2);
      p.unregister_current_thread();
    });
  }
  for (int i = 0; i < 50; ++i) {
    p.drain();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  p.drain();
  p.disarm();
  EXPECT_GT(p.total_samples(), 0u);
  // The tiny 64-slot rings under 1993Hz may overflow: drops are counted,
  // and the totals line up (nothing lost silently).
  expect_folded_shape(p.folded());
}

TEST(Profiler, ReRegisterAfterUnregisterReusesSlot) {
  profiler p(profiler_config{.sample_hz = 997, .force_timer = true});
  ASSERT_TRUE(p.register_current_thread("first"));
  p.unregister_current_thread();
  ASSERT_TRUE(p.register_current_thread("second"));
  ASSERT_TRUE(p.arm());
  prof_test_static_spin(50);
  p.drain();
  p.disarm();
  p.unregister_current_thread();
  EXPECT_NE(p.folded().find("second;"), std::string::npos);
}

#endif  // __linux__

TEST(RenderFolded, RootFirstWithSanitizedFrames) {
  // Synthetic stacks against real addresses: innermost-first PCs render
  // root-first (flamegraph.pl convention), counts trail after a space.
  folded_stack f;
  f.thread = "t;0";  // separator in a thread name must be sanitized
  f.pcs = {reinterpret_cast<std::uintptr_t>(&prof_test_static_spin)};
  f.count = 7;
  std::string out = render_folded({f});
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.substr(0, 4), "t:0;");
  EXPECT_NE(out.find("prof_test_static_spin"), std::string::npos);
  EXPECT_EQ(out.substr(out.size() - 3), " 7\n");
}

TEST(RenderFolded, OrdersByCountThenKey) {
  folded_stack a, b;
  a.thread = "t";
  a.pcs = {reinterpret_cast<std::uintptr_t>(&prof_test_static_spin)};
  a.count = 2;
  b.thread = "u";
  b.pcs = {reinterpret_cast<std::uintptr_t>(&prof_test_static_spin)};
  b.count = 9;
  std::string out = render_folded({a, b});
  EXPECT_LT(out.find("u;"), out.find("t;"));  // higher count first
}

}  // namespace
}  // namespace interedge::prof

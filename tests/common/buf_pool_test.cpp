// Slab-pool lifecycle (ISSUE 6 satellite): refcounts across rings and
// threads, exhaustion as a counted drop, headroom/trim window arithmetic,
// and the cache's batched refill/spill against the global free list. The
// concurrent cases are the tsan targets wired into tools/ci_sanitizers.sh
// (ctest -R buf_pool_test).
#include "common/buf_pool.h"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "common/ring.h"

namespace interedge::buf {
namespace {

pool_config tiny_pool(std::size_t slabs, std::size_t slab_size = 256,
                      std::size_t cache_batch = 4) {
  pool_config cfg;
  cfg.slab_size = slab_size;
  cfg.slab_count = slabs;
  cfg.cache_batch = cache_batch;
  return cfg;
}

TEST(BufPool, AllocExhaustRecycle) {
  buf_pool pool(tiny_pool(4));
  std::vector<slab_ref> held;
  for (int i = 0; i < 4; ++i) {
    slab_ref r = pool.try_alloc();
    ASSERT_TRUE(static_cast<bool>(r));
    held.push_back(std::move(r));
  }
  // Dry pool: null ref, counted, no UB.
  slab_ref dry = pool.try_alloc();
  EXPECT_FALSE(static_cast<bool>(dry));
  auto s = pool.stats();
  EXPECT_EQ(s.exhausted, 1u);
  EXPECT_EQ(s.outstanding, 4u);

  // Dropping one reference makes exactly one slab allocatable again.
  held.pop_back();
  slab_ref again = pool.try_alloc();
  EXPECT_TRUE(static_cast<bool>(again));
  EXPECT_FALSE(static_cast<bool>(pool.try_alloc()));
  EXPECT_EQ(pool.stats().exhausted, 2u);

  held.clear();
  again.reset();
  s = pool.stats();
  EXPECT_EQ(s.outstanding, 0u);
  EXPECT_EQ(s.allocs, s.frees);
}

TEST(BufPool, SlabSizeRoundsUpToCacheLine) {
  buf_pool pool(tiny_pool(2, /*slab_size=*/100));
  EXPECT_EQ(pool.slab_size() % 64, 0u);
  EXPECT_GE(pool.slab_size(), 100u);
  // The arena itself starts cache-line aligned.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(pool.arena_base()) % 64, 0u);
}

TEST(BufPool, RefcountCloneKeepsSlabAlive) {
  buf_pool pool(tiny_pool(1));
  slab_ref a = pool.try_alloc();
  ASSERT_TRUE(static_cast<bool>(a));
  a.data()[0] = 0x7e;

  slab_ref b = a.clone();
  EXPECT_EQ(a.refcount(), 2u);
  EXPECT_EQ(b.data(), a.data());

  a.reset();
  // b still pins the slab: the pool stays dry and the byte survives.
  EXPECT_FALSE(static_cast<bool>(pool.try_alloc()));
  EXPECT_EQ(b.data()[0], 0x7e);
  EXPECT_EQ(b.refcount(), 1u);

  b.reset();
  EXPECT_TRUE(static_cast<bool>(pool.try_alloc()));
}

TEST(BufPool, HeadroomTrimInvariants) {
  buf_pool pool(tiny_pool(1, /*slab_size=*/256));
  const std::size_t slab = pool.slab_size();
  slab_ref r = pool.try_alloc();
  std::memset(r.data(), 0xab, slab);

  pkt_view v(std::move(r), /*offset=*/32, /*length=*/100);
  EXPECT_EQ(v.headroom(), 32u);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_EQ(v.tailroom(), slab - 32 - 100);
  EXPECT_EQ(v.data(), pool.arena_base() + 32);

  v.trim_front(10);
  EXPECT_EQ(v.headroom(), 42u);
  EXPECT_EQ(v.size(), 90u);
  v.truncate(50);
  EXPECT_EQ(v.size(), 50u);
  EXPECT_EQ(v.tailroom(), slab - 42 - 50);
  // truncate never grows, trim_front clamps at empty.
  v.truncate(5000);
  EXPECT_EQ(v.size(), 50u);
  v.trim_front(5000);
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(static_cast<bool>(v));  // still holds the slab

  // A default view holds nothing; subview clones the slab reference over a
  // narrowed window.
  EXPECT_FALSE(static_cast<bool>(pkt_view()));
  pkt_view sub = v.subview(0, 0);
  EXPECT_EQ(v.slab().refcount(), 2u);
  sub.reset();
  v.reset();
  EXPECT_EQ(pool.stats().outstanding, 0u);
}

TEST(BufPool, ViewCloneSharesBytes) {
  buf_pool pool(tiny_pool(1));
  slab_ref r = pool.try_alloc();
  pkt_view v(std::move(r), 0, 16);
  v.mutable_span()[3] = std::uint8_t{0x42};

  pkt_view c = v.clone();
  EXPECT_EQ(c.span()[3], std::uint8_t{0x42});
  // Same slab, same window — writes through one are visible in the other.
  v.mutable_span()[3] = std::uint8_t{0x43};
  EXPECT_EQ(c.span()[3], std::uint8_t{0x43});
  v.reset();
  EXPECT_EQ(c.span()[3], std::uint8_t{0x43});
}

TEST(BufPool, CacheBatchedRefillSpill) {
  buf_pool pool(tiny_pool(16, 256, /*cache_batch=*/4));
  {
    buf_pool::cache cache(pool);
    // First alloc pulls a whole batch from the pool; the next three are
    // mutex-free local pops.
    slab_ref a = cache.try_alloc();
    ASSERT_TRUE(static_cast<bool>(a));
    EXPECT_EQ(pool.stats().refills, 1u);
    EXPECT_EQ(cache.cached(), 3u);
    slab_ref b = cache.try_alloc();
    slab_ref c = cache.try_alloc();
    slab_ref d = cache.try_alloc();
    EXPECT_EQ(pool.stats().refills, 1u);
    EXPECT_EQ(cache.cached(), 0u);
    slab_ref e = cache.try_alloc();
    EXPECT_TRUE(static_cast<bool>(e));
    EXPECT_EQ(pool.stats().refills, 2u);
  }
  // Cache destruction spills its unused slabs back; nothing leaks.
  auto s = pool.stats();
  EXPECT_GE(s.spills, 1u);
  EXPECT_EQ(s.outstanding, 0u);

  // A fresh cache can still see the pool run dry underneath it.
  std::vector<slab_ref> all;
  buf_pool::cache cache(pool);
  for (;;) {
    slab_ref r = cache.try_alloc();
    if (!r) break;
    all.push_back(std::move(r));
  }
  EXPECT_EQ(all.size(), 16u);
  EXPECT_GE(pool.stats().exhausted, 1u);
}

// The datapath handoff in miniature: an ingress thread fills views and
// pushes them over an SPSC ring; a consumer pops, reads, and drops
// them. Slabs recycle from the consumer side — the refcount is the only
// shared state — and the pool never grows.
TEST(BufPool, CrossThreadRingHandoff) {
  constexpr std::size_t kSlabs = 8;
  constexpr std::uint64_t kPackets = 6000;
  buf_pool pool(tiny_pool(kSlabs, 256, 4));
  spsc_ring<pkt_view> ring(kSlabs);

  std::uint64_t consumed = 0;
  std::uint64_t checksum_rx = 0;
  std::thread consumer([&] {
    while (consumed < kPackets) {
      auto v = ring.try_pop();
      if (!v) {
        std::this_thread::yield();
        continue;
      }
      checksum_rx += (*v).span()[0];
      ++consumed;
      // *v drops here: the slab returns to the pool from this thread.
    }
  });

  std::uint64_t checksum_tx = 0;
  {
    buf_pool::cache cache(pool);
    for (std::uint64_t i = 0; i < kPackets;) {
      slab_ref r = cache.try_alloc();
      if (!r) continue;  // all slabs in flight; wait for the consumer
      r.data()[0] = static_cast<std::uint8_t>(i & 0xff);
      pkt_view v(std::move(r), 0, 1);
      checksum_tx += v.span()[0];
      while (!ring.try_push(std::move(v))) std::this_thread::yield();
      ++i;
    }
  }
  consumer.join();

  EXPECT_EQ(consumed, kPackets);
  EXPECT_EQ(checksum_rx, checksum_tx);
  auto s = pool.stats();
  EXPECT_EQ(s.outstanding, 0u);
  EXPECT_EQ(s.allocs, s.frees);
}

// Several threads, each with its own cache over one shared pool,
// allocating/cloning/freeing concurrently — the asan/tsan stress target.
TEST(BufPool, ConcurrentAllocFree) {
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  buf_pool pool(tiny_pool(32, 256, 4));

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      buf_pool::cache cache(pool);
      std::vector<pkt_view> held;
      for (int i = 0; i < kIters; ++i) {
        slab_ref r = cache.try_alloc();
        if (!r) {
          held.clear();  // shed under exhaustion, like the rx path
          continue;
        }
        r.data()[0] = static_cast<std::uint8_t>(t);
        pkt_view v(std::move(r), 0, 8);
        if (i % 3 == 0) held.push_back(v.clone());
        if (held.size() > 4) held.erase(held.begin());
        // v drops each iteration; clones outlive it by a few rounds.
      }
    });
  }
  for (auto& th : threads) th.join();

  auto s = pool.stats();
  EXPECT_EQ(s.outstanding, 0u);
  EXPECT_EQ(s.allocs, s.frees);
}

}  // namespace
}  // namespace interedge::buf

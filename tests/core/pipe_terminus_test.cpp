#include "core/pipe_terminus.h"

#include <gtest/gtest.h>

namespace interedge::core {
namespace {

struct forwarded_packet {
  peer_id to;
  ilp::ilp_header header;
  bytes payload;
};

class terminus_fixture : public ::testing::Test {
 protected:
  terminus_fixture()
      : cache_(16),
        channel_([this](slowpath_request req) { return handler_(std::move(req)); }),
        terminus_(cache_, channel_, [this](peer_id to, const ilp::ilp_header& h,
                                           const_byte_span p) {
          forwarded_.push_back({to, h, bytes(p.begin(), p.end())});
        }) {
    // Default handler: forward to hop 50 and install a cache entry.
    handler_ = [](slowpath_request req) {
      const auto header = ilp::ilp_header::decode(req.header_bytes);
      slowpath_response resp;
      resp.token = req.token;
      resp.verdict = decision::forward_to(50);
      resp.cache_inserts.emplace_back(cache_key{req.l3_src, header.service, header.connection},
                                      decision::forward_to(50));
      return resp;
    };
  }

  packet make_packet(ilp::connection_id conn = 1, std::uint16_t flags = 0) {
    packet p;
    p.l3_src = 7;
    p.header.service = ilp::svc::delivery;
    p.header.connection = conn;
    p.header.flags = flags;
    p.payload = to_bytes("payload");
    return p;
  }

  decision_cache cache_;
  slowpath_handler handler_;
  inline_channel channel_;
  pipe_terminus terminus_;
  std::vector<forwarded_packet> forwarded_;
};

TEST_F(terminus_fixture, FirstPacketSlowPathSecondFastPath) {
  terminus_.handle(make_packet());
  EXPECT_EQ(terminus_.stats().slow_path, 1u);
  EXPECT_EQ(terminus_.stats().fast_path, 0u);

  terminus_.handle(make_packet());
  EXPECT_EQ(terminus_.stats().slow_path, 1u);
  EXPECT_EQ(terminus_.stats().fast_path, 1u);

  ASSERT_EQ(forwarded_.size(), 2u);
  EXPECT_EQ(forwarded_[0].to, 50u);
  EXPECT_EQ(forwarded_[1].to, 50u);
}

TEST_F(terminus_fixture, PayloadForwardedByteIdentical) {
  terminus_.handle(make_packet());
  ASSERT_EQ(forwarded_.size(), 1u);
  EXPECT_EQ(forwarded_[0].payload, to_bytes("payload"));
  EXPECT_EQ(forwarded_[0].header.connection, 1u);
}

TEST_F(terminus_fixture, ControlPacketsAlwaysSlowPath) {
  terminus_.handle(make_packet(1));
  terminus_.handle(make_packet(1, ilp::kFlagControl));  // would hit cache otherwise
  EXPECT_EQ(terminus_.stats().slow_path, 2u);
}

TEST_F(terminus_fixture, DropVerdictCounted) {
  handler_ = [](slowpath_request req) {
    slowpath_response resp;
    resp.token = req.token;
    resp.verdict = decision::drop_packet();
    return resp;
  };
  terminus_.handle(make_packet());
  EXPECT_EQ(terminus_.stats().dropped, 1u);
  EXPECT_TRUE(forwarded_.empty());
}

TEST_F(terminus_fixture, DeliverVerdictCounted) {
  handler_ = [](slowpath_request req) {
    slowpath_response resp;
    resp.token = req.token;
    resp.verdict = decision::deliver();
    return resp;
  };
  terminus_.handle(make_packet());
  EXPECT_EQ(terminus_.stats().delivered, 1u);
}

TEST_F(terminus_fixture, MultiDestinationForwardsCopies) {
  // "the decision can specify multiple forwarding destinations, in which
  // case a copy of the packet is forwarded to each destination" (§4)
  handler_ = [](slowpath_request req) {
    slowpath_response resp;
    resp.token = req.token;
    resp.verdict = decision::forward_all({10, 11, 12});
    return resp;
  };
  terminus_.handle(make_packet());
  ASSERT_EQ(forwarded_.size(), 3u);
  EXPECT_EQ(forwarded_[0].to, 10u);
  EXPECT_EQ(forwarded_[2].to, 12u);
  EXPECT_EQ(terminus_.stats().forwarded, 3u);
}

TEST_F(terminus_fixture, ServiceSendsEmittedBeforeVerdict) {
  handler_ = [](slowpath_request req) {
    slowpath_response resp;
    resp.token = req.token;
    resp.verdict = decision::deliver();
    outbound o;
    o.to = 99;
    o.header.service = 5;
    o.payload = to_bytes("control-reply");
    resp.sends.push_back(std::move(o));
    return resp;
  };
  terminus_.handle(make_packet());
  ASSERT_EQ(forwarded_.size(), 1u);
  EXPECT_EQ(forwarded_[0].to, 99u);
  EXPECT_EQ(forwarded_[0].payload, to_bytes("control-reply"));
}

TEST_F(terminus_fixture, DifferentConnectionsDifferentCacheEntries) {
  terminus_.handle(make_packet(1));
  terminus_.handle(make_packet(2));
  EXPECT_EQ(terminus_.stats().slow_path, 2u);
  EXPECT_EQ(cache_.size(), 2u);
}

TEST_F(terminus_fixture, EvictedEntryFallsBackToSlowPath) {
  // Fill the cache far past capacity; earlier connections get evicted and
  // their packets must take the slow path again — correctness preserved.
  for (ilp::connection_id c = 0; c < 100; ++c) terminus_.handle(make_packet(c));
  const auto slow_before = terminus_.stats().slow_path;
  terminus_.handle(make_packet(0));  // long evicted
  EXPECT_EQ(terminus_.stats().slow_path, slow_before + 1);
  ASSERT_EQ(forwarded_.size(), 101u);  // every packet still forwarded
}

TEST_F(terminus_fixture, StatsReceivedCountsAll) {
  for (int i = 0; i < 5; ++i) terminus_.handle(make_packet());
  EXPECT_EQ(terminus_.stats().received, 5u);
}

TEST_F(terminus_fixture, BatchSameFlowPaysOneCacheLookup) {
  terminus_.handle(make_packet());  // install the cache entry
  const auto hits_before = cache_.stats().hits;

  std::vector<packet> batch;
  for (int i = 0; i < 8; ++i) batch.push_back(make_packet());
  terminus_.handle_batch(batch);

  // One lookup for the run; the other 7 packets ride the memo.
  EXPECT_EQ(cache_.stats().hits, hits_before + 1);
  EXPECT_EQ(terminus_.stats().fast_path, 8u);
  EXPECT_EQ(forwarded_.size(), 9u);  // every packet still forwarded
}

TEST_F(terminus_fixture, BatchColdFlowStillResolvedViaSlowPath) {
  // A cold batch defers the slow-path drain to the end, so every packet of
  // the burst goes to the service module — and every one is still forwarded.
  std::vector<packet> batch;
  for (int i = 0; i < 4; ++i) batch.push_back(make_packet());
  terminus_.handle_batch(batch);
  EXPECT_EQ(terminus_.stats().slow_path, 4u);
  EXPECT_EQ(forwarded_.size(), 4u);
  // The drain installed the decision: the next batch is pure fast path.
  std::vector<packet> batch2;
  for (int i = 0; i < 4; ++i) batch2.push_back(make_packet());
  terminus_.handle_batch(batch2);
  EXPECT_EQ(terminus_.stats().slow_path, 4u);
  EXPECT_EQ(terminus_.stats().fast_path, 4u);
}

TEST_F(terminus_fixture, BatchMixedWarmFlowsAllFastPath) {
  terminus_.handle(make_packet(1));
  terminus_.handle(make_packet(2));
  std::vector<packet> batch;
  for (int i = 0; i < 6; ++i) {
    batch.push_back(make_packet(static_cast<ilp::connection_id>(1 + i % 2)));
  }
  terminus_.handle_batch(batch);
  EXPECT_EQ(terminus_.stats().fast_path, 6u);
  EXPECT_EQ(forwarded_.size(), 2u + 6u);
}

TEST_F(terminus_fixture, BatchControlPacketsBypassMemo) {
  terminus_.handle(make_packet(1));  // warm the flow
  std::vector<packet> batch;
  batch.push_back(make_packet(1));                      // cache hit, memo set
  batch.push_back(make_packet(1));                      // memo hit
  batch.push_back(make_packet(1, ilp::kFlagControl));   // must not use memo
  terminus_.handle_batch(batch);
  EXPECT_EQ(terminus_.stats().slow_path, 2u);  // initial cold packet + control
  EXPECT_EQ(terminus_.stats().fast_path, 2u);
}

TEST_F(terminus_fixture, BatchMatchesPerPacketBehavior) {
  // The batched path must produce the same forwards in the same order as
  // handling each packet individually.
  std::vector<packet> batch;
  for (int i = 0; i < 5; ++i) batch.push_back(make_packet(static_cast<ilp::connection_id>(i)));
  terminus_.handle_batch(batch);
  const auto batched = forwarded_;
  forwarded_.clear();

  for (int i = 0; i < 5; ++i) terminus_.handle(make_packet(static_cast<ilp::connection_id>(i)));
  ASSERT_EQ(forwarded_.size(), batched.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(forwarded_[i].to, batched[i].to);
    EXPECT_EQ(forwarded_[i].header.connection, batched[i].header.connection);
    EXPECT_EQ(forwarded_[i].payload, batched[i].payload);
  }
}

// ---- load shedding (DESIGN.md §10) ---------------------------------------

using namespace std::chrono_literals;

// Accepts every request but never responds — a wedged slow path.
class black_hole_channel final : public slowpath_channel {
 public:
  bool submit(slowpath_request req) override {
    accepted.push_back(std::move(req));
    return true;
  }
  std::optional<slowpath_response> poll() override { return std::nullopt; }
  std::vector<slowpath_request> accepted;
};

// Rejects every submit — a permanently full channel.
class full_channel final : public slowpath_channel {
 public:
  bool submit(slowpath_request) override {
    ++attempts;
    return false;
  }
  std::optional<slowpath_response> poll() override { return std::nullopt; }
  std::size_t attempts = 0;
};

class shed_fixture : public ::testing::Test {
 protected:
  shed_fixture()
      : cache_(64), terminus_(cache_, channel_, [this](peer_id, const ilp::ilp_header&,
                                                       const_byte_span) { ++forwards_; }) {}

  packet make_packet(ilp::connection_id conn, std::uint16_t flags = 0) {
    packet p;
    p.l3_src = 7;
    p.header.service = ilp::svc::delivery;
    p.header.connection = conn;
    p.header.flags = flags;
    p.payload = to_bytes("x");
    return p;
  }

  manual_clock clk_;
  decision_cache cache_;
  black_hole_channel channel_;
  pipe_terminus terminus_;
  int forwards_ = 0;
};

TEST_F(shed_fixture, ShedsPastHighWaterInsteadOfBlocking) {
  terminus_.set_slowpath_policy({.high_water = 4, .shed_ttl = 50ms});
  cache_.set_clock(&clk_);
  for (ilp::connection_id c = 0; c < 10; ++c) terminus_.handle(make_packet(c));
  // 4 in flight; the other 6 shed to the default (drop) verdict.
  EXPECT_EQ(terminus_.in_flight(), 4u);
  EXPECT_EQ(terminus_.stats().shed, 6u);
  EXPECT_EQ(terminus_.stats().dropped, 6u);  // fail closed
  EXPECT_EQ(channel_.accepted.size(), 4u);
}

TEST_F(shed_fixture, ShedVerdictIsTemporaryCacheEntry) {
  terminus_.set_slowpath_policy({.high_water = 1, .shed_ttl = 50ms});
  cache_.set_clock(&clk_);
  terminus_.handle(make_packet(1));  // occupies the slow path
  terminus_.handle(make_packet(2));  // shed, installs TTL'd drop
  terminus_.handle(make_packet(2));  // fast-path hit on the shed entry
  EXPECT_EQ(terminus_.stats().shed, 1u);
  EXPECT_EQ(terminus_.stats().fast_path, 1u);

  // After the TTL the flow returns to the slow path (which has recovered
  // here only in the sense that the entry is gone — it sheds again).
  clk_.advance(60ms);
  terminus_.handle(make_packet(2));
  EXPECT_EQ(terminus_.stats().shed, 2u);
}

TEST_F(shed_fixture, ShedVerdictPerServicePolicyCanPass) {
  terminus_.set_slowpath_policy({.high_water = 1, .shed_ttl = 50ms});
  cache_.set_clock(&clk_);
  terminus_.set_shed_verdict(ilp::svc::delivery, decision::forward_to(50));
  terminus_.handle(make_packet(1));  // in flight
  terminus_.handle(make_packet(2));  // shed — but delivery sheds to pass
  EXPECT_EQ(terminus_.stats().shed, 1u);
  EXPECT_EQ(forwards_, 1);
  EXPECT_EQ(terminus_.stats().dropped, 0u);
}

TEST_F(shed_fixture, ControlPacketsNeverShed) {
  terminus_.set_slowpath_policy({.high_water = 1, .shed_ttl = 50ms});
  terminus_.handle(make_packet(1));
  terminus_.handle(make_packet(2, ilp::kFlagControl));
  EXPECT_EQ(terminus_.stats().shed, 0u);
  EXPECT_EQ(channel_.accepted.size(), 2u);
}

TEST_F(shed_fixture, BatchShedsAndMemoAbsorbsBurst) {
  terminus_.set_slowpath_policy({.high_water = 1, .shed_ttl = 50ms});
  cache_.set_clock(&clk_);
  std::vector<packet> batch;
  batch.push_back(make_packet(1));                       // takes the slow-path slot
  for (int i = 0; i < 5; ++i) batch.push_back(make_packet(2));  // one shed + memo hits
  terminus_.handle_batch(batch);
  EXPECT_EQ(terminus_.stats().shed, 1u);
  EXPECT_EQ(terminus_.stats().fast_path, 4u);  // rest of the burst rides the memo
}

TEST_F(shed_fixture, NoPolicyMeansNoShedding) {
  for (ilp::connection_id c = 0; c < 100; ++c) terminus_.handle(make_packet(c));
  EXPECT_EQ(terminus_.stats().shed, 0u);
  EXPECT_EQ(terminus_.in_flight(), 100u);
}

TEST(ShedBoundedSubmit, FullChannelShedsAfterRetryBudget) {
  manual_clock clk;
  decision_cache cache(16);
  cache.set_clock(&clk);
  full_channel channel;
  int forwards = 0;
  pipe_terminus terminus(cache, channel,
                         [&](peer_id, const ilp::ilp_header&, const_byte_span) { ++forwards; });
  terminus.set_slowpath_policy({.high_water = 8, .submit_retries = 5});

  packet p;
  p.l3_src = 7;
  p.header.service = ilp::svc::delivery;
  p.header.connection = 1;
  terminus.handle(p);  // channel never accepts: retries then sheds
  EXPECT_EQ(channel.attempts, 5u);
  EXPECT_EQ(terminus.stats().shed, 1u);
  EXPECT_EQ(terminus.stats().backpressure, 5u);
  EXPECT_EQ(terminus.in_flight(), 0u);
}

}  // namespace
}  // namespace interedge::core

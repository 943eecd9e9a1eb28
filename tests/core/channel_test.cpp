// The three slow-path transports must be behaviorally identical; the
// parameterized suite runs the same scenarios over each.
#include "core/channel.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace interedge::core {
namespace {

slowpath_response echo_handler(slowpath_request req) {
  slowpath_response resp;
  resp.token = req.token;
  resp.verdict = decision::forward_to(req.l3_src + 1);
  resp.cache_inserts.emplace_back(cache_key{req.l3_src, 1, 2}, decision::deliver());
  outbound o;
  o.to = 42;
  o.header.service = 7;
  o.payload = req.payload;
  resp.sends.push_back(std::move(o));
  return resp;
}

enum class channel_kind { inline_call, ring, ipc };

std::unique_ptr<slowpath_channel> make_channel(channel_kind kind, slowpath_handler handler) {
  switch (kind) {
    case channel_kind::inline_call:
      return std::make_unique<inline_channel>(std::move(handler));
    case channel_kind::ring:
      return std::make_unique<ring_channel>(std::move(handler));
    case channel_kind::ipc:
      return std::make_unique<ipc_channel>(std::move(handler));
  }
  return nullptr;
}

slowpath_response poll_blocking(slowpath_channel& ch) {
  for (int spins = 0; spins < 1000000; ++spins) {
    if (auto r = ch.poll()) return std::move(*r);
    std::this_thread::yield();
  }
  ADD_FAILURE() << "channel never produced a response";
  return {};
}

class ChannelSuite : public ::testing::TestWithParam<channel_kind> {};

TEST_P(ChannelSuite, RoundTripPreservesEverything) {
  auto ch = make_channel(GetParam(), echo_handler);
  slowpath_request req;
  req.token = 77;
  req.l3_src = 5;
  req.header_bytes = to_bytes("hdr");
  req.payload = to_bytes("payload-data");
  ASSERT_TRUE(ch->submit(req));

  const slowpath_response resp = poll_blocking(*ch);
  EXPECT_EQ(resp.token, 77u);
  EXPECT_EQ(resp.verdict, decision::forward_to(6));
  ASSERT_EQ(resp.cache_inserts.size(), 1u);
  EXPECT_EQ(resp.cache_inserts[0].first, (cache_key{5, 1, 2}));
  ASSERT_EQ(resp.sends.size(), 1u);
  EXPECT_EQ(resp.sends[0].to, 42u);
  EXPECT_EQ(resp.sends[0].header.service, 7u);
  EXPECT_EQ(resp.sends[0].payload, to_bytes("payload-data"));
}

TEST_P(ChannelSuite, ManyOutstandingRequestsAllComplete) {
  auto ch = make_channel(GetParam(), echo_handler);
  constexpr int kCount = 200;
  int submitted = 0;
  std::set<std::uint64_t> seen;
  while (static_cast<int>(seen.size()) < kCount) {
    while (submitted < kCount) {
      slowpath_request req;
      req.token = static_cast<std::uint64_t>(submitted);
      req.l3_src = 1;
      if (!ch->submit(std::move(req))) break;  // bounded channel full
      ++submitted;
    }
    if (auto r = ch->poll()) {
      EXPECT_TRUE(seen.insert(r->token).second) << "duplicate token";
    }
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kCount));
}

TEST_P(ChannelSuite, EmptyPayloadAndFields) {
  auto ch = make_channel(GetParam(), [](slowpath_request req) {
    slowpath_response r;
    r.token = req.token;
    r.verdict = decision::drop_packet();
    return r;
  });
  slowpath_request req;
  req.token = 1;
  ASSERT_TRUE(ch->submit(req));
  const slowpath_response resp = poll_blocking(*ch);
  EXPECT_EQ(resp.verdict.kind, decision::verdict::drop);
  EXPECT_TRUE(resp.cache_inserts.empty());
  EXPECT_TRUE(resp.sends.empty());
}

TEST_P(ChannelSuite, LargePayloadSurvivesTransport) {
  auto ch = make_channel(GetParam(), echo_handler);
  slowpath_request req;
  req.token = 9;
  req.payload = bytes(64 * 1024, 0xcd);
  ASSERT_TRUE(ch->submit(req));
  const slowpath_response resp = poll_blocking(*ch);
  ASSERT_EQ(resp.sends.size(), 1u);
  EXPECT_EQ(resp.sends[0].payload.size(), 64u * 1024);
}

INSTANTIATE_TEST_SUITE_P(AllTransports, ChannelSuite,
                         ::testing::Values(channel_kind::inline_call, channel_kind::ring,
                                           channel_kind::ipc),
                         [](const auto& info) {
                           switch (info.param) {
                             case channel_kind::inline_call: return "Inline";
                             case channel_kind::ring: return "Ring";
                             case channel_kind::ipc: return "Ipc";
                           }
                           return "?";
                         });

TEST(RequestCodec, RoundTrip) {
  slowpath_request req;
  req.token = 0xabcdef;
  req.l3_src = 17;
  req.header_bytes = to_bytes("encoded-header");
  req.payload = to_bytes("data");
  const slowpath_request decoded = slowpath_request::decode(req.encode());
  EXPECT_EQ(decoded.token, req.token);
  EXPECT_EQ(decoded.l3_src, req.l3_src);
  EXPECT_EQ(decoded.header_bytes, req.header_bytes);
  EXPECT_EQ(decoded.payload, req.payload);
}

TEST(ResponseCodec, RoundTripAllVerdicts) {
  for (auto kind : {decision::verdict::forward, decision::verdict::deliver_local,
                    decision::verdict::drop}) {
    slowpath_response resp;
    resp.token = 3;
    resp.verdict.kind = kind;
    if (kind == decision::verdict::forward) resp.verdict.next_hops = {1, 2, 3};
    const slowpath_response decoded = slowpath_response::decode(resp.encode());
    EXPECT_EQ(decoded.verdict, resp.verdict);
  }
}

TEST(DecisionCodec, TtlRoundTrips) {
  using namespace std::chrono_literals;
  slowpath_response resp;
  resp.token = 1;
  decision d = decision::forward_to(9);
  d.ttl = 50ms;
  resp.cache_inserts.emplace_back(cache_key{1, 2, 3}, d);
  const slowpath_response decoded = slowpath_response::decode(resp.encode());
  ASSERT_EQ(decoded.cache_inserts.size(), 1u);
  EXPECT_EQ(decoded.cache_inserts[0].second.ttl, 50ms);
  EXPECT_EQ(decoded.cache_inserts[0].second, d);
}

TEST(RingChannel, BoundedDepthRejectsWhenFull) {
  // A handler that blocks until released lets us fill the request ring.
  std::atomic<bool> release{false};
  ring_channel ch(
      [&release](slowpath_request req) {
        while (!release.load()) std::this_thread::yield();
        slowpath_response r;
        r.token = req.token;
        return r;
      },
      /*depth=*/4);

  int accepted = 0;
  for (int i = 0; i < 100; ++i) {
    slowpath_request req;
    req.token = static_cast<std::uint64_t>(i);
    if (!ch.submit(std::move(req))) break;
    ++accepted;
  }
  EXPECT_LT(accepted, 100);
  EXPECT_GE(accepted, 4);
  release.store(true);
  int drained = 0;
  while (drained < accepted) {
    if (ch.poll()) ++drained;
  }
}

}  // namespace
}  // namespace interedge::core

// End-to-end service-node tests over the simulator: hosts (raw pipe
// managers) exchange packets through an SN running test service modules.
#include "core/service_node.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <span>

#include "common/buf_pool.h"
#include "core/test_modules.h"
#include "simnet/simulation.h"

namespace interedge::core {
namespace {

using namespace std::chrono_literals;
using sim::node_id;
using sim::simulation;

struct sim_host {
  node_id node = 0;
  std::unique_ptr<ilp::pipe_manager> mgr;
  std::vector<std::pair<ilp::ilp_header, bytes>> received;
};

std::unique_ptr<sim_host> make_host(simulation& net) {
  auto h = std::make_unique<sim_host>();
  h->node = net.add_node(nullptr);
  h->mgr = std::make_unique<ilp::pipe_manager>(
      h->node,
      [&net, node = h->node](peer_id peer, bytes d) {
        net.send(node, static_cast<node_id>(peer), std::move(d));
      },
      [raw = h.get()](peer_id, const ilp::ilp_header& hdr, bytes payload) {
        raw->received.emplace_back(hdr, std::move(payload));
      });
  net.set_handler(h->node, [raw = h.get()](node_id from, const bytes& data) {
    raw->mgr->on_datagram(from, data);
  });
  return h;
}

std::unique_ptr<service_node> make_sn(simulation& net, const router* route,
                                      std::uint16_t edomain = 1, sn_config cfg = {}) {
  const node_id node = net.add_node(nullptr);
  cfg.id = node;
  cfg.edomain = edomain;
  auto sn = std::make_unique<service_node>(
      cfg, net.sim_clock(),
      [&net, node](peer_id to, bytes d) { net.send(node, static_cast<node_id>(to), std::move(d)); },
      [&net](nanoseconds delay, std::function<void()> fn) { net.after(delay, std::move(fn)); },
      route);
  net.set_handler(node, [raw = sn.get()](node_id from, const bytes& data) {
    raw->on_datagram(from, data);
  });
  return sn;
}

ilp::ilp_header delivery_header(edge_addr dest, ilp::connection_id conn = 1) {
  ilp::ilp_header h;
  h.service = ilp::svc::delivery;
  h.connection = conn;
  h.flags = ilp::kFlagFromHost;
  h.set_meta_u64(ilp::meta_key::dest_addr, dest);
  return h;
}

TEST(ServiceNode, HostToHostThroughSn) {
  simulation net;
  testing::identity_router route;
  auto alice = make_host(net);
  auto bob = make_host(net);
  auto sn = make_sn(net, &route);
  sn->env().deploy(std::make_unique<testing::forwarder_module>());

  alice->mgr->send(sn->node_id(), delivery_header(bob->node), to_bytes("hi bob"));
  net.run();

  ASSERT_EQ(bob->received.size(), 1u);
  EXPECT_EQ(to_string(bob->received[0].second), "hi bob");
  EXPECT_EQ(bob->received[0].first.connection, 1u);
  EXPECT_EQ(sn->datapath_stats().slow_path, 1u);
}

TEST(ServiceNode, SecondPacketUsesFastPath) {
  simulation net;
  testing::identity_router route;
  auto alice = make_host(net);
  auto bob = make_host(net);
  auto sn = make_sn(net, &route);
  sn->env().deploy(std::make_unique<testing::forwarder_module>());

  alice->mgr->send(sn->node_id(), delivery_header(bob->node), to_bytes("one"));
  net.run();
  alice->mgr->send(sn->node_id(), delivery_header(bob->node), to_bytes("two"));
  net.run();

  EXPECT_EQ(bob->received.size(), 2u);
  EXPECT_EQ(sn->datapath_stats().slow_path, 1u);
  EXPECT_EQ(sn->datapath_stats().fast_path, 1u);
  EXPECT_EQ(sn->cache().stats().hits, 1u);
}

TEST(ServiceNode, ChainOfTwoSns) {
  // client -> SN1 -> SN2 -> server: the typical communication path (§3.2).
  simulation net;
  testing::identity_router route;
  auto client = make_host(net);
  auto server = make_host(net);
  auto sn1 = make_sn(net, nullptr);  // routes via static table below
  auto sn2 = make_sn(net, &route);

  // SN1 forwards everything toward SN2 (its router resolves all
  // destinations to SN2).
  class static_router final : public core::router {
   public:
    explicit static_router(peer_id hop) : hop_(hop) {}
    std::optional<peer_id> next_hop(edge_addr) const override { return hop_; }

   private:
    peer_id hop_;
  };
  static_router to_sn2(sn2->node_id());
  sn1 = make_sn(net, &to_sn2);
  sn1->env().deploy(std::make_unique<testing::forwarder_module>());
  sn2->env().deploy(std::make_unique<testing::forwarder_module>());

  client->mgr->send(sn1->node_id(), delivery_header(server->node), to_bytes("via two SNs"));
  net.run();

  ASSERT_EQ(server->received.size(), 1u);
  EXPECT_EQ(to_string(server->received[0].second), "via two SNs");
  EXPECT_EQ(sn1->datapath_stats().forwarded, 1u);
  EXPECT_EQ(sn2->datapath_stats().forwarded, 1u);
}

TEST(ServiceNode, UnroutableDestinationDropped) {
  simulation net;
  auto alice = make_host(net);
  auto sn = make_sn(net, nullptr);  // no router at all
  sn->env().deploy(std::make_unique<testing::forwarder_module>());

  alice->mgr->send(sn->node_id(), delivery_header(12345), to_bytes("lost"));
  net.run();
  EXPECT_EQ(sn->datapath_stats().dropped, 1u);
}

TEST(ServiceNode, ControlRoundTrip) {
  simulation net;
  auto alice = make_host(net);
  auto sn = make_sn(net, nullptr);
  sn->env().deploy(std::make_unique<testing::echo_control_module>(ilp::svc::pubsub));

  ilp::ilp_header control;
  control.service = ilp::svc::pubsub;
  control.connection = 42;
  control.flags = ilp::kFlagControl;
  alice->mgr->send(sn->node_id(), control, to_bytes("subscribe weather"));
  net.run();

  ASSERT_EQ(alice->received.size(), 1u);
  EXPECT_EQ(to_string(alice->received[0].second), "subscribe weather");
  EXPECT_EQ(alice->received[0].first.connection, 42u);
}

TEST(ServiceNode, KeyRotationKeepsDatapathAlive) {
  simulation net;
  testing::identity_router route;
  auto alice = make_host(net);
  auto bob = make_host(net);
  auto sn = make_sn(net, &route);
  sn->env().deploy(std::make_unique<testing::forwarder_module>());

  alice->mgr->send(sn->node_id(), delivery_header(bob->node), to_bytes("before"));
  net.run();
  sn->rotate_keys();
  alice->mgr->rotate_all();
  bob->mgr->rotate_all();
  alice->mgr->send(sn->node_id(), delivery_header(bob->node, 2), to_bytes("after"));
  net.run();

  ASSERT_EQ(bob->received.size(), 2u);
  EXPECT_EQ(to_string(bob->received[1].second), "after");
}

TEST(ServiceNode, CheckpointRestoreAcrossReplacement) {
  // "for stateful services, one can use ... standby-replication" (§3.3):
  // checkpoint an SN, fail it, restore the state into a replacement.
  simulation net;
  auto alice = make_host(net);
  auto sn = make_sn(net, nullptr);
  sn->env().deploy(std::make_unique<testing::sink_module>());

  ilp::ilp_header h;
  h.service = ilp::svc::null_service;
  h.connection = 1;
  alice->mgr->send(sn->node_id(), h, to_bytes("message-0"));
  net.run();
  const bytes snap = sn->checkpoint();

  auto replacement = make_sn(net, nullptr);
  auto sink = std::make_unique<testing::sink_module>();
  auto* raw = sink.get();
  replacement->env().deploy(std::move(sink));
  replacement->restore(snap);
  EXPECT_EQ(raw->counter(), 1);
}

TEST(ServiceNode, PeeringPipeEstablishment) {
  simulation net;
  auto sn1 = make_sn(net, nullptr);
  auto sn2 = make_sn(net, nullptr);
  sn1->peer_with(sn2->node_id());
  net.run();
  EXPECT_TRUE(sn1->pipes().has_pipe(sn2->node_id()));
  EXPECT_TRUE(sn2->pipes().has_pipe(sn1->node_id()));
}

// ---- decision-cache invalidation on the node cache ---------------------

// A service invalidation (what a module's reconfiguration calls) empties
// the node cache of that service's entries; traffic repopulates it.
TEST(ServiceNode, ServiceInvalidationEmptiesNodeCache) {
  simulation net;
  testing::identity_router route;
  auto alice = make_host(net);
  auto bob = make_host(net);
  auto sn = make_sn(net, &route);
  sn->env().deploy(std::make_unique<testing::forwarder_module>());

  constexpr int kFlows = 8;
  for (int c = 1; c <= kFlows; ++c) {
    alice->mgr->send(sn->node_id(), delivery_header(bob->node, c), to_bytes("warm"));
    alice->mgr->send(sn->node_id(), delivery_header(bob->node, c), to_bytes("warm"));
  }
  net.run();
  ASSERT_EQ(sn->cache().size(), static_cast<std::size_t>(kFlows));

  sn->invalidate_service(ilp::svc::delivery);
  EXPECT_EQ(sn->cache().size(), 0u);
  EXPECT_EQ(sn->cache().stats().invalidations, static_cast<std::uint64_t>(kFlows));

  // The fast path re-forms: the next packet misses, redecides, reinstalls.
  alice->mgr->send(sn->node_id(), delivery_header(bob->node, 3), to_bytes("again"));
  net.run();
  EXPECT_EQ(bob->received.size(), static_cast<std::size_t>(2 * kFlows + 1));
  EXPECT_EQ(sn->cache().size(), 1u);
}

// Connection invalidation drops that connection's entry and no other.
TEST(ServiceNode, ConnectionInvalidationIsTargeted) {
  simulation net;
  testing::identity_router route;
  auto alice = make_host(net);
  auto bob = make_host(net);
  auto sn = make_sn(net, &route);
  sn->env().deploy(std::make_unique<testing::forwarder_module>());

  alice->mgr->send(sn->node_id(), delivery_header(bob->node, 1), to_bytes("a"));
  alice->mgr->send(sn->node_id(), delivery_header(bob->node, 2), to_bytes("b"));
  net.run();
  ASSERT_EQ(sn->cache().size(), 2u);

  sn->invalidate_connection(ilp::svc::delivery, 1);
  EXPECT_EQ(sn->cache().size(), 1u);
  EXPECT_FALSE(sn->cache().contains(cache_key{alice->node, ilp::svc::delivery, 1}));
  EXPECT_TRUE(sn->cache().contains(cache_key{alice->node, ilp::svc::delivery, 2}));
}

// When liveness declares a peer down, every cached forward naming it is
// purged (established flows re-resolve instead of blackholing into the
// dead adjacency); forwards to live peers stay cached.
TEST(ServiceNode, PeerDownPurgesCachedForwardsToThatPeer) {
  simulation net;
  testing::identity_router route;
  auto alice = make_host(net);
  auto bob = make_host(net);
  auto carol = make_host(net);
  auto sn = make_sn(net, &route, 1,
                    sn_config{.keepalive_interval = 10ms, .keepalive_miss_budget = 3});
  sn->env().deploy(std::make_unique<testing::forwarder_module>());

  alice->mgr->send(sn->node_id(), delivery_header(bob->node, 1), to_bytes("to bob"));
  alice->mgr->send(sn->node_id(), delivery_header(carol->node, 2), to_bytes("to carol"));
  net.run_until(time_point(5ms));
  ASSERT_EQ(bob->received.size(), 1u);
  ASSERT_EQ(carol->received.size(), 1u);
  const cache_key to_bob{alice->node, ilp::svc::delivery, 1};
  const cache_key to_carol{alice->node, ilp::svc::delivery, 2};
  ASSERT_TRUE(sn->cache().contains(to_bob));
  ASSERT_TRUE(sn->cache().contains(to_carol));

  net.partition(static_cast<node_id>(sn->node_id()), bob->node);
  net.run_until(time_point(100ms));
  const ilp::liveness_stats* st = sn->pipes().liveness_for(bob->node);
  ASSERT_NE(st, nullptr);
  ASSERT_TRUE(st->down);

  EXPECT_FALSE(sn->cache().contains(to_bob));
  EXPECT_TRUE(sn->cache().contains(to_carol));

  sn->stop_liveness();
  net.run();
}

// Slab-view ingress (what a real socket's recv_batch_views hands over)
// delivers exactly the packets owned-bytes ingress does, and every slab
// is back in the pool once the exchange is over.
TEST(ServiceNode, ViewsIngressMatchesBytesIngress) {
  constexpr int kFlows = 6;
  constexpr int kPerFlow = 30;

  auto run_mode = [&](bool views) {
    simulation net;
    testing::identity_router route;
    auto alice = make_host(net);
    auto bob = make_host(net);

    // Declared before the SN so slabs outlive any view the SN still holds.
    buf::pool_config pcfg;
    pcfg.slab_size = 2048;
    pcfg.slab_count = 512;
    buf::buf_pool pool(pcfg);

    auto sn = make_sn(net, &route);
    sn->env().deploy(std::make_unique<testing::forwarder_module>());

    std::uint64_t shed = 0;
    if (views) {
      // Re-point the sim handler at the views entry: one slab copy at the
      // edge (standing in for the NIC DMA), zero copies after.
      net.set_handler(sn->node_id(), [&pool, &shed, raw = sn.get()](node_id from,
                                                                    const bytes& data) {
        buf::slab_ref slab = pool.try_alloc();
        if (!slab || data.size() > slab.size()) {
          ++shed;  // counted drop, like the real transport under exhaustion
          return;
        }
        std::memcpy(slab.data(), data.data(), data.size());
        std::pair<peer_id, buf::pkt_view> one{
            static_cast<peer_id>(from), buf::pkt_view(std::move(slab), 0, data.size())};
        raw->on_datagram_views(std::span(&one, 1));
      });
    }

    for (int c = 1; c <= kFlows; ++c) {
      for (int p = 0; p < kPerFlow; ++p) {
        alice->mgr->send(sn->node_id(), delivery_header(bob->node, c),
                         to_bytes("c" + std::to_string(c) + "p" + std::to_string(p)));
      }
    }
    net.run();
    EXPECT_EQ(shed, 0u);

    if (views) {
      // Every slab reference the datapath took has been dropped — nothing
      // pinned in scratch batches or the terminus.
      const auto ps = pool.stats();
      EXPECT_EQ(ps.outstanding, 0u);
      EXPECT_EQ(ps.allocs, ps.frees);
      EXPECT_GE(ps.allocs, static_cast<std::uint64_t>(kFlows * kPerFlow));
    }

    std::multiset<std::string> payloads;
    for (auto& [hdr, payload] : bob->received) payloads.insert(to_string(payload));
    return payloads;
  };

  const auto from_bytes = run_mode(/*views=*/false);
  const auto from_views = run_mode(/*views=*/true);
  EXPECT_EQ(from_bytes.size(), static_cast<std::size_t>(kFlows * kPerFlow));
  EXPECT_EQ(from_views, from_bytes);
}

// ---- periodic loops: stop then start -----------------------------------
//
// Each loop is started with sink A and a 5-run bound, stopped, and
// restarted with sink B inside the same interval. A stopped chain must
// never fire again, and it must not cut the new chain short.

TEST(ServiceNodeTicks, StatsRestartRunsOnlyTheNewLoop) {
  simulation net;
  auto sn = make_sn(net, nullptr);
  int a = 0, b = 0;
  sn->start_stats_reporting(5ms, [&a](const std::string&) { ++a; }, 5);
  sn->stop_stats_reporting();
  sn->start_stats_reporting(5ms, [&b](const std::string&) { ++b; }, 5);
  net.run();
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 5);
}

TEST(ServiceNodeTicks, ObservabilityPushRestartRunsOnlyTheNewLoop) {
  simulation net;
  auto sn = make_sn(net, nullptr);
  int a = 0, b = 0;
  sn->start_observability_push(
      5ms, [&a](const metrics_registry&, std::span<const trace::path_span>) { ++a; }, 5);
  sn->stop_observability_push();
  sn->start_observability_push(
      5ms, [&b](const metrics_registry&, std::span<const trace::path_span>) { ++b; }, 5);
  net.run();
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 5);
}

TEST(ServiceNodeTicks, CheckpointRestartRunsOnlyTheNewLoop) {
  simulation net;
  auto sn = make_sn(net, nullptr);
  int a = 0, b = 0;
  sn->start_checkpointing(5ms, [&a](bytes) { ++a; }, 5);
  sn->stop_checkpointing();
  sn->start_checkpointing(5ms, [&b](bytes) { ++b; }, 5);
  net.run();
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 5);
  EXPECT_EQ(sn->metrics().get_counter("sn.checkpoint.taken").value(), 5u);
}

TEST(ServiceNodeTicks, HealthPlaneRestartRunsOnlyTheNewLoop) {
  // The health tick has no sink; its count is the sliding-window store's
  // tick count. A doubled chain would double-count every window.
  simulation net;
  auto sn = make_sn(net, nullptr);
  service_node::health_config hc;
  hc.interval = 5ms;
  sn->start_health_plane(hc, 5);
  sn->stop_health_plane();
  sn->start_health_plane(hc, 5);
  net.run();
  ASSERT_NE(sn->health_series(), nullptr);
  EXPECT_EQ(sn->health_series()->ticks(), 5u);
}

}  // namespace
}  // namespace interedge::core

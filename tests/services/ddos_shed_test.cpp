// DDoS mitigation under slow-path shed (ISSUE 9 satellite): a protected
// destination flooded with cold flows saturates the slow path, and the
// node must fail closed — the flood sheds with TTL'd drop verdicts while
// allowlisted legitimate flows ride their cached admit verdicts through
// the congestion untouched. Also pins the verdict lifetimes: shed drops
// age out (re-judged, still denied) and admit-cache entries age out
// (re-judged, re-admitted).
#include <gtest/gtest.h>

#include "common/serial.h"
#include "core/service_node.h"
#include "core/test_modules.h"
#include "services/ddos.h"
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
                                      sn_config config) {
  const node_id node = net.add_node(nullptr);
  config.id = node;
  auto sn = std::make_unique<service_node>(
      config, net.sim_clock(),
      [&net, node](peer_id to, bytes d) {
        net.send(node, static_cast<node_id>(to), std::move(d));
      },
      [&net](nanoseconds delay, std::function<void()> fn) { net.after(delay, std::move(fn)); },
      route);
  net.set_handler(node, [raw = sn.get()](node_id from, const bytes& data) {
    raw->on_datagram(from, data);
  });
  return sn;
}

// A client whose sealed datagrams land in an outbox instead of the
// simulator, so a whole flood can be handed to the SN as one ingress
// batch (the failover_test pattern).
struct outbox_client {
  node_id node = 0;
  std::vector<bytes> outbox;
  std::unique_ptr<ilp::pipe_manager> mgr;
};

std::unique_ptr<outbox_client> make_outbox_client(simulation& net) {
  auto c = std::make_unique<outbox_client>();
  c->node = net.add_node(nullptr);
  c->mgr = std::make_unique<ilp::pipe_manager>(
      c->node, [raw = c.get()](peer_id, bytes d) { raw->outbox.push_back(std::move(d)); },
      [](peer_id, const ilp::ilp_header&, bytes) {});
  net.set_handler(c->node, [raw = c.get()](node_id from, const bytes& data) {
    raw->mgr->on_datagram(from, data);
  });
  return c;
}

// Feeds a client's queued datagrams into the SN until the exchange
// settles (handshake replies flush queued sends back into the outbox).
void pump(simulation& net, service_node& sn, outbox_client& c) {
  while (!c.outbox.empty()) {
    std::vector<bytes> batch = std::move(c.outbox);
    c.outbox.clear();
    for (bytes& d : batch) sn.on_datagram(c.node, d);
    ASSERT_TRUE(sn.wait_idle());
    net.run();
  }
}

ilp::ilp_header data_header(edge_addr dest, edge_addr src, ilp::connection_id conn) {
  ilp::ilp_header h;
  h.service = ilp::svc::ddos_protect;
  h.connection = conn;
  h.flags = ilp::kFlagFromHost;
  h.set_meta_u64(ilp::meta_key::dest_addr, dest);
  h.set_meta_u64(ilp::meta_key::src_addr, src);
  return h;
}

ilp::ilp_header control_header(std::string_view op, edge_addr src) {
  ilp::ilp_header h;
  h.service = ilp::svc::ddos_protect;
  h.connection = 900;
  h.flags = ilp::kFlagControl | ilp::kFlagFromHost;
  h.set_meta_str(ilp::meta_key::control_op, op);
  h.set_meta_u64(ilp::meta_key::src_addr, src);
  return h;
}

std::size_t payload_count(const sim_host& h, std::string_view body) {
  std::size_t n = 0;
  for (const auto& [hdr, payload] : h.received) {
    if (to_string(payload) == body) ++n;
  }
  return n;
}

// Shared fixture state: an SN with a tiny slow-path budget, the
// real ddos module protecting `victim`, `legit` allowlisted with a cached
// admit verdict, and an attacker wired for batch floods.
struct shed_rig {
  simulation net;
  testing::identity_router route;
  std::unique_ptr<sim_host> victim;
  std::unique_ptr<service_node> sn;
  services::ddos_service* ddos = nullptr;
  std::unique_ptr<outbox_client> legit;
  std::unique_ptr<outbox_client> attacker;

  explicit shed_rig(sn_config config) {
    victim = make_host(net);
    sn = make_sn(net, &route, config);
    auto mod = std::make_unique<services::ddos_service>(1e6, 1e6, /*secret_seed=*/7);
    ddos = mod.get();
    sn->env().deploy(std::move(mod));
    legit = make_outbox_client(net);
    attacker = make_outbox_client(net);

    // Protection on, legitimate sender allowlisted, admitted flows cached
    // with a TTL so the fast path survives slow-path pressure.
    victim->mgr->send(sn->node_id(), control_header(services::ops::protect, victim->node), {});
    net.run();
    writer w(8);
    w.u64(legit->node);
    victim->mgr->send(sn->node_id(), control_header(services::ops::allow, victim->node),
                      w.take());
    net.run();
    sn->env().set_config(ilp::svc::ddos_protect, "admit_cache_ttl_ms", "50");
  }
};

TEST(DdosShed, LegitimateFlowsSurviveFloodOnCachedAdmitVerdicts) {
  shed_rig rig(sn_config{.slowpath_high_water = 4, .shed_ttl = 5ms});

  // Warm the legitimate flow: its first packet takes the slow path, gets
  // uRPF-checked against the allowlist, and installs a TTL'd forward.
  rig.legit->mgr->send(rig.sn->node_id(),
                       data_header(rig.victim->node, rig.legit->node, 1), to_bytes("legit"));
  pump(rig.net, *rig.sn, *rig.legit);
  ASSERT_EQ(payload_count(*rig.victim, "legit"), 1u);

  // Establish the attacker's pipe (its warm packet is denied: protected
  // destination, no allowlist entry, no token — fail closed).
  rig.attacker->mgr->send(rig.sn->node_id(),
                          data_header(rig.victim->node, rig.attacker->node, 100),
                          to_bytes("attack"));
  pump(rig.net, *rig.sn, *rig.attacker);
  ASSERT_EQ(payload_count(*rig.victim, "attack"), 0u);

  // One ingress batch: 400 cold attack flows with a legitimate packet
  // interleaved every 20. The terminus submits each cold flow as it meets
  // it but drains responses only at the end of a same-peer run, so every
  // 20-flow run fills the 4-deep slow-path budget by construction.
  constexpr int kFlood = 400;
  constexpr int kLegit = kFlood / 20;
  for (int i = 1; i <= kFlood; ++i) {
    rig.attacker->mgr->send(rig.sn->node_id(),
                            data_header(rig.victim->node, rig.attacker->node, 100 + i),
                            to_bytes("attack"));
  }
  for (int i = 0; i < kLegit; ++i) {
    rig.legit->mgr->send(rig.sn->node_id(),
                         data_header(rig.victim->node, rig.legit->node, 1), to_bytes("legit"));
  }
  ASSERT_EQ(rig.attacker->outbox.size(), static_cast<std::size_t>(kFlood));
  ASSERT_EQ(rig.legit->outbox.size(), static_cast<std::size_t>(kLegit));
  std::vector<std::pair<peer_id, bytes>> burst;
  for (int i = 0; i < kFlood; ++i) {
    burst.emplace_back(rig.attacker->node, std::move(rig.attacker->outbox[i]));
    if (i % 20 == 19) {
      burst.emplace_back(rig.legit->node, std::move(rig.legit->outbox[i / 20]));
    }
  }
  rig.attacker->outbox.clear();
  rig.legit->outbox.clear();
  rig.sn->on_datagrams(std::span(burst));
  ASSERT_TRUE(rig.sn->wait_idle());
  rig.net.run();

  // Survival ratio 1.0: every legitimate packet rode its cached admit
  // verdict through the saturated slow path.
  EXPECT_EQ(payload_count(*rig.victim, "legit"), 1u + kLegit);
  // Fail closed: nothing from the flood reached the victim — denied on
  // the slow path or shed before reaching it.
  EXPECT_EQ(payload_count(*rig.victim, "attack"), 0u);

  metrics_registry merged;
  rig.sn->merge_metrics_into(merged);
  double shed = 0;
  for (const auto& s : merged.samples()) {
    if (s.name == "sn.slowpath.shed") shed += s.value;
  }
  EXPECT_GT(shed, 0.0);
  // Every packet the terminus received was resolved one way or another.
  const terminus_stats& st = rig.sn->datapath_stats();
  EXPECT_EQ(st.fast_path + st.slow_path + st.shed, st.received);
}

TEST(DdosShed, ShedVerdictAgesOutAndFlowIsRejudged) {
  shed_rig rig(sn_config{.slowpath_high_water = 4, .shed_ttl = 5ms});

  // Establish the attacker's pipe, then saturate with cold flows so some
  // shed with the TTL'd fail-closed drop.
  rig.attacker->mgr->send(rig.sn->node_id(),
                          data_header(rig.victim->node, rig.attacker->node, 100),
                          to_bytes("attack"));
  pump(rig.net, *rig.sn, *rig.attacker);
  for (int i = 1; i <= 400; ++i) {
    rig.attacker->mgr->send(rig.sn->node_id(),
                            data_header(rig.victim->node, rig.attacker->node, 100 + i),
                            to_bytes("attack"));
  }
  std::vector<std::pair<peer_id, bytes>> burst;
  for (bytes& d : rig.attacker->outbox) burst.emplace_back(rig.attacker->node, std::move(d));
  rig.attacker->outbox.clear();
  rig.sn->on_datagrams(std::span(burst));
  ASSERT_TRUE(rig.sn->wait_idle());
  rig.net.run();

  ASSERT_GT(rig.sn->datapath_stats().shed, 0u);
  const std::uint64_t denied_after_flood = rig.ddos->denied();
  // The 4-deep budget means only a handful of the 400 flows were actually
  // judged (and denial-cached, permanently); the rest shed with TTL'd
  // drops. Retry a slice wide enough to be sure it contains shed flows.
  ASSERT_LT(denied_after_flood, 50u);
  auto retry_slice = [&rig] {
    for (int i = 1; i <= 50; ++i) {
      rig.attacker->mgr->send(rig.sn->node_id(),
                              data_header(rig.victim->node, rig.attacker->node, 100 + i),
                              to_bytes("attack"));
      pump(rig.net, *rig.sn, *rig.attacker);
    }
  };

  // Within the shed TTL, retries of shed flows are dropped from the
  // cached verdicts — the module is NOT consulted again (that's the whole
  // point: retries cost fast-path time, not slow-path budget).
  retry_slice();
  EXPECT_EQ(rig.ddos->denied(), denied_after_flood);

  // Past the TTL the shed verdicts age out and those flows are re-judged
  // on the (now uncongested) slow path — still denied, but by policy now,
  // not by congestion.
  rig.net.after(20ms, [] {});
  rig.net.run();
  retry_slice();
  EXPECT_GT(rig.ddos->denied(), denied_after_flood);
  EXPECT_EQ(payload_count(*rig.victim, "attack"), 0u);
}

TEST(DdosShed, AdmitCacheTtlForcesReadmission) {
  // Admit entries expire on the configured TTL and the flow is re-judged
  // — and re-admitted — without a delivery gap.
  shed_rig rig(sn_config{});
  rig.sn->env().set_config(ilp::svc::ddos_protect, "admit_cache_ttl_ms", "5");

  rig.legit->mgr->send(rig.sn->node_id(),
                       data_header(rig.victim->node, rig.legit->node, 1), to_bytes("legit"));
  pump(rig.net, *rig.sn, *rig.legit);
  rig.legit->mgr->send(rig.sn->node_id(),
                       data_header(rig.victim->node, rig.legit->node, 1), to_bytes("legit"));
  pump(rig.net, *rig.sn, *rig.legit);
  const auto warm = rig.sn->cache().stats();
  EXPECT_GE(warm.hits, 1u);  // second packet rode the cached admit

  rig.net.after(20ms, [] {});
  rig.net.run();
  rig.legit->mgr->send(rig.sn->node_id(),
                       data_header(rig.victim->node, rig.legit->node, 1), to_bytes("legit"));
  pump(rig.net, *rig.sn, *rig.legit);

  const auto aged = rig.sn->cache().stats();
  EXPECT_GE(aged.expired, warm.expired + 1);  // the admit verdict lapsed
  EXPECT_GE(aged.inserts, warm.inserts + 1);  // and was re-installed
  EXPECT_EQ(payload_count(*rig.victim, "legit"), 3u);  // no delivery gap
}

}  // namespace
}  // namespace interedge::core

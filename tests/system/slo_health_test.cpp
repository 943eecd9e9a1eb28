// SLO health plane end to end (ISSUE 7) over the deterministic simulator:
// an injected latency fault must trip the fast-window burn-rate page on the
// edomain plane, the page must freeze an SN's black-box flight recorder
// into a postmortem that contains the triggering spans, and plane rollups
// must survive restart/duplicate churn without double-counting — all replayable from a
// seeded fault schedule. This binary is also a sanitizer CI target
// (tools/ci_sanitizers.sh, ctest -R slo_health_test).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>
#include <vector>

#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "common/slo.h"
#include "common/timeseries.h"
#include "common/trace.h"
#include "core/service_node.h"
#include "core/test_modules.h"
#include "deploy/deployment.h"
#include "deploy/standard_services.h"
#include "edomain/observability.h"
#include "simnet/simulation.h"

namespace interedge {
namespace {

using namespace std::chrono_literals;
using core::peer_id;
using edomain::edomain_id;

deploy::deployment_config tracing_config(std::uint64_t seed = 1) {
  deploy::deployment_config cfg;
  cfg.seed = seed;
  cfg.trace_sample_shift = 0;  // trace every send
  cfg.host_path_span_capacity = 512;
  cfg.sn_path_span_capacity = 4096;
  cfg.hosts_allow_direct = false;
  return cfg;
}

// Same 3-hop, 2-edomain shape as path_trace_test: alice -> sn_a -> gw1 ->
// gw2 -> bob.
struct three_hop_fixture {
  deploy::deployment net;
  edomain_id dom1, dom2;
  peer_id gw1, sn_a, gw2;
  host::host_stack* alice;
  host::host_stack* bob;
  int delivered = 0;

  explicit three_hop_fixture(deploy::deployment_config cfg = tracing_config()) : net(cfg) {
    dom1 = net.add_edomain();
    gw1 = net.add_sn(dom1);
    sn_a = net.add_sn(dom1);
    dom2 = net.add_edomain();
    gw2 = net.add_sn(dom2);
    alice = &net.add_host(dom1, sn_a);
    bob = &net.add_host(dom2, gw2);
    net.interconnect();
    deploy::deploy_standard_services(net);
    bob->set_default_handler([this](const ilp::ilp_header&, bytes) { ++delivered; });
  }
};

// Simulation-scale burn windows: a page confirms over 10ms AND 20ms.
slo::burn_windows sim_windows() {
  slo::burn_windows w;
  w.fast_short = 10ms;
  w.fast_long = 20ms;
  w.page_burn = 14.4;
  w.slow_short = 40ms;
  w.slow_long = 80ms;
  w.warn_burn = 3.0;
  w.clear_after = 2;
  return w;
}

// One seeded run of the latency-fault scenario. Healthy sends cross in
// ~2.1ms; at 30ms the sn_a<->gw1 link degrades to 20ms one-way, pushing
// end-to-end totals far over the 10ms SLO threshold; the fast burn windows
// fill with out-of-budget completions and the monitor pages.
struct fault_run {
  std::vector<slo::slo_alert> alerts;
  std::string alert_digest;
  std::string blackbox_dump;
  bool blackbox_frozen = false;
  std::uint32_t frozen_by = 0;
  int delivered = 0;
};

fault_run run_latency_fault(std::uint64_t seed) {
  three_hop_fixture f(tracing_config(seed));
  edomain::observability_plane& plane = f.net.core_of(f.dom1).observability();

  timeseries_store::config series;
  series.window = 5ms;
  series.windows = 64;
  plane.enable_health(series, sim_windows());
  slo::slo_target t;
  t.name = "delivery-p99";
  t.service = "delivery";
  t.latency_series = render_metric_key("edomain.path.total_ns", {{"service", "delivery"}});
  t.threshold_ns = 10'000'000;  // 10ms end-to-end budget
  t.error_budget = 0.01;
  plane.add_slo(t);

  fault_run out;
  plane.set_alert_hook([&f, &out](const slo::slo_alert& a) {
    out.alerts.push_back(a);
    if (a.state == slo::slo_state::page) {
      // The pager's first move: freeze the suspect SN's black box so the
      // spans that tripped the burn are preserved as a postmortem.
      f.net.sn(f.sn_a).blackbox()->trigger(kTrigSloPage, a.at_ns);
    }
  });

  // SNs push merged metrics + drained spans into the plane on their own
  // scheduler ticks (the drain also feeds each SN's flight recorder).
  for (const peer_id id : {f.gw1, f.sn_a}) {
    f.net.sn(id).start_observability_push(
        2ms,
        [&plane, id](const metrics_registry& merged, std::span<const trace::path_span> spans) {
          plane.ingest(id, merged, spans);
        },
        /*max_pushes=*/60);
  }

  // Traffic: one send every 2ms for the whole run.
  for (int ms = 0; ms < 90; ms += 2) {
    f.net.net().at(time_point(std::chrono::milliseconds(ms)), [&f] {
      f.alice->send_to(f.bob->addr(), ilp::svc::delivery, to_bytes("slo"));
    });
  }

  // Control tick: fold host-side span ends into the plane (completing the
  // end-to-end latency series) and evaluate the SLOs every 5ms.
  for (int ms = 5; ms <= 115; ms += 5) {
    f.net.net().at(time_point(std::chrono::milliseconds(ms)), [&f, &plane] {
      std::vector<trace::path_span> ends;
      f.alice->drain_path_spans(ends);
      f.bob->drain_path_spans(ends);
      plane.traces().ingest(std::span<const trace::path_span>(ends));
      plane.health_tick(f.net.net().now());
    });
  }

  // The seeded fault schedule: at 30ms the host-side SN's uplink degrades.
  const std::vector<sim::fault_event> schedule = {
      {.at = 30ms,
       .kind = sim::fault_kind::latency,
       .a = static_cast<sim::node_id>(f.sn_a),
       .b = static_cast<sim::node_id>(f.gw1),
       .value = 20.0},
  };
  f.net.net().schedule_faults(schedule);
  f.net.net().run_until(time_point(120ms));

  out.delivered = f.delivered;
  out.blackbox_frozen = f.net.sn(f.sn_a).blackbox()->frozen();
  out.frozen_by = f.net.sn(f.sn_a).blackbox()->frozen_by();
  out.blackbox_dump = f.net.sn(f.sn_a).dump_blackbox_json();

  std::ostringstream os;
  for (const slo::slo_alert& a : out.alerts) {
    os << a.slo << ':' << static_cast<int>(a.state) << ':' << static_cast<int>(a.prev) << ':'
       << a.at_ns << '\n';
  }
  out.alert_digest = os.str();
  return out;
}

TEST(SloHealth, LatencyFaultTripsFastBurnPageAndFreezesBlackbox) {
  const fault_run r = run_latency_fault(1234);

  // Traffic flowed in both phases.
  EXPECT_GT(r.delivered, 20);

  // The injected latency fault tripped the multi-window page.
  const slo::slo_alert* page = nullptr;
  for (const slo::slo_alert& a : r.alerts) {
    if (a.state == slo::slo_state::page) page = &a;
  }
  ASSERT_NE(page, nullptr);
  EXPECT_EQ(page->slo, "delivery-p99");
  EXPECT_EQ(page->service, "delivery");
  EXPECT_GE(page->burn_fast, 14.4);
  // The page postdates the fault injection at 30ms.
  EXPECT_GE(page->at_ns, 30'000'000u);

  // The page froze the SN's black box into a postmortem that carries the
  // lead-up spans and names its trigger.
  EXPECT_TRUE(r.blackbox_frozen);
  EXPECT_EQ(r.frozen_by, kTrigSloPage);
  EXPECT_NE(r.blackbox_dump.find("\"frozen\":true"), std::string::npos);
  EXPECT_NE(r.blackbox_dump.find("\"trigger\":\"slo_page\""), std::string::npos);
  EXPECT_NE(r.blackbox_dump.find("\"kind\":\"span\""), std::string::npos);

  // Replay: same seed, same schedule => byte-identical alert sequence.
  const fault_run replay = run_latency_fault(1234);
  EXPECT_EQ(replay.alert_digest, r.alert_digest);
  EXPECT_EQ(replay.delivered, r.delivered);
  EXPECT_EQ(replay.blackbox_frozen, r.blackbox_frozen);
}

TEST(SloHealth, PlaneExposesSloStateAndAlertsJson) {
  const fault_run r = run_latency_fault(7);
  ASSERT_FALSE(r.alerts.empty());

  // A fresh fixture just for exposition shape: enable health, page it via
  // the same scenario, then check the merged Prometheus text.
  three_hop_fixture f(tracing_config(7));
  edomain::observability_plane& plane = f.net.core_of(f.dom1).observability();
  timeseries_store::config series;
  series.window = 5ms;
  plane.enable_health(series, sim_windows());
  slo::slo_target t;
  t.name = "delivery-p99";
  t.service = "delivery";
  t.latency_series = render_metric_key("edomain.path.total_ns", {{"service", "delivery"}});
  t.threshold_ns = 10'000'000;
  plane.add_slo(t);
  // No traffic: the SLO sits at ok and still exposes its state gauge.
  plane.health_tick(f.net.net().now());
  const std::string prom = plane.export_prometheus();
  EXPECT_NE(prom.find("slo_state"), std::string::npos);
  const std::string alerts_json = plane.export_alerts_json();
  EXPECT_NE(alerts_json.find("\"slos\""), std::string::npos);
}

// ---- single-SN rig: profiler postmortems ------------------------------

using sim::node_id;
using sim::simulation;

struct sim_host {
  node_id node = 0;
  std::unique_ptr<ilp::pipe_manager> mgr;
  int received = 0;
};

std::unique_ptr<sim_host> make_host(simulation& net) {
  auto h = std::make_unique<sim_host>();
  h->node = net.add_node(nullptr);
  h->mgr = std::make_unique<ilp::pipe_manager>(
      h->node,
      [&net, node = h->node](peer_id peer, bytes d) {
        net.send(node, static_cast<node_id>(peer), std::move(d));
      },
      [raw = h.get()](peer_id, const ilp::ilp_header&, bytes) { ++raw->received; });
  net.set_handler(h->node, [raw = h.get()](node_id from, const bytes& data) {
    raw->mgr->on_datagram(from, data);
  });
  return h;
}

std::unique_ptr<core::service_node> make_sn(simulation& net, const core::router* route) {
  const node_id node = net.add_node(nullptr);
  core::sn_config cfg;
  cfg.id = node;
  cfg.edomain = 1;
  auto sn = std::make_unique<core::service_node>(
      cfg, net.sim_clock(),
      [&net, node](peer_id to, bytes d) { net.send(node, static_cast<node_id>(to), std::move(d)); },
      [&net](nanoseconds delay, std::function<void()> fn) { net.after(delay, std::move(fn)); },
      route);
  net.set_handler(node, [raw = sn.get()](node_id from, const bytes& data) {
    raw->on_datagram(from, data);
  });
  return sn;
}

ilp::ilp_header delivery_header(ilp::edge_addr dest, ilp::connection_id conn) {
  ilp::ilp_header h;
  h.service = ilp::svc::delivery;
  h.connection = conn;
  h.flags = ilp::kFlagFromHost;
  h.set_meta_u64(ilp::meta_key::dest_addr, dest);
  return h;
}

// ---- profiling plane (ISSUE 10): postmortems carry hot stacks ---------

// CPU burner the sampler can attribute; static so the .symtab fallback is
// also exercised through the SN-level path.
__attribute__((noinline)) static std::uint64_t slo_health_profile_spin(int ms) {
  volatile std::uint64_t acc = 1;
  timespec start{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &start);
  for (;;) {
    for (int i = 0; i < 4096; ++i) acc = acc * 6364136223846793005ull + 1442695040888963407ull;
    timespec now{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
    if ((now.tv_sec - start.tv_sec) * 1000 + (now.tv_nsec - start.tv_nsec) / 1000000 >= ms) break;
  }
  return acc;
}

TEST(SloHealth, FrozenPostmortemEmbedsHotStacksWhenProfilerArmed) {
  simulation net;
  core::testing::identity_router route;
  auto alice = make_host(net);
  auto bob = make_host(net);

  const node_id node = net.add_node(nullptr);
  core::sn_config cfg;
  cfg.id = node;
  cfg.edomain = 1;
  cfg.blackbox_capacity = 256;
  cfg.profiler_hz = 997;
  cfg.profiler_force_timer = true;  // deterministic backend under any CI
  auto sn = std::make_unique<core::service_node>(
      cfg, net.sim_clock(),
      [&net, node](peer_id to, bytes d) { net.send(node, static_cast<node_id>(to), std::move(d)); },
      [&net](nanoseconds delay, std::function<void()> fn) { net.after(delay, std::move(fn)); },
      &route);
  net.set_handler(node, [raw = sn.get()](node_id from, const bytes& data) {
    raw->on_datagram(from, data);
  });
  sn->env().deploy(std::make_unique<core::testing::forwarder_module>());
  ASSERT_NE(sn->profiler(), nullptr);
  ASSERT_TRUE(sn->profiler()->armed());

  // Give the sampler something to catch on the control thread, plus real
  // datapath traffic, then fold it into a published snapshot the way a
  // health tick would.
  const ilp::connection_id conn = 1;
  for (int i = 0; i < 4; ++i) {
    alice->mgr->send(sn->node_id(), delivery_header(bob->node, conn), to_bytes("prof"));
  }
  net.run();
  slo_health_profile_spin(150);
  sn->profile_refresh();

  // Freeze by hand (same path a burn-rate page takes): the
  // postmortem must carry a NON-empty hot-stack table.
  ASSERT_NE(sn->blackbox(), nullptr);
  sn->blackbox()->trigger(kTrigManual, 1);
  const std::string dump = sn->dump_blackbox_json();
  EXPECT_TRUE(sn->blackbox()->frozen());
  ASSERT_NE(dump.find("\"hot_stacks\":["), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"hot_stacks\":[{"), std::string::npos) << dump.substr(0, 400);
  EXPECT_NE(dump.find("\"count\":"), std::string::npos);
  EXPECT_EQ(bob->received, 4);

  // Profiler metrics landed in the registry via the same refresh.
  EXPECT_GT(sn->metrics().get_gauge("sn.profile.samples").value(), 0);
}

TEST(SloHealth, PostmortemHotStacksEmptyWhenProfilerOff) {
  simulation net;
  core::testing::identity_router route;
  auto sn = make_sn(net, &route);
  ASSERT_EQ(sn->profiler(), nullptr);
  ASSERT_NE(sn->blackbox(), nullptr);
  sn->blackbox()->trigger(kTrigManual, 1);
  const std::string dump = sn->dump_blackbox_json();
  // The key is always present so postmortem consumers need no probing —
  // an empty table when the profiling plane is off.
  EXPECT_NE(dump.find("\"hot_stacks\":[]"), std::string::npos) << dump.substr(0, 400);
}

// ---- churn: restarts and duplicate pushes must not double-count -------

TEST(SloHealth, PlaneRollupsSurviveChurnWithoutDoubleCounting) {
  three_hop_fixture f;
  edomain::observability_plane& plane = f.net.core_of(f.dom1).observability();
  timeseries_store::config series;
  series.window = 5ms;
  plane.enable_health(series, sim_windows());

  constexpr int kSends = 6;
  for (int i = 0; i < kSends; ++i) {
    f.alice->send_to(f.bob->addr(), ilp::svc::delivery, to_bytes("churn"));
  }
  f.net.run();
  ASSERT_EQ(f.delivered, kSends);

  // Drain sn_a once, then push the SAME batch twice — an SN re-draining
  // after a restart or a duplicated push mid-window.
  std::vector<trace::path_span> spans;
  f.net.sn(f.sn_a).drain_path_spans(spans);
  metrics_registry snap;
  f.net.sn(f.sn_a).merge_metrics_into(snap);
  plane.ingest(f.sn_a, snap, spans);
  const auto first = plane.rollup(ilp::svc::delivery, f.sn_a);
  plane.ingest(f.sn_a, snap, spans);
  const auto second = plane.rollup(ilp::svc::delivery, f.sn_a);
  EXPECT_EQ(first.spans, second.spans);
  EXPECT_GE(first.spans, static_cast<std::uint64_t>(kSends));
  EXPECT_GT(plane.traces().duplicates_ignored(), 0u);

  // Host ends complete wave 1's traces (the first sighting of the latency
  // histogram is the window store's baseline tick).
  std::vector<trace::path_span> ends;
  f.alice->drain_path_spans(ends);
  f.bob->drain_path_spans(ends);
  plane.traces().ingest(std::span<const trace::path_span>(ends));
  const time_point t0 = f.net.net().now();
  plane.health_tick(t0);

  // Wave 2 lands inside a later window; replaying wave 1's ends alongside
  // it is idempotent, so the window holds exactly wave 2's samples.
  constexpr int kWave2 = 4;
  for (int i = 0; i < kWave2; ++i) {
    f.alice->send_to(f.bob->addr(), ilp::svc::delivery, to_bytes("wave2"));
  }
  f.net.run();
  ASSERT_EQ(f.delivered, kSends + kWave2);
  std::vector<trace::path_span> wave2;
  f.net.sn(f.sn_a).drain_path_spans(wave2);
  f.alice->drain_path_spans(wave2);
  f.bob->drain_path_spans(wave2);
  plane.traces().ingest(std::span<const trace::path_span>(wave2));
  plane.traces().ingest(std::span<const trace::path_span>(ends));  // churn replay
  plane.health_tick(t0 + 10ms);
  const std::string key =
      render_metric_key("edomain.path.total_ns", {{"service", "delivery"}});
  ASSERT_NE(plane.series(), nullptr);
  EXPECT_EQ(plane.series()->hist_count(key, 10ms), static_cast<std::uint64_t>(kWave2));

  // A node restart wipes its cumulative counters: the window store clamps
  // the collapsed delta to the fresh value instead of going negative.
  metrics_registry before;
  before.get_counter("churn.restart.pkts").add(1000);
  plane.ingest(/*node=*/999, before, {});
  plane.health_tick(t0 + 20ms);
  metrics_registry after;  // restarted: counter collapsed to 3
  after.get_counter("churn.restart.pkts").add(3);
  plane.ingest(/*node=*/999, after, {});
  plane.health_tick(t0 + 25ms);
  EXPECT_GE(plane.series()->counter_resets(), 1u);
  EXPECT_LE(plane.series()->delta("churn.restart.pkts", 5ms), 3u);
}

}  // namespace
}  // namespace interedge

// Host -> SN -> host over real loopback UDP, the per-hop cost the paper's
// Appendix C measures. One process, three pinned threads:
//
//   generator  the sender host(s): seals through connection::send, queues
//              the sealed datagrams and flushes everything due with one
//              udp_endpoint::send_batch per host
//   sn         a service_node built as examples/udp_live builds it
//              (sn_config defaults apart from id/edomain, udp_config{},
//              delivery_service, attach_views -> on_datagram_views,
//              send_gather egress)
//   receiver   the receiving host; busy-polls its socket and validates
//              every delivered packet
//
// The workload seed sets host_config::connection_seed and every generated
// order (flows, sizes, payload bytes). Every delivered packet is checked:
// its flow is one the generator opened, its sequence number is seen once,
// and its length and bytes are what was generated for that number.
//
//   loopback_bench --workload fwd_small|fwd_paced_imix|conn_churn
//                  --seed N --seconds S --trace 0|1 [--rev R] [--src-lines N]
//
// Prints the metrics by name with units, the one-second slices behind
// them as a `slices {...}` JSON line, then one JSON line with the
// end-to-end metrics (--trace 0) or the per-layer ones from spans and
// counters recorded around the harness's own calls (--trace 1). setup_s
// runs from process start to the first timed packet. Exits 1 on any
// invalid delivery, 2 on bad arguments or a run that did not finish.
#include <pthread.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cmath>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_math.h"
#include "common/clock.h"
#include "common/cpu_topology.h"
#include "core/service_module.h"
#include "core/service_node.h"
#include "host/host_stack.h"
#include "net/udp_transport.h"
#include "services/delivery.h"

using namespace interedge;
using namespace perfbench;

namespace {

// ---------------------------------------------------------------- workloads

struct workload {
  const char* name;
  bool open_loop;
  unsigned outstanding;     // closed loop: packets in flight
  std::uint64_t rate_pps;   // open loop: paced send rate
  unsigned hosts;           // sender hosts, one socket and one pipe each
  unsigned flows;           // long-lived flows (0: a new flow every 4 packets)
  bool imix;                // 64/576/1200 B at 7:4:1, else 64 B
  std::uint64_t warmup;     // untimed packets delivered before the window
};

constexpr workload kWorkloads[] = {
    // Table 1 shape: 64 outstanding, smallest payload, one elephant pipe
    // whose 16 flows all hit the decision cache after warm-up.
    {"fwd_small", false, 64, 0, 1, 16, false, 4096},
    // Light paced load: wake-ups, per-packet latency and size cost.
    {"fwd_paced_imix", true, 0, 20000, 1, 16, true, 2000},
    // Four pipes, a new flow every 4 packets per host: the flow count
    // far exceeds cache_capacity, so slow path, inserts and evictions
    // run beside lookups. Warm-up opens 5120 flows (> 4096 entries).
    {"conn_churn", false, 32, 0, 4, 0, false, 20480},
};

constexpr unsigned kChurnPktsPerFlow = 4;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t cpu_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// Span names shared by the three threads' logs.
enum span_name : std::uint32_t {
  kSnRun,        // one event_loop::run_for slice on the SN thread
  kIngress,      // service_node::on_datagram_views
  kSnTx,         // udp_endpoint::send_gather / send from the SN
  kDelivery,     // delivery_service::on_packet (traced run only)
  kHostSend,     // connection::send on the generator
  kHostFlush,    // udp_endpoint::send_batch on the generator
  kHostRecv,     // host_stack::on_datagram on the receiver
  kValidate,     // the benchmark's own check, nested in kHostRecv
  kSpanNames,
};

// ------------------------------------------------------------ shared state

constexpr std::size_t kTsRing = 1 << 18;    // send timestamps by seq
constexpr std::size_t kFlowRing = 1 << 16;  // flow -> (connection, source)

struct sn_counters {
  core::terminus_stats terminus;
  core::cache_stats cache;
  std::uint64_t pool_exhausted = 0;
  std::uint64_t rx_empty = 0;
  std::uint64_t send_again = 0;
  std::uint64_t uring_parked = 0;
  std::uint64_t thread_cpu = 0;
};

struct run_state {
  run_state(const workload& w, std::uint64_t s, bool t, unsigned secs)
      : wl(w), seed(s), traced(t), seconds(secs), payloads(s), send_ts(kTsRing),
        flow_conn(kFlowRing), flow_src(kFlowRing) {}

  const workload& wl;
  const std::uint64_t seed;
  const bool traced;
  const unsigned seconds;
  const payload_source payloads;

  // Wiring: every thread publishes its ports, then waits for the others'.
  std::uint16_t sn_port = 0, rx_port = 0;
  std::vector<std::uint16_t> tx_ports;
  std::atomic<int> ports{0};
  std::atomic<int> wired{0};

  // Data plane.
  std::vector<std::atomic<std::uint64_t>> send_ts;
  std::vector<std::atomic<std::uint64_t>> flow_conn;
  std::vector<std::atomic<std::uint64_t>> flow_src;
  std::atomic<std::uint64_t> acked{0};  // packets the receiver handled

  // Timed window, published by the generator.
  std::atomic<std::uint64_t> win_seq_start{~0ull};
  std::atomic<std::uint64_t> win_t_start{0};

  // Phases.
  std::atomic<bool> ready{false};
  std::atomic<std::uint64_t> t_ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> gen_done{false};
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};  // a thread threw; the run is abandoned

  // SN-thread counter snapshots, taken on request between loop slices.
  std::atomic<int> snap_req{0};
  std::atomic<int> snap_done{0};
  sn_counters snap[2];
  std::string backend;
  std::size_t workers = 0;

  clockid_t recv_clock{};
  std::atomic<bool> recv_clock_set{false};

  // Results, read after the threads are joined.
  struct {
    std::uint64_t t_start = 0, t_end = 0;
    std::uint64_t seq_start = 0, seq_end = 0;
    // CPU clocks at the window start and every second after it: process,
    // generator thread, receiver thread; and the pinned CPUs' steal.
    struct cpu_mark {
      std::uint64_t proc, gen, recv;
      std::optional<std::uint64_t> steal;
    };
    std::vector<cpu_mark> cpu;
    std::uint64_t busy_ns = 0;
    std::uint64_t writeoffs = 0;
    latency_hist late;
  } gen;
  struct {
    std::vector<std::uint64_t> seen;  // bitmap by seq
    std::uint64_t invalid = 0, duplicate = 0;  // duplicates count as invalid too
    // One latency histogram and byte count per second of send time.
    std::vector<latency_hist> lat;
    std::vector<std::uint64_t> bytes;
  } recv;
  span_log gen_spans, sn_spans, recv_spans;
  std::vector<std::uint32_t> batch_sizes;  // SN handler call -> datagrams
};

// The flow and payload length generated for a sequence number; the
// receiver recomputes both from the sequence number alone.
struct packet_plan {
  unsigned host;
  std::uint64_t flow;
  bool opens_flow;
  std::size_t len;
};

packet_plan plan(const run_state& st, std::uint64_t seq) {
  packet_plan p{};
  if (st.wl.flows > 0) {
    p.flow = mix64(st.seed ^ 0xf10aull, seq) % st.wl.flows;
    p.host = static_cast<unsigned>(p.flow % st.wl.hosts);
  } else {
    // Round-robin over the hosts in a seeded order; each host's flow
    // carries kChurnPktsPerFlow packets, then the host opens a new one.
    const std::uint64_t round = st.wl.hosts * kChurnPktsPerFlow;
    const unsigned slot = static_cast<unsigned>(seq % st.wl.hosts);
    p.host = static_cast<unsigned>((slot + mix64(st.seed, 0x4057) % st.wl.hosts) % st.wl.hosts);
    p.flow = (seq / round) * st.wl.hosts + p.host;
    p.opens_flow = seq % round < st.wl.hosts;
  }
  p.len = st.wl.imix ? imix_size(st.seed, seq) : 64;
  return p;
}

// Timers of the hosts on a polling thread (handshake retries): the
// scheduler host_stack takes, run from the thread's own loop.
class timer_list {
 public:
  auto scheduler() {
    return [this](nanoseconds d, std::function<void()> fn) {
      due_.emplace_back(now_ns() + static_cast<std::uint64_t>(d.count()), std::move(fn));
    };
  }
  void run_due(std::uint64_t now) {
    for (std::size_t i = 0; i < due_.size();) {
      if (due_[i].first > now) {
        ++i;
        continue;
      }
      auto fn = std::move(due_[i].second);
      due_.erase(due_.begin() + static_cast<std::ptrdiff_t>(i));
      fn();
    }
  }

 private:
  std::vector<std::pair<std::uint64_t, std::function<void()>>> due_;
};

class port_router final : public core::router {
 public:
  std::optional<core::peer_id> next_hop(core::edge_addr dest) const override { return dest; }
};

// Delegating module that records a span per slow-path call (traced run).
class timed_module final : public core::service_module {
 public:
  timed_module(std::unique_ptr<core::service_module> inner, span_log& log)
      : inner_(std::move(inner)), log_(log) {}
  ilp::service_id id() const override { return inner_->id(); }
  std::string_view name() const override { return inner_->name(); }
  void start(core::service_context& ctx) override { inner_->start(ctx); }
  bool content_dependent() const override { return inner_->content_dependent(); }
  bytes checkpoint(core::service_context& ctx) override { return inner_->checkpoint(ctx); }
  void restore(core::service_context& ctx, const_byte_span s) override {
    inner_->restore(ctx, s);
  }
  core::module_result on_packet(core::service_context& ctx, const core::packet& pkt) override {
    struct guard {
      span_log& log;
      std::int32_t idx;
      ~guard() { log.end(idx, now_ns()); }
    } g{log_, log_.begin(kDelivery, now_ns())};
    return inner_->on_packet(ctx, pkt);
  }

 private:
  std::unique_ptr<core::service_module> inner_;
  span_log& log_;
};

int cpu_for(unsigned role) {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<int>((role + 1) % static_cast<unsigned>(n > 0 ? n : 1));
}
enum role : unsigned { kGenRole = 0, kSnRole = 1, kRecvRole = 2 };

std::string read_file(const char* path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// Steal ticks of the three pinned CPUs, summed; nullopt when unreadable.
std::optional<std::uint64_t> pinned_steal() {
  const std::string stat = read_file("/proc/stat");
  std::uint64_t sum = 0;
  for (unsigned r : {kGenRole, kSnRole, kRecvRole}) {
    const auto v = cpu_steal(stat, cpu_for(r));
    if (!v) return std::nullopt;
    sum += *v;
  }
  return sum;
}

// Barrier for the three threads; false when one of them failed instead.
bool rendezvous(run_state& st, std::atomic<int>& arrived) {
  arrived.fetch_add(1);
  while (arrived.load() < 3) {
    if (st.failed.load()) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return !st.failed.load();
}

// Runs a thread body; an exception abandons the run instead of ending the
// process with the other threads unjoined.
void guarded(const char* name, void (*body)(run_state&), run_state& st) {
  try {
    body(st);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s thread failed: %s\n", name, e.what());
    st.failed.store(true);
  }
}

// ------------------------------------------------------------------- SN

void sn_thread(run_state& st) {
  sys::pin_thread_to_cpu(cpu_for(kSnRole));
  metrics_registry probe;  // endpoint telemetry mirror (traced run only)
  net::udp_endpoint ep(net::udp_config{});
  st.sn_port = ep.port();
  if (!rendezvous(st, st.ports)) return;

  for (std::uint16_t p : st.tx_ports) ep.add_peer(p, "127.0.0.1", p);
  ep.add_peer(st.rx_port, "127.0.0.1", st.rx_port);
  const bool traced = st.traced;
  span_log& log = st.sn_spans;
  if (traced) ep.enable_telemetry(probe);

  net::event_loop loop;
  port_router route;
  core::service_node sn(
      core::sn_config{.id = ep.port(), .edomain = 1}, real_clock::instance(),
      [&](net::peer_id to, bytes d) {
        if (!traced) {
          ep.send(to, d);
          return;
        }
        const auto i = log.begin(kSnTx, now_ns());
        ep.send(to, d);
        log.end(i, now_ns());
      },
      loop.scheduler(), &route);
  if (traced) {
    sn.env().deploy(
        std::make_unique<timed_module>(std::make_unique<services::delivery_service>(), log));
  } else {
    sn.env().deploy(std::make_unique<services::delivery_service>());
  }
  loop.attach_views(ep, [&](std::span<std::pair<net::peer_id, buf::pkt_view>> ds) {
    if (!traced) {
      sn.on_datagram_views(ds);
      return;
    }
    const auto i = log.begin(kIngress, now_ns(), st.batch_sizes.size());
    st.batch_sizes.push_back(static_cast<std::uint32_t>(ds.size()));
    sn.on_datagram_views(ds);
    log.end(i, now_ns());
  });
  sn.pipes().set_send_gather(
      [&](net::peer_id to, const_byte_span head, const_byte_span payload) {
        if (!traced) {
          ep.send_gather(to, head, payload);
          return;
        }
        const auto i = log.begin(kSnTx, now_ns());
        ep.send_gather(to, head, payload);
        log.end(i, now_ns());
      });
  st.backend = ep.backend() == net::udp_backend::uring ? "io_uring" : "mmsg";
  st.workers = sn.worker_count();
  if (!rendezvous(st, st.wired)) return;

  const auto counter_of = [&](const char* name) { return probe.get_counter(name).value(); };
  while (!st.stop.load(std::memory_order_acquire)) {
    if (traced) {
      const auto i = log.begin(kSnRun, now_ns());
      loop.run_for(std::chrono::milliseconds(1));
      log.end(i, now_ns());
    } else {
      loop.run_for(std::chrono::milliseconds(1));
    }
    const int done = st.snap_done.load(std::memory_order_relaxed);
    if (st.snap_req.load(std::memory_order_acquire) != done) {
      sn_counters& c = st.snap[done];
      c.terminus = sn.datapath_stats();
      c.cache = sn.cache().stats();
      for (std::size_t k = 0; k < sn.worker_count(); ++k) {
        const auto& t = sn.shard_terminus_stats(k);
        const auto& cs = sn.shard_cache_stats(k);
        c.terminus.received += t.received;
        c.terminus.fast_path += t.fast_path;
        c.terminus.slow_path += t.slow_path;
        c.cache.hits += cs.hits;
        c.cache.misses += cs.misses;
        c.cache.inserts += cs.inserts;
        c.cache.evictions += cs.evictions;
      }
      c.pool_exhausted = ep.pool_stats().exhausted;
      c.rx_empty = ep.rx_empty();
      c.send_again = ep.send_again();
      c.uring_parked = traced ? counter_of("net.uring.parked") : 0;
      c.thread_cpu = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
      st.snap_done.store(done + 1, std::memory_order_release);
    }
  }
}

// ------------------------------------------------------------- receiver

void recv_thread(run_state& st) {
  sys::pin_thread_to_cpu(cpu_for(kRecvRole));
  pthread_getcpuclockid(pthread_self(), &st.recv_clock);
  st.recv_clock_set.store(true, std::memory_order_release);
  net::udp_endpoint ep;
  st.rx_port = ep.port();
  if (!rendezvous(st, st.ports)) return;

  ep.add_peer(st.sn_port, "127.0.0.1", st.sn_port);
  timer_list timers;
  host::host_stack host(
      host::host_config{.addr = ep.port(), .first_hop_sn = st.sn_port, .fallback_sns = {},
                        .connection_seed = mix64(st.seed, 0x7ec) | 1},
      real_clock::instance(), [&](net::peer_id to, bytes d) { ep.send(to, d); },
      timers.scheduler(), nullptr);

  auto& r = st.recv;
  r.seen.assign(1 << 14, 0);
  r.lat.assign(st.seconds, latency_hist{});
  r.bytes.assign(st.seconds, 0);
  const bool traced = st.traced;
  span_log& log = st.recv_spans;
  const std::uint64_t rx_addr = ep.port();
  std::uint64_t last_seq = 0;

  host.set_default_handler([&](const ilp::ilp_header& h, bytes payload) {
    const std::uint64_t now = now_ns();
    const std::int32_t vi = traced ? log.begin(kValidate, now) : -1;
    bool ok = payload.size() >= payload_source::kHeader;
    std::uint64_t seq = 0;
    if (ok) {
      seq = payload_source::seq_of(payload);
      const packet_plan p = plan(st, seq);
      const std::uint64_t flow = payload_source::flow_of(payload);
      const std::size_t slot = flow % kFlowRing;
      ok = flow == p.flow && payload.size() == p.len && h.service == ilp::svc::delivery &&
           h.connection == st.flow_conn[slot].load(std::memory_order_acquire) &&
           h.meta_u64(ilp::meta_key::src_addr) ==
               st.flow_src[slot].load(std::memory_order_acquire) &&
           h.meta_u64(ilp::meta_key::dest_addr) == rx_addr && st.payloads.check(payload);
    }
    if (ok) {
      const std::size_t word = seq / 64;
      if (word >= r.seen.size()) r.seen.resize(std::max(word + 1, r.seen.size() * 2), 0);
      const std::uint64_t bit = 1ull << (seq % 64);
      if ((r.seen[word] & bit) != 0) {
        ok = false;
        ++r.duplicate;
      } else {
        r.seen[word] |= bit;
      }
    }
    if (ok) {
      const std::uint64_t t0 = st.win_t_start.load(std::memory_order_acquire);
      if (seq >= st.win_seq_start.load(std::memory_order_acquire)) {
        const std::uint64_t sent = st.send_ts[seq % kTsRing].load(std::memory_order_acquire);
        const std::size_t sub = std::min<std::size_t>(
            sent > t0 ? (sent - t0) / 1'000'000'000ull : 0, r.lat.size() - 1);
        r.lat[sub].record(now > sent ? now - sent : 0);
        r.bytes[sub] += payload.size();
      }
    } else {
      if (++r.invalid <= 10) {
        std::fprintf(stderr, "invalid delivery: seq %" PRIu64 " len %zu connection %" PRIx64 "\n",
                     seq, payload.size(), h.connection);
      }
    }
    last_seq = seq;
    if (traced) log.end(vi, now_ns());
    st.acked.fetch_add(1, std::memory_order_release);
  });
  if (!rendezvous(st, st.wired)) return;

  // The receiving host busy-polls its socket like the generator spins, so
  // its core never idles and no wake-up sits on the measured path.
  std::vector<std::pair<net::peer_id, buf::pkt_view>> rx;
  std::uint64_t last_timers = 0;
  while (!st.stop.load(std::memory_order_acquire)) {
    if (ep.recv_batch_views(net::udp_endpoint::kBatchMax, rx) == 0) {
      cpu_relax();
    } else if (!traced) {
      host.on_datagram_views(rx);
    } else {
      for (auto& [from, view] : rx) {
        const auto i = log.begin(kHostRecv, now_ns());
        host.on_datagram(from, view.span());
        log.set_tag(i, last_seq);
        log.end(i, now_ns());
      }
    }
    rx.clear();
    const std::uint64_t now = now_ns();
    if (now - last_timers > 1'000'000) {
      timers.run_due(now);
      last_timers = now;
    }
  }
}

// ------------------------------------------------------------ generator

void gen_thread(run_state& st) {
  sys::pin_thread_to_cpu(cpu_for(kGenRole));
  const workload& wl = st.wl;
  std::vector<std::unique_ptr<net::udp_endpoint>> eps;
  for (unsigned h = 0; h < wl.hosts; ++h) {
    eps.push_back(std::make_unique<net::udp_endpoint>());
    st.tx_ports[h] = eps.back()->port();
  }
  if (!rendezvous(st, st.ports)) return;

  timer_list timers;
  std::vector<std::vector<bytes>> queued(wl.hosts);
  std::vector<std::unique_ptr<host::host_stack>> hosts;
  for (unsigned h = 0; h < wl.hosts; ++h) {
    eps[h]->add_peer(st.sn_port, "127.0.0.1", st.sn_port);
    hosts.push_back(std::make_unique<host::host_stack>(
        host::host_config{.addr = eps[h]->port(), .first_hop_sn = st.sn_port, .fallback_sns = {},
                          .connection_seed = mix64(st.seed, h) | 1},
        real_clock::instance(),
        [&q = queued[h]](net::peer_id, bytes d) { q.push_back(std::move(d)); },
        timers.scheduler(), nullptr));
  }
  if (!rendezvous(st, st.wired)) return;

  const auto publish_flow = [&](std::uint64_t flow, const host::connection& c, unsigned h) {
    st.flow_conn[flow % kFlowRing].store(c.id(), std::memory_order_release);
    st.flow_src[flow % kFlowRing].store(hosts[h]->addr(), std::memory_order_release);
  };
  // Long-lived flows are opened once; churn opens one per host per round.
  std::vector<host::connection> conns;
  if (wl.flows > 0) {
    for (unsigned f = 0; f < wl.flows; ++f) {
      conns.push_back(hosts[f % wl.hosts]->open(st.rx_port, ilp::svc::delivery));
      publish_flow(f, conns.back(), f % wl.hosts);
    }
  } else {
    conns.resize(wl.hosts);
  }

  const bool traced = st.traced;
  span_log& log = st.gen_spans;
  std::uint64_t next_seq = 0;
  const auto emit = [&](std::uint64_t stamp) {
    const std::uint64_t seq = next_seq++;
    const packet_plan p = plan(st, seq);
    host::connection* c = nullptr;
    if (wl.flows > 0) {
      c = &conns[p.flow];
    } else {
      if (p.opens_flow) {
        conns[p.host] = hosts[p.host]->open(st.rx_port, ilp::svc::delivery);
        publish_flow(p.flow, conns[p.host], p.host);
      }
      c = &conns[p.host];
    }
    bytes payload(p.len);
    st.payloads.fill(seq, p.flow, payload);
    const std::uint64_t t = now_ns();
    st.send_ts[seq % kTsRing].store(stamp != 0 ? stamp : t, std::memory_order_release);
    if (!traced) {
      c->send(std::move(payload));
      return;
    }
    const auto i = log.begin(kHostSend, t, seq);
    c->send(std::move(payload));
    log.end(i, now_ns());
  };
  const auto flush = [&] {
    for (unsigned h = 0; h < wl.hosts; ++h) {
      if (queued[h].empty()) continue;
      const std::int32_t i = traced ? log.begin(kHostFlush, now_ns(), next_seq) : -1;
      eps[h]->send_batch(st.sn_port, queued[h]);
      if (traced) log.end(i, now_ns());
      queued[h].clear();
    }
  };
  std::vector<std::pair<net::peer_id, buf::pkt_view>> rx;
  std::uint64_t last_service = 0;
  const auto service = [&](std::uint64_t now) {  // inbound handshakes, timers
    if (now - last_service < 1'000'000) return;
    last_service = now;
    for (unsigned h = 0; h < wl.hosts; ++h) {
      rx.clear();
      while (eps[h]->recv_batch_views(net::udp_endpoint::kBatchMax, rx) > 0) {
      }
      hosts[h]->on_datagram_views(rx);
    }
    rx.clear();
    timers.run_due(now);
    flush();  // a completed handshake or a retry releases queued packets
  };

  auto& g = st.gen;
  std::uint64_t written_off = 0;
  std::uint64_t last_acked = 0, last_progress = now_ns();
  // Packets sent and neither acknowledged by the receiver nor written off
  // as lost after 100 ms without progress.
  const auto in_flight = [&](std::uint64_t now) -> std::uint64_t {
    const std::uint64_t acked = st.acked.load(std::memory_order_acquire);
    if (acked != last_acked) {
      last_acked = acked;
      last_progress = now;
    } else if (now - last_progress > 100'000'000 && next_seq > acked + written_off) {
      written_off = next_seq - acked;
      ++g.writeoffs;
      last_progress = now;
    }
    const std::uint64_t done = acked + written_off;
    return next_seq > done ? next_seq - done : 0;
  };
  const auto cpu_mark = [&] {
    g.cpu.push_back({cpu_ns(CLOCK_PROCESS_CPUTIME_ID), cpu_ns(CLOCK_THREAD_CPUTIME_ID),
                     cpu_ns(st.recv_clock), pinned_steal()});
  };
  // Drives one phase: `count` packets (or until `until_ns`), closed or
  // open loop. Returns false when asked to stop.
  const auto drive = [&](std::uint64_t count, std::uint64_t until_ns, bool timed) {
    const std::uint64_t first = next_seq;
    const std::uint64_t t0 = now_ns();
    std::uint64_t scheduled = 0;
    std::uint64_t next_mark = t0 + 1'000'000'000;
    for (;;) {
      const std::uint64_t now = now_ns();
      if (st.stop.load(std::memory_order_relaxed)) return false;
      if (until_ns != 0 ? now >= until_ns : next_seq - first >= count) return true;
      if (timed && now >= next_mark) {
        cpu_mark();
        next_mark += 1'000'000'000;
      }
      service(now);
      if (wl.open_loop) {
        const std::uint64_t due = paced_due_count(now - t0, wl.rate_pps);
        if (scheduled >= due) {
          cpu_relax();
          continue;
        }
        while (scheduled < due) {
          const std::uint64_t due_at = t0 + paced_due_ns(scheduled++, wl.rate_pps);
          if (timed) g.late.record(now - due_at);
          emit(due_at);
        }
      } else {
        std::uint64_t free =
            wl.outstanding - std::min<std::uint64_t>(in_flight(now), wl.outstanding);
        if (free == 0) {
          cpu_relax();
          continue;
        }
        while (free-- > 0 && (until_ns != 0 || next_seq - first < count)) emit(0);
      }
      flush();
      if (timed) g.busy_ns += now_ns() - now;
    }
  };
  const auto drain = [&](std::uint64_t limit_ns) {
    const std::uint64_t deadline = now_ns() + limit_ns;
    while (!st.stop.load(std::memory_order_relaxed) && now_ns() < deadline) {
      const std::uint64_t now = now_ns();
      service(now);
      if (in_flight(now) == 0) return;
      cpu_relax();
    }
  };

  // Warm-up: pipes handshake, the SN opens its pipe to the receiver,
  // caches fill. Then wait for the window to open.
  if (!drive(wl.warmup, 0, false)) return;
  drain(500'000'000);
  st.t_ready.store(now_ns());
  st.ready.store(true, std::memory_order_release);
  while (!st.go.load(std::memory_order_acquire)) {
    if (st.stop.load(std::memory_order_relaxed)) return;
    service(now_ns());
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

  while (!st.recv_clock_set.load(std::memory_order_acquire)) std::this_thread::yield();
  cpu_mark();
  g.t_start = now_ns();
  g.seq_start = next_seq;
  st.win_t_start.store(g.t_start, std::memory_order_release);
  st.win_seq_start.store(next_seq, std::memory_order_release);
  const bool finished = drive(0, g.t_start + st.seconds * 1'000'000'000ull, true);
  g.t_end = now_ns();
  cpu_mark();
  g.seq_end = next_seq;
  if (!finished) return;
  drain(1'000'000'000);
  st.gen_done.store(true, std::memory_order_release);
  while (!st.stop.load(std::memory_order_relaxed)) {
    service(now_ns());
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

// The three threads of one run. The destructor stops and joins them too,
// so no exit path leaves a thread running on the shared state.
class crew {
 public:
  explicit crew(run_state& st) : st_(st) {
    try {
      recv_ = std::thread(guarded, "receiver", recv_thread, std::ref(st));
      sn_ = std::thread(guarded, "SN", sn_thread, std::ref(st));
      gen_ = std::thread(guarded, "generator", gen_thread, std::ref(st));
    } catch (...) {
      join();
      throw;
    }
  }
  ~crew() { join(); }
  crew(const crew&) = delete;
  crew& operator=(const crew&) = delete;

  void join() {
    st_.stop.store(true, std::memory_order_release);
    for (std::thread* t : {&gen_, &sn_, &recv_}) {
      if (t->joinable()) t->join();
    }
  }

 private:
  run_state& st_;
  std::thread recv_, sn_, gen_;
};


// ------------------------------------------------------------------ main

struct args {
  std::string workload;
  std::uint64_t seed = 1;
  unsigned seconds = 10;
  bool trace = false;
  std::string rev = "unknown";
  std::string src_lines = "unknown";
};

bool parse(int argc, char** argv, args& a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    std::string v;
    if (const auto eq = k.find('='); eq != std::string::npos) {
      v = k.substr(eq + 1);
      k = k.substr(0, eq);
    } else if (i + 1 < argc) {
      v = argv[++i];
    } else {
      return false;
    }
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = static_cast<unsigned>(std::stoul(v));
      else if (k == "--trace") a.trace = std::stoul(v) != 0;
      else if (k == "--rev") a.rev = v;
      else if (k == "--src-lines") a.src_lines = v;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0;
}

std::uint64_t sock_drops(std::uint16_t port) {
  return udp_drops(read_file("/proc/net/udp"), port).value_or(0);
}

// VmHWM: the process's peak resident set since start or the last reset.
std::uint64_t peak_rss_kib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  }
  return 0;
}

// Waits for `flag`; false when a thread failed or `limit_ms` passed.
bool await(const run_state& st, const std::atomic<bool>& flag, std::uint64_t limit_ms) {
  const std::uint64_t deadline = now_ns() + limit_ms * 1'000'000;
  while (!flag.load(std::memory_order_acquire)) {
    if (st.failed.load() || now_ns() > deadline) return false;
    // Coarse: this thread's CPU time is counted as the SN's.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// Has the SN thread copy its counters between two loop slices.
bool sn_snapshot(run_state& st) {
  const int want = st.snap_req.load() + 1;
  st.snap_req.store(want, std::memory_order_release);
  const std::uint64_t deadline = now_ns() + 5'000'000'000ull;
  while (st.snap_done.load(std::memory_order_acquire) != want) {
    if (st.failed.load() || now_ns() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return true;
}

struct metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t process_start = now_ns();
  const std::optional<std::uint64_t> steal_at_start = pinned_steal();
  args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: loopback_bench --workload NAME --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  const workload* wl = nullptr;
  for (const workload& w : kWorkloads) {
    if (a.workload == w.name) wl = &w;
  }
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }

  auto st = std::make_unique<run_state>(*wl, a.seed, a.trace, a.seconds);
  st->tx_ports.assign(wl->hosts, 0);
  crew threads(*st);
  if (!await(*st, st->ready, 30'000)) {
    std::fprintf(stderr, "the set-up did not finish its warm-up\n");
    return 2;
  }
  const double setup_s = static_cast<double>(st->t_ready.load() - process_start) / 1e9;
  const std::optional<std::uint64_t> steal_at_ready = pinned_steal();
  std::uint64_t sn_drops[2]{}, rx_drops[2]{};
  if (!sn_snapshot(*st)) return 2;
  sn_drops[0] = sock_drops(st->sn_port);
  rx_drops[0] = sock_drops(st->rx_port);
  st->go.store(true, std::memory_order_release);
  const bool done =
      await(*st, st->gen_done, a.seconds * 1000ull + 30'000) && sn_snapshot(*st);
  sn_drops[1] = sock_drops(st->sn_port);
  rx_drops[1] = sock_drops(st->rx_port);
  threads.join();
  if (!done) {
    std::fprintf(stderr, "the timed window did not finish\n");
    return 2;
  }

  const run_state& s = *st;
  const auto& g = s.gen;
  const auto& r = s.recv;
  const double win_s = static_cast<double>(g.t_end - g.t_start) / 1e9;
  const std::uint64_t sent = g.seq_end - g.seq_start;
  std::uint64_t delivered = 0;
  for (std::uint64_t q = g.seq_start; q < g.seq_end; ++q) {
    if (q / 64 < r.seen.size() && (r.seen[q / 64] >> (q % 64) & 1) != 0) ++delivered;
  }
  // Invalid and duplicate packets count as lost too.
  const std::uint64_t lost = std::min(sent, sent - delivered + r.invalid);
  const double loss = sent > 0 ? static_cast<double>(lost) / static_cast<double>(sent) : 1;

  // Per one-second slice of send time: deliveries, bytes, latency
  // percentiles, SN CPU per packet and steal; NaN where a slice has no
  // figure. The end-to-end figures are medians over the slices, so a
  // stall or a burst of stolen CPU in one second moves them less than it
  // would move a whole-window mean.
  const auto sn_cpu_between = [&](std::size_t from, std::size_t to) {
    const auto& m0 = g.cpu[from];
    const auto& m1 = g.cpu[to];
    const std::uint64_t proc = m1.proc - m0.proc;
    const std::uint64_t threads = (m1.gen - m0.gen) + (m1.recv - m0.recv);
    return proc - std::min(proc, threads);
  };
  latency_hist lat;
  std::uint64_t window_bytes = 0;
  const double none = std::nan("");
  const auto steal_between = [&](const std::optional<std::uint64_t>& s0,
                                 const std::optional<std::uint64_t>& s1) {
    return s0 && s1 ? static_cast<double>(*s1 - *s0) : none;
  };
  std::vector<double> slice_pps, slice_mbps, slice_p50, slice_p99, slice_cpu, slice_steal;
  for (std::size_t k = 0; k < r.lat.size(); ++k) {
    const latency_hist& h = r.lat[k];
    const bool any = h.count() > 0;
    const bool marked = k + 1 < g.cpu.size();
    lat.merge(h);
    window_bytes += r.bytes[k];
    slice_pps.push_back(static_cast<double>(h.count()));
    slice_mbps.push_back(static_cast<double>(r.bytes[k]) * 8 / 1e6);
    slice_p50.push_back(any ? h.quantile(0.5) / 1e3 : none);
    slice_p99.push_back(any ? h.quantile(0.99) / 1e3 : none);
    slice_cpu.push_back(any && marked ? static_cast<double>(sn_cpu_between(k, k + 1)) /
                                            static_cast<double>(h.count())
                                      : none);
    slice_steal.push_back(marked ? steal_between(g.cpu[k].steal, g.cpu[k + 1].steal) : none);
  }
  const auto known_median = [](std::vector<double> v) {
    std::erase_if(v, [](double x) { return std::isnan(x); });
    return median(std::move(v));
  };
  const double tail_q = tail_percentile(lat.count());
  const std::uint64_t sn_cpu = sn_cpu_between(0, g.cpu.size() - 1);
  const auto& cpu0 = g.cpu.front();
  const auto& cpu1 = g.cpu.back();

  const double win_ns = static_cast<double>(g.t_end - g.t_start);
  const double gen_busy = static_cast<double>(g.busy_ns) / win_ns;
  const double late_p99_us = wl->open_loop ? g.late.quantile(0.99) / 1e3 : 0.0;
  const double sn_cpu_share = static_cast<double>(sn_cpu) / win_ns;
  // The generator, not the SN, set the rate: it was busy nearly all the
  // window (closed loop) or fell behind its schedule (open loop).
  const double period_us = wl->open_loop ? 1e6 / static_cast<double>(wl->rate_pps) : 0.0;
  const bool gen_limited = wl->open_loop ? late_p99_us > 2 * period_us : gen_busy > 0.9;

  const std::vector<metric> e2e = {
      {"setup_s", setup_s, "s"},
      {"fwd_pps", median(slice_pps), "pkts/s"},
      {"goodput_mbps", median(slice_mbps), "Mbit/s"},
      {"lat_p50_us", known_median(slice_p50), "us"},
      {"lat_p99_us", known_median(slice_p99), "us"},
      {"delivered_frac", 1 - loss, "ratio"},
      {"sn_cpu_ns_per_pkt", known_median(slice_cpu), "ns"},
      {"peak_rss_mb", static_cast<double>(peak_rss_kib()) / 1024.0, "MiB"},
  };

  std::printf("workload %s  seed %" PRIu64 "  window %.3f s  trace %d\n", wl->name, a.seed,
              win_s, a.trace ? 1 : 0);
  std::printf(
      "run: backend=%s workers=%zu pin=gen:%d,sn:%d,recv:%d nproc=%ld rev=%s src_lines=%s\n",
      s.backend.c_str(), s.workers, cpu_for(kGenRole), cpu_for(kSnRole), cpu_for(kRecvRole),
      sysconf(_SC_NPROCESSORS_ONLN), a.rev.c_str(), a.src_lines.c_str());
  for (const metric& m : e2e) {
    std::printf("  %-20s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-20s %14.6f ratio\n", "loss_frac", loss);
  const auto print_slices = [](const char* what, const std::vector<double>& v) {
    std::printf("  %-22s", what);
    for (double x : v) {
      if (std::isnan(x)) std::printf(" -");
      else std::printf(" %.0f", x);
    }
    std::printf("\n");
  };
  std::printf("  per one-second slice of send time (the metrics above are their medians):\n");
  print_slices("delivered pkts", slice_pps);
  print_slices("p50 us", slice_p50);
  print_slices("p99 us", slice_p99);
  print_slices("SN cpu ns/pkt", slice_cpu);
  print_slices("steal ticks", slice_steal);
  std::printf("  whole window: %.1f pkts/s, %.3f Mbit/s, SN cpu %.1f ns/pkt, %" PRIu64
              " latency samples, p50 %.2f us, p99 %.2f us, %s %.2f us (the highest"
              " percentile with >= 10 samples beyond it)\n",
              static_cast<double>(delivered) / win_s,
              static_cast<double>(window_bytes) * 8 / win_s / 1e6,
              delivered > 0 ? static_cast<double>(sn_cpu) / static_cast<double>(delivered) : 0.0,
              lat.count(), lat.quantile(0.5) / 1e3, lat.quantile(0.99) / 1e3,
              percentile_label(tail_q).c_str(), lat.quantile(tail_q) / 1e3);
  std::printf("  sent %" PRIu64 ", delivered valid %" PRIu64 ", invalid %" PRIu64
              " (duplicates %" PRIu64 "), loss write-offs %" PRIu64 "\n",
              sent, delivered, r.invalid, r.duplicate, g.writeoffs);
  std::printf("  gen.busy_share %.3f  gen.late_p99_us %.2f  sn.cpu_share %.3f%s\n", gen_busy,
              late_p99_us, sn_cpu_share,
              gen_limited ? "  GENERATOR-LIMITED: fwd_pps is not SN capacity" : "");
  std::printf("  cpu s: process %.3f, generator %.3f, receiver %.3f, SN thread %.3f\n",
              static_cast<double>(cpu1.proc - cpu0.proc) / 1e9,
              static_cast<double>(cpu1.gen - cpu0.gen) / 1e9,
              static_cast<double>(cpu1.recv - cpu0.recv) / 1e9,
              static_cast<double>(s.snap[1].thread_cpu - s.snap[0].thread_cpu) / 1e9);
  std::printf("  sn_cpu_ns_per_pkt is process CPU minus generator and receiver threads;"
              " softirq time spent in other contexts is not attributed\n");
  std::printf("meta {\"backend\": \"%s\", \"workers\": %zu, \"pin\": {\"gen\": %d, \"sn\": %d,"
              " \"recv\": %d}, \"nproc\": %ld, \"rev\": \"%s\", \"src_lines\": \"%s\","
              " \"gen_limited\": %s}\n",
              s.backend.c_str(), s.workers, cpu_for(kGenRole), cpu_for(kSnRole),
              cpu_for(kRecvRole), sysconf(_SC_NPROCESSORS_ONLN), json_escape(a.rev).c_str(),
              json_escape(a.src_lines).c_str(), gen_limited ? "true" : "false");
  // The slices again, unrounded and with null for NaN, for a caller that
  // pools several runs; with the steal during set-up.
  const auto json_num = [](double x) {
    char num[32];
    std::snprintf(num, sizeof num, "%.17g", x);
    return std::isnan(x) ? std::string("null") : std::string(num);
  };
  const auto json_list = [&](const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + json_num(v[i]);
    return out + "]";
  };
  std::printf("slices {\"fwd_pps\": %s, \"goodput_mbps\": %s, \"lat_p50_us\": %s,"
              " \"lat_p99_us\": %s, \"sn_cpu_ns_per_pkt\": %s, \"steal_ticks\": %s,"
              " \"setup_steal_ticks\": %s}\n",
              json_list(slice_pps).c_str(), json_list(slice_mbps).c_str(),
              json_list(slice_p50).c_str(), json_list(slice_p99).c_str(),
              json_list(slice_cpu).c_str(), json_list(slice_steal).c_str(),
              json_num(steal_between(steal_at_start, steal_at_ready)).c_str());

  std::vector<metric> out = e2e;
  if (a.trace) {
    // Spans count up to the moment the first log filled; the counters
    // cover the whole window.
    std::uint64_t span_end = g.t_end;
    for (const span_log* l : {&s.gen_spans, &s.sn_spans, &s.recv_spans}) {
      if (l->full_at() != 0) span_end = std::min(span_end, l->full_at());
    }
    const window w{g.t_start, span_end};
    const double span_ns = static_cast<double>(span_end - g.t_start);
    const std::uint32_t tx_only[] = {kSnTx};
    const std::uint32_t validate_only[] = {kValidate};
    const span_totals sn_tx = sum_spans(s.sn_spans.spans(), kSpanNames, w, tx_only);
    const span_totals sn_all = sum_spans(s.sn_spans.spans(), kSpanNames, w);
    const span_totals gen_t = sum_spans(s.gen_spans.spans(), kSpanNames, w);
    const span_totals recv_t = sum_spans(s.recv_spans.spans(), kSpanNames, w, validate_only);
    std::uint64_t rx_datagrams = 0, rx_calls = 0;
    for (const span& sp : s.sn_spans.spans()) {
      if (sp.name == kIngress && sp.start >= w.start && sp.start < w.end) {
        rx_datagrams += s.batch_sizes[sp.tag];
        ++rx_calls;
      }
    }
    const auto per = [](std::uint64_t total, std::uint64_t n) {
      return static_cast<double>(total) / static_cast<double>(std::max<std::uint64_t>(n, 1));
    };
    const std::uint64_t ingress = sn_tx.self[kIngress];
    const std::uint64_t tx = sn_all.total[kSnTx];
    const std::uint64_t loop = sn_all.self[kSnRun];
    const double span_sum = static_cast<double>(ingress + tx + loop);
    const double span_sum_err = std::abs(span_sum - span_ns) / span_ns;
    const sn_counters& c0 = s.snap[0];
    const sn_counters& c1 = s.snap[1];
    const auto d = [](std::uint64_t a1, std::uint64_t a0) { return static_cast<double>(a1 - a0); };
    const double hits = d(c1.cache.hits, c0.cache.hits);
    const double lookups = hits + d(c1.cache.misses, c0.cache.misses);
    const double received = d(c1.terminus.received, c0.terminus.received);
    const double fast = d(c1.terminus.fast_path, c0.terminus.fast_path);
    out = {
        {"core.ingress_ns", per(ingress, rx_datagrams), "ns"},
        {"net.sn_loop_ns", per(loop, rx_datagrams), "ns"},
        {"net.sn_tx_ns", per(tx, rx_datagrams), "ns"},
        {"net.rx_batch", per(rx_datagrams, rx_calls), "count"},
        {"net.sn_sock_drops", d(sn_drops[1], sn_drops[0]), "count"},
        {"net.rx_sock_drops", d(rx_drops[1], rx_drops[0]), "count"},
        {"net.pool_exhausted", d(c1.pool_exhausted, c0.pool_exhausted), "count"},
        {"net.uring_parked", d(c1.uring_parked, c0.uring_parked), "count"},
        {"net.sn_rx_empty", d(c1.rx_empty, c0.rx_empty), "count"},
        {"net.sn_send_again", d(c1.send_again, c0.send_again), "count"},
        {"core.fast_path_share", fast / std::max(received, 1.0), "ratio"},
        {"core.cache_hit_ratio", lookups > 0 ? hits / lookups : 0, "ratio"},
        {"core.cache_inserts", d(c1.cache.inserts, c0.cache.inserts), "count"},
        {"core.cache_evictions", d(c1.cache.evictions, c0.cache.evictions), "count"},
        {"services.delivery_ns", per(sn_all.total[kDelivery], sn_all.calls[kDelivery]), "ns"},
        {"services.delivery_calls", static_cast<double>(sn_all.calls[kDelivery]), "count"},
        {"host.send_ns", per(gen_t.total[kHostSend], gen_t.calls[kHostSend]), "ns"},
        {"host.flush_ns", per(gen_t.total[kHostFlush], gen_t.calls[kHostSend]), "ns"},
        {"host.recv_ns", per(recv_t.self[kHostRecv], recv_t.calls[kHostRecv]), "ns"},
        {"gen.busy_share", gen_busy, "ratio"},
        {"gen.late_p99_us", late_p99_us, "us"},
        {"sn.cpu_share", sn_cpu_share, "ratio"},
        {"trace.fwd_pps", median(slice_pps), "pkts/s"},
        {"trace.span_sum_err", span_sum_err, "ratio"},
    };
    std::printf("per-layer (traced run; *_ns are per packet the layer handled, delivery per"
                " call; spans over the first %.3f s of the window, counters over all of it):\n",
                span_ns / 1e9);
    for (const metric& m : out) {
      std::printf("  %-24s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("  SN-thread spans core.ingress + net.sn_tx + net.sn_loop = %.4f s of %.4f s"
                " SN-thread wall time (error %.3f%%)\n",
                span_sum / 1e9, span_ns / 1e9, span_sum_err * 100);
  }

  const bool correct = r.invalid == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", std::max<std::uint64_t>(sent, 1), lost);
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                out[i].name.c_str(), out[i].value, out[i].unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

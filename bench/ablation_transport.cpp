// Ablation A2: slow-path transport choice. The paper's prototype "used IPC
// to send and receive data from services which obviously adds overhead",
// naming shared-memory rings as the known fix. This measures the
// per-packet service round trip over each transport.
//
// Also the datagram transport at batch 1/8/32 over loopback: an rx arm
// (one send_batch flush per burst), a tx arm (one gather send flushed per
// datagram, the SN's egress call outside a held pass) and a coalesced tx
// arm (the same gather sends under one tx hold, flushed once, as the SN
// sends inside an event_loop pass), all draining into pool slabs through
// recv_batch_views.
#include <benchmark/benchmark.h>

#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/channel.h"
#include "net/udp_transport.h"

using namespace interedge;
using namespace interedge::core;

namespace {

slowpath_handler null_handler() {
  return [](slowpath_request req) {
    slowpath_response resp;
    resp.token = req.token;
    resp.verdict = decision::forward_to(2);
    return resp;
  };
}

slowpath_request make_request(std::size_t payload_size) {
  slowpath_request req;
  req.l3_src = 1;
  req.header_bytes = bytes(24, 0x11);
  req.payload = bytes(payload_size, 0x5a);
  return req;
}

void pump_one(slowpath_channel& ch, slowpath_request req) {
  while (!ch.submit(req)) {
  }
  // ring_channel offers a parking wait — essential when producer and
  // worker share a core; other channels are polled.
  if (auto* ring = dynamic_cast<ring_channel*>(&ch)) {
    for (;;) {
      if (auto r = ring->poll_wait()) {
        benchmark::DoNotOptimize(r->verdict);
        return;
      }
    }
  }
  for (;;) {
    if (auto r = ch.poll()) {
      benchmark::DoNotOptimize(r->verdict);
      return;
    }
  }
}

void BM_Transport_Inline(benchmark::State& state) {
  inline_channel ch(null_handler());
  const auto req = make_request(static_cast<std::size_t>(state.range(0)));
  std::uint64_t token = 0;
  for (auto _ : state) {
    auto r = req;
    r.token = token++;
    pump_one(ch, std::move(r));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Transport_Ring(benchmark::State& state) {
  ring_channel ch(null_handler());
  const auto req = make_request(static_cast<std::size_t>(state.range(0)));
  std::uint64_t token = 0;
  for (auto _ : state) {
    auto r = req;
    r.token = token++;
    pump_one(ch, std::move(r));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Transport_Ipc(benchmark::State& state) {
  ipc_channel ch(null_handler());
  const auto req = make_request(static_cast<std::size_t>(state.range(0)));
  std::uint64_t token = 0;
  for (auto _ : state) {
    auto r = req;
    r.token = token++;
    pump_one(ch, std::move(r));
  }
  state.SetItemsProcessed(state.iterations());
}

// Pipelined variants: 64 outstanding, as in Table 1.
template <typename Channel>
void pipelined(benchmark::State& state) {
  Channel ch(null_handler());
  const auto base = make_request(static_cast<std::size_t>(state.range(0)));
  std::uint64_t token = 0;
  std::uint64_t completed = 0;
  std::uint64_t submitted = 0;
  for (auto _ : state) {
    // Keep the 64-deep window full...
    while (submitted - completed < 64) {
      auto r = base;
      r.token = token++;
      if (!ch.submit(std::move(r))) break;  // bounded channel momentarily full
      ++submitted;
    }
    // ...and account one completion per iteration.
    if constexpr (std::is_same_v<Channel, ring_channel>) {
      while (!ch.poll_wait()) {
      }
    } else {
      while (!ch.poll()) {
      }
    }
    ++completed;
  }
  while (completed < submitted) {
    if (ch.poll()) ++completed;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Transport_Ring_Pipelined(benchmark::State& state) { pipelined<ring_channel>(state); }
void BM_Transport_Ipc_Pipelined(benchmark::State& state) { pipelined<ipc_channel>(state); }

// ---- datagram transport: rx and tx arms ------------------------------
//
// One sender bursting `batch` 256-byte datagrams over loopback; the
// receiver drains through recv_batch_views into pool slabs. The rx arm
// sends each burst with one send_batch (one flush), so the receive side
// dominates. The tx arm sends with one send_gather per datagram and no
// hold, so every datagram is its own flush and syscall. The coalesced arm
// makes the same send_gather calls under one tx hold: one flush, one
// sendmmsg carrying the burst as a single GSO run. The drain stays inside
// the timed region on every arm, so each is a full loopback round trip at
// equal reliability.
template <typename SendBurst>
void udp_sweep(benchmark::State& state, SendBurst send_burst) {
  net::udp_endpoint tx;
  net::udp_endpoint rx(net::udp_config{});
  tx.add_peer(2, "127.0.0.1", rx.port());
  rx.add_peer(1, "127.0.0.1", tx.port());

  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  const std::vector<bytes> datagrams(batch, bytes(256, 0x42));
  std::vector<std::pair<net::peer_id, buf::pkt_view>> received;
  std::uint64_t moved = 0;

  for (auto _ : state) {
    const std::size_t sent = send_burst(tx, datagrams);
    std::size_t got = 0;
    for (int spins = 0; got < sent && spins < 100000; ++spins) {
      received.clear();  // drops the slab refs; the pool recycles them
      got += rx.recv_batch_views(net::udp_endpoint::kBatchMax, received);
    }
    moved += got;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(moved));
  state.counters["pkts/s"] =
      benchmark::Counter(static_cast<double>(moved), benchmark::Counter::kIsRate);
}

void BM_UdpRx(benchmark::State& state) {
  udp_sweep(state, [](net::udp_endpoint& tx, const std::vector<bytes>& ds) {
    return tx.send_batch(2, ds);
  });
}
void BM_UdpTx(benchmark::State& state) {
  udp_sweep(state, [](net::udp_endpoint& tx, const std::vector<bytes>& ds) {
    std::size_t sent = 0;
    for (const bytes& d : ds) sent += tx.send_gather(2, d, {}) ? 1 : 0;
    return sent;
  });
}
void BM_UdpTxCoalesced(benchmark::State& state) {
  udp_sweep(state, [](net::udp_endpoint& tx, const std::vector<bytes>& ds) {
    const std::uint64_t before = tx.sent();
    tx.hold_tx();
    for (const bytes& d : ds) tx.send_gather(2, d, {});
    tx.release_tx();  // the one flush
    return static_cast<std::size_t>(tx.sent() - before);
  });
}

}  // namespace

BENCHMARK(BM_Transport_Inline)->Arg(64)->Arg(1000);
BENCHMARK(BM_Transport_Ring)->Arg(64)->Arg(1000);
BENCHMARK(BM_Transport_Ipc)->Arg(64)->Arg(1000);
BENCHMARK(BM_Transport_Ring_Pipelined)->Arg(1000);
BENCHMARK(BM_Transport_Ipc_Pipelined)->Arg(1000);
BENCHMARK(BM_UdpRx)->Arg(1)->Arg(8)->Arg(32);
BENCHMARK(BM_UdpTx)->Arg(1)->Arg(8)->Arg(32);
BENCHMARK(BM_UdpTxCoalesced)->Arg(1)->Arg(8)->Arg(32);

BENCHMARK_MAIN();

// Real-network binding: runs InterEdge elements over UDP sockets.
//
// Every component above L3 (pipe_manager, service_node, host_stack) is
// transport-agnostic — it takes a send callback and an on_datagram feed.
// The simulator provides one binding (tests, examples, topology research);
// this module provides the other: actual UDP datagrams, so an SN or host
// built from this library runs on a real network unchanged.
//
//   udp_endpoint  — a bound non-blocking UDP socket with a peer table
//                   (peer_id <-> sockaddr), send/poll in pipe_manager's
//                   vocabulary
//   event_loop    — single-threaded driver: pumps any number of endpoints
//                   into their handlers and runs timers (the scheduler_fn
//                   service_node/host_stack need)
//
// Receive is zero-copy: one recvmmsg(2) per batch lands datagrams
// directly in slabs from the endpoint's buf_pool, handed out as pkt_views
// (recv_batch_views). The legacy bytes-returning recv_batch/poll copy once
// out of the slab so existing callers run unchanged.
//
// Send is staged: send, send_gather and send_batch copy the datagram into
// a per-endpoint tx arena and queue it; flush_tx() cuts the queue into
// runs (same destination, equal length) and hands every run to the kernel
// in one sendmmsg(2), a run of several datagrams as one UDP_SEGMENT (GSO)
// message. Outside a hold each send flushes before it returns; event_loop
// holds its endpoints while a pass dispatches, so everything the handlers
// send leaves in one flush. Transmit needs sendmmsg(2) and UDP_SEGMENT,
// so it is Linux-only. This is the only transport; DESIGN.md §12 records
// the measurements that settled it.
#pragma once

#include <netinet/in.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/buf_pool.h"
#include "common/bytes.h"
#include "common/clock.h"
#include "common/flat_hash.h"
#include "common/metrics.h"
#include "ilp/header.h"

namespace interedge::net {

using ilp::peer_id;

// The transport an endpoint runs on. backend() always returns mmsg;
// `uring` stays only so existing callers that record the backend still
// compile.
enum class udp_backend {
  mmsg,
  uring,
};

struct udp_config {
  std::uint16_t port = 0;
  bool reuse_port = false;
  buf::pool_config pool;  // slab size/count for the rx pool
};

class udp_endpoint {
 public:
  // Binds 127.0.0.1:port (port 0 = ephemeral). Throws std::runtime_error
  // on socket failures. With reuse_port, SO_REUSEPORT is set before bind so
  // several endpoints (one per datapath worker) can share one port and let
  // the kernel spread flows across them.
  explicit udp_endpoint(std::uint16_t port = 0, bool reuse_port = false);
  explicit udp_endpoint(const udp_config& cfg);
  ~udp_endpoint();

  udp_endpoint(const udp_endpoint&) = delete;
  udp_endpoint& operator=(const udp_endpoint&) = delete;

  std::uint16_t port() const { return port_; }
  int fd() const { return fd_; }
  udp_backend backend() const { return udp_backend::mmsg; }

  // Registers a peer's network address. Datagrams from unregistered
  // sources are dropped (and counted).
  void add_peer(peer_id peer, const std::string& ip, std::uint16_t port);

  // Sends a datagram to a registered peer. The bytes are copied into the
  // tx arena before the call returns, so any span will do, including a
  // view into a pool slab or a scratch buffer reused for the next packet.
  // False if the peer is unknown or the datagram exceeds kTxArenaBytes
  // (nothing is staged then). Outside a hold the datagram is flushed at
  // once and the result says whether the kernel took it; inside a hold it
  // says the datagram was staged. Staging is per-endpoint state: one
  // thread at a time may send on an endpoint.
  bool send(peer_id to, const_byte_span datagram);

  // Gather send: head + payload staged back to back as one datagram, so an
  // egress path holding a sealed header and a payload view never glues
  // them into a buffer of its own. Same contract as send().
  bool send_gather(peer_id to, const_byte_span head, const_byte_span payload);

  // Non-blocking receive of one datagram from a registered peer.
  std::optional<std::pair<peer_id, bytes>> poll();

  // Batch receive, zero-copy: drains up to `max` datagrams into pool-slab
  // views, appending (peer, view) pairs to `out`. Datagrams from
  // unregistered sources are counted and skipped. Views hold slab
  // references — the slab returns to the pool when the last view drops —
  // and must not outlive this endpoint. Returns the number appended; 0
  // also when the pool is dry (counted in pool_stats().exhausted), and
  // the next call after views drop drains what waited in the socket.
  std::size_t recv_batch_views(std::size_t max,
                               std::vector<std::pair<peer_id, buf::pkt_view>>& out);

  // Legacy batch receive: same drain, each datagram copied out of its slab
  // into owned bytes. Counter semantics identical to recv_batch_views.
  std::size_t recv_batch(std::size_t max, std::vector<std::pair<peer_id, bytes>>& out);

  // Batch send: stages every datagram to `to` and, outside a hold,
  // flushes. Returns how many datagrams the kernel accepted (inside a
  // hold: how many were staged); 0 if the peer is unknown.
  std::size_t send_batch(peer_id to, std::span<const bytes> datagrams);

  // Tx hold: while at least one hold is open, sends only stage; the
  // release of the last hold flushes. Holds nest. event_loop holds every
  // attached endpoint for the length of a pass.
  void hold_tx() { ++tx_holds_; }
  void release_tx() {
    if (tx_holds_ > 0 && --tx_holds_ == 0) flush_tx();
  }

  // Hands every staged datagram to the kernel and empties the queue.
  // Consecutive datagrams to one destination with equal length form a run
  // (a shorter one may end it); each run of two or more goes out as one
  // UDP_SEGMENT message, and all runs leave in one sendmmsg(2). Transient
  // failures retry kSendRetries times, then the rest is given up (UDP is
  // lossy). A GSO message the kernel refuses is re-sent one datagram per
  // message (counted in gso_fallback()). Returns the datagrams accepted.
  std::size_t flush_tx();

  // Datagrams staged and not yet flushed.
  std::size_t tx_queued() const { return tx_count_; }

  // Largest number of datagrams one recv_batch syscall covers.
  static constexpr std::size_t kBatchMax = 32;
  // Staged datagrams that force a flush. Also the most segments a run
  // holds: 64 is UDP_MAX_SEGMENTS on every kernel that has UDP GSO.
  static constexpr std::size_t kTxQueueMax = 64;
  // Tx arena size, and so the most bytes a run holds: the largest UDP
  // payload an IPv4 datagram carries (64 KiB less the IP and UDP
  // headers), which is also the GSO limit for one message. A send that
  // would overflow the arena flushes first.
  static constexpr std::size_t kTxArenaBytes = 65507;

  std::uint64_t sent() const { return sent_; }
  std::uint64_t received() const { return received_; }
  std::uint64_t dropped_unknown() const { return dropped_unknown_; }
  // recv_batch attempts that found nothing to deliver (socket empty or
  // pool dry). Distinguishes "nothing arrived" from a batch the kernel
  // cut short.
  std::uint64_t rx_empty() const { return rx_empty_; }
  // recv_batch calls that drained fewer datagrams than asked (the EAGAIN
  // happened inside the batch). Callers sizing rings/batches off
  // recv_batch need to see it.
  std::uint64_t rx_partial_batches() const { return rx_partial_batches_; }
  // recv_batch failures that were NOT EAGAIN/EINTR (real socket errors).
  std::uint64_t rx_errors() const { return rx_errors_; }
  // Datagrams larger than a pool slab: delivered truncated and counted.
  // The slab default (9216) covers every MTU we bind; growth here means
  // the pool's slab_size knob is mis-sized for the deployment.
  std::uint64_t rx_truncated() const { return rx_truncated_; }
  // Transient send failures (EAGAIN/EWOULDBLOCK/EINTR — a full socket
  // buffer) absorbed by the bounded retry loop in flush_tx. A climbing
  // value under load means the kernel buffer is the bottleneck, not the
  // wire; exposed as net.udp.send_again.
  std::uint64_t send_again() const { return send_again_; }
  // GSO messages the kernel refused (EINVAL/EIO/EMSGSIZE — e.g. a segment
  // above a real NIC's MTU) whose run was re-sent one datagram per
  // message; exposed as net.udp.gso_fallback.
  std::uint64_t gso_fallback() const { return gso_fallback_; }

  // The rx slab pool (sizing/exhaustion stats).
  const buf::buf_pool* pool() const { return pool_.get(); }
  buf::pool_stats pool_stats() const {
    return pool_ ? pool_->stats() : buf::pool_stats{};
  }

  // Optional: mirrors the endpoint's net.udp.* socket counters into `reg`
  // so they ride the SN's stats exposition and the SLO health plane.
  // Mirrors count movement since enablement; the mirrored totals are
  // delta-synced at the end of every rx batch.
  void enable_telemetry(metrics_registry& reg) {
    m_send_again_ = &reg.get_counter("net.udp.send_again");
    m_gso_fallback_ = &reg.get_counter("net.udp.gso_fallback");
    m_rx_truncated_ = &reg.get_counter("net.udp.rx_truncated");
    m_rx_errors_ = &reg.get_counter("net.udp.rx_errors");
    m_dropped_unknown_ = &reg.get_counter("net.udp.dropped_unknown");
    last_rx_truncated_ = rx_truncated_;
    last_rx_errors_ = rx_errors_;
    last_dropped_unknown_ = dropped_unknown_;
  }

 private:
  void ensure_pool();
  // Delta-syncs the mirrored counters from the raw totals; a handful of
  // subtractions per rx batch, adds only when something moved.
  void sync_telemetry();
  std::size_t recv_into_slabs(std::size_t max,
                              std::vector<std::pair<peer_id, buf::pkt_view>>& out);
  // Copies head+payload into the tx arena and queues it; false (nothing
  // staged) if the peer is unknown or the datagram cannot fit the arena.
  bool stage(peer_id to, const_byte_span head, const_byte_span payload);
  // Length of the run starting at queue entry `first`.
  std::size_t run_length(std::size_t first) const;

  int fd_ = -1;
  std::uint16_t port_ = 0;
  buf::pool_config pool_cfg_;
  flat_hash64<sockaddr_in> peers_;     // peer_id -> addr
  flat_hash64<peer_id> by_source_;     // packed ip:port -> peer
  // Declaration order is lifetime order: slabs (pool_) outlive the cache
  // and the armed buffers that reference them.
  std::unique_ptr<buf::buf_pool> pool_;
  std::optional<buf::buf_pool::cache> cache_;
  std::vector<buf::slab_ref> rx_slabs_;  // armed recvmmsg buffers, reused
  std::vector<std::pair<peer_id, buf::pkt_view>> view_scratch_;  // legacy recv_batch
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t dropped_unknown_ = 0;
  std::uint64_t rx_empty_ = 0;
  std::uint64_t rx_partial_batches_ = 0;
  std::uint64_t rx_errors_ = 0;
  std::uint64_t rx_truncated_ = 0;
  std::uint64_t send_again_ = 0;
  std::uint64_t gso_fallback_ = 0;
  counter* m_send_again_ = nullptr;
  counter* m_gso_fallback_ = nullptr;
  counter* m_rx_truncated_ = nullptr;
  counter* m_rx_errors_ = nullptr;
  counter* m_dropped_unknown_ = nullptr;
  std::uint64_t last_rx_truncated_ = 0;
  std::uint64_t last_rx_errors_ = 0;
  std::uint64_t last_dropped_unknown_ = 0;

  // Tx staging: datagram i lives at tx_arena_[off, off + len). Reserved
  // once at construction and reused, so sending allocates nothing.
  struct tx_entry {
    sockaddr_in to;
    std::uint32_t off;
    std::uint32_t len;
  };
  std::unique_ptr<std::uint8_t[]> tx_arena_;
  std::array<tx_entry, kTxQueueMax> tx_queue_;
  std::size_t tx_count_ = 0;
  std::size_t tx_used_ = 0;  // arena bytes in use
  std::size_t tx_holds_ = 0;

  // Transient send failures retry this many times per flush before the
  // rest of the queue is given up on (UDP is lossy; upper layers own
  // reliability).
  static constexpr std::size_t kSendRetries = 4;
};

// Single-threaded real-time driver for one or more endpoints.
class event_loop {
 public:
  using datagram_handler = std::function<void(peer_id from, const_byte_span data)>;
  // Batch handler: one call per drained burst, in arrival order.
  using batch_handler = std::function<void(std::span<std::pair<peer_id, bytes>> datagrams)>;
  // Zero-copy batch handler: slab views, valid for the duration of the
  // call (hold a clone to keep one longer).
  using views_handler =
      std::function<void(std::span<std::pair<peer_id, buf::pkt_view>> datagrams)>;

  // Attaches an endpoint: arriving datagrams go to `handler`.
  void attach(udp_endpoint& endpoint, datagram_handler handler);

  // Batch attach: readable bursts are drained via recv_batch and handed to
  // `handler` as one span per pass (the SN feeds these straight into its
  // batched datapath).
  void attach_batch(udp_endpoint& endpoint, batch_handler handler);

  // Zero-copy attach: bursts drained via recv_batch_views — no per-packet
  // copy between socket and handler.
  void attach_views(udp_endpoint& endpoint, views_handler handler);

  // Timer facility, signature-compatible with service_node/host_stack's
  // scheduler_fn.
  void schedule(nanoseconds delay, std::function<void()> fn);
  auto scheduler() {
    return [this](nanoseconds delay, std::function<void()> fn) {
      schedule(delay, std::move(fn));
    };
  }

  // Pumps sockets and timers until `deadline_from_now` elapses.
  // Returns the number of datagrams dispatched.
  std::size_t run_for(std::chrono::milliseconds deadline_from_now);

  // Pumps until no datagram arrives for `quiet` (and no timers are due),
  // up to `limit`. The usual test idiom: run until the exchange quiesces.
  std::size_t run_until_quiet(std::chrono::milliseconds quiet,
                              std::chrono::milliseconds limit);

 private:
  struct attached {
    udp_endpoint* endpoint;
    datagram_handler handler;       // per-datagram path
    batch_handler batch;            // batch path (used when set)
    views_handler views;            // zero-copy path (used when set)
  };
  struct timer {
    std::chrono::steady_clock::time_point due;
    std::uint64_t seq;
    std::function<void()> fn;
    bool operator>(const timer& other) const {
      return due != other.due ? due > other.due : seq > other.seq;
    }
  };

  // One pass: fire due timers, drain readable sockets. Returns datagrams
  // dispatched. Every attached endpoint's tx is held while timers and
  // handlers run and flushed before the pass blocks or returns.
  std::size_t pass(std::chrono::milliseconds max_wait);

  // Holds the tx of the endpoints attached when it is made; the
  // destructor releases (and so flushes) them, also when a handler throws.
  class tx_hold_scope {
   public:
    explicit tx_hold_scope(const std::vector<attached>& endpoints);
    ~tx_hold_scope();
    tx_hold_scope(const tx_hold_scope&) = delete;
    tx_hold_scope& operator=(const tx_hold_scope&) = delete;

   private:
    const std::vector<attached>& endpoints_;
    std::size_t held_;
  };

  std::vector<attached> endpoints_;
  std::vector<std::pair<peer_id, bytes>> batch_scratch_;  // reused per pass
  std::vector<std::pair<peer_id, buf::pkt_view>> views_scratch_;  // reused per pass
  std::priority_queue<timer, std::vector<timer>, std::greater<>> timers_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace interedge::net

// Pipe manager: owns all ILP pipes of one InterEdge element (a host stack
// or a service node) and runs the establishment handshake.
//
// Handshake: single round trip. Each side contributes an ephemeral X25519
// key and an SPI base; the shared secret plus direction labels yield the
// two directional PSP master keys ("created when the sender and the
// receiver first connect with each other" — §4). Once a pipe exists, data
// packets carry zero handshake overhead.
//
// Transport-agnostic: the owner supplies a send function and feeds received
// datagrams in via on_datagram(), so the same code runs over the simulator,
// a real socket, or a benchmark loop.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "crypto/x25519.h"
#include "ilp/pipe.h"

namespace interedge::ilp {

// Liveness policy for established pipes (see DESIGN.md §10): the owner
// calls liveness_tick() every keepalive_interval; a peer that misses
// `miss_budget` consecutive probes is declared down, its pipe torn down,
// and reconnection attempted with exponential backoff + jitter. The fresh
// handshake on re-establishment is the forced rekey — a revived peer never
// resumes the old keys.
struct liveness_config {
  nanoseconds keepalive_interval = std::chrono::milliseconds(100);
  std::uint32_t miss_budget = 3;
  nanoseconds reconnect_backoff = std::chrono::milliseconds(50);
  nanoseconds reconnect_backoff_max = std::chrono::seconds(2);
  // Jitter is deterministic given the seed (simulator-friendly).
  std::uint64_t jitter_seed = 0x11fe11fe;
};

struct liveness_stats {
  std::uint64_t probes_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t missed = 0;  // total probe intervals with no ack
  std::uint64_t rtt_ns = 0;  // EWMA over acked probes
  std::uint64_t times_down = 0;
  std::uint64_t reconnect_attempts = 0;
  bool down = false;
};

class pipe_manager {
 public:
  using send_fn = std::function<void(peer_id peer, bytes datagram)>;
  using deliver_fn = std::function<void(peer_id peer, const ilp_header&, bytes payload)>;
  // Batch delivery: every data packet of one ingress batch in one call.
  // Packets are mutable so the receiver can move the headers out; payload
  // spans alias the datagram buffers passed to on_datagram_batch.
  using deliver_batch_fn = std::function<void(peer_id peer, std::span<opened_packet> packets)>;

  // Zero-copy egress hooks (optional). send_raw passes the sealed datagram
  // as a span into the manager's reused seal scratch — valid only for the
  // duration of the call (a socket send copies into the kernel before
  // returning, so udp_endpoint::send qualifies). send_gather goes further:
  // the sealed message head and the payload stay separate buffers, to be
  // glued by scatter-gather I/O (udp_endpoint::send_gather). Resolution
  // order in send_span: gather, then raw, then the owning send_fn.
  using send_raw_fn = std::function<void(peer_id peer, const_byte_span datagram)>;
  using send_gather_fn =
      std::function<void(peer_id peer, const_byte_span head, const_byte_span payload)>;

  pipe_manager(peer_id self, send_fn send, deliver_fn deliver);

  // Sends over the pipe to `peer`, establishing it first if needed
  // (packets queue behind the handshake).
  void send(peer_id peer, const ilp_header& header, bytes payload);

  // Zero-copy send: seals into reused scratch and hands the result to the
  // gather/raw hook (falling back to an owned copy through send_fn when
  // neither is set). The payload is only read during the call. Queues an
  // owned copy behind a pending handshake — the cold path still copies.
  void send_span(peer_id peer, const ilp_header& header, const_byte_span payload);

  void set_send_raw(send_raw_fn f) { send_raw_ = std::move(f); }
  void set_send_gather(send_gather_fn f) { send_gather_ = std::move(f); }

  // Feeds a received datagram (handshake or data) into the manager.
  void on_datagram(peer_id peer, const_byte_span datagram);

  // Batch ingress: feeds a burst of datagrams from one peer. Runs of data
  // messages are decrypted via pipe::decrypt_batch and handed to the batch
  // deliver callback in one call (falling back to per-packet deliver when
  // none is set); handshake messages are handled inline in arrival order.
  void on_datagram_batch(peer_id peer, std::span<const const_byte_span> datagrams);

  // Zero-copy batch ingress over MUTABLE datagram buffers (pool slabs):
  // data runs are decrypted in place via pipe::decrypt_batch_mut — the
  // delivered packets' headers were decrypted over their own ciphertext
  // and payload spans alias the slabs, which must stay live (and unmoved)
  // until the deliver callback returns. Handshake messages are handled
  // inline in arrival order, exactly like on_datagram_batch.
  void on_datagram_batch_mut(peer_id peer, std::span<const byte_span> datagrams);

  // Installs the batch delivery path used by on_datagram_batch.
  void set_batch_deliver(deliver_batch_fn deliver_batch) {
    deliver_batch_ = std::move(deliver_batch);
  }

  // Resolves drop/error counters once so rejected datagrams are counted
  // and logged in the same place — ingress drops are never silent.
  void set_metrics(metrics_registry& reg);

  // Proactively establishes a pipe (used for the long-lived inter-edomain
  // peering pipes of §3.2).
  void connect(peer_id peer);

  bool has_pipe(peer_id peer) const;
  std::size_t pipe_count() const { return pipes_.size(); }
  std::size_t pending_handshakes() const { return pending_.size(); }

  // ---- liveness ----
  // Arms keepalive probing. The manager does not own a timer; the owner
  // calls liveness_tick() every cfg.keepalive_interval (the clock is only
  // read, so any clock& — simulated or real — works).
  void enable_liveness(const clock& clk, liveness_config cfg = {});
  bool liveness_enabled() const { return liveness_clock_ != nullptr; }
  const liveness_config& liveness_cfg() const { return liveness_cfg_; }

  // One probe interval: counts outstanding probes as misses, declares
  // peers past the miss budget down (pipe torn down, status hook fired,
  // reconnect scheduled), sends the next round of probes, and drives
  // pending reconnects whose backoff has elapsed.
  void liveness_tick();

  // Observer fired on peer transitions: up=true when a pipe (re)establishes
  // while liveness is enabled, up=false when the miss budget declares the
  // peer dead. Runs on the owner's thread.
  using peer_status_fn = std::function<void(peer_id peer, bool up)>;
  void set_peer_status_hook(peer_status_fn hook) { peer_status_ = std::move(hook); }

  // Liveness stats for `peer`; nullptr if no probe state exists yet.
  const liveness_stats* liveness_for(peer_id peer) const;

  // Rotates the tx key of every established pipe (rekey schedule).
  void rotate_all();

  // Re-sends the initiation for every handshake still pending — datagrams
  // (including handshakes) can be lost; owners call this on a timer.
  // Queued packets are preserved; the responder side is stateless until it
  // answers, so duplicate inits are harmless.
  void retry_pending();

  const pipe_stats* stats_for(peer_id peer) const;
  std::uint64_t handshakes_completed() const { return handshakes_completed_; }

 private:
  struct pending_state {
    crypto::x25519_keypair keypair;
    std::uint32_t local_spi = 0;
    std::vector<std::pair<ilp_header, bytes>> queued;
  };
  // Responder-side memo: lets a duplicate init (our response was lost) be
  // re-answered idempotently instead of deadlocking the initiator.
  struct responder_memo {
    bytes init_body;
    bytes response;
  };

  // Per-peer probe/reconnect state. `stats.down` flips the entry from
  // probing mode into reconnect mode until the next establish().
  struct liveness_state {
    liveness_stats stats;
    bool awaiting_ack = false;
    std::uint32_t consecutive_misses = 0;
    std::uint64_t probe_seq = 0;
    nanoseconds backoff{0};
    time_point next_attempt{};
  };

  void start_handshake(peer_id peer);
  void flush_data_run(peer_id peer, std::span<const const_byte_span> bodies);
  void flush_data_run_mut(peer_id peer, std::span<const byte_span> bodies);
  void deliver_opened_batch(peer_id peer, std::size_t rejected);
  void handle_init(peer_id peer, const_byte_span body);
  void handle_resp(peer_id peer, const_byte_span body);
  void handle_data(peer_id peer, const_byte_span body);
  void handle_keepalive(peer_id peer, const_byte_span body);
  void handle_keepalive_ack(peer_id peer, const_byte_span body);
  void send_probe(peer_id peer, pipe& p, liveness_state& st);
  void note_peer_alive(peer_id peer);
  void declare_down(peer_id peer, liveness_state& st, time_point now);
  void attempt_reconnect(peer_id peer, liveness_state& st, time_point now);
  void establish(peer_id peer, const crypto::x25519_key& secret_scalar,
                 const crypto::x25519_key& peer_public, std::uint32_t local_spi,
                 std::uint32_t remote_spi, bool initiator,
                 std::vector<std::pair<ilp_header, bytes>> queued);
  std::uint32_t fresh_spi();

  peer_id self_;
  send_fn send_;
  send_raw_fn send_raw_;
  send_gather_fn send_gather_;
  deliver_fn deliver_;
  deliver_batch_fn deliver_batch_;
  peer_status_fn peer_status_;
  counter* rejected_pkts_ = nullptr;  // auth/parse failures (see set_metrics)
  counter* no_pipe_drops_ = nullptr;  // data before any pipe exists
  counter* peer_down_ = nullptr;
  counter* keepalive_sent_ = nullptr;
  counter* keepalive_acked_ = nullptr;
  counter* reconnects_ = nullptr;
  const clock* liveness_clock_ = nullptr;
  liveness_config liveness_cfg_;
  std::optional<rng> jitter_rng_;
  std::map<peer_id, liveness_state> liveness_;
  // Batch-path scratch, reused across on_datagram_batch calls.
  std::vector<const_byte_span> run_scratch_;
  std::vector<byte_span> run_mut_scratch_;
  std::vector<std::optional<opened_packet>> opened_scratch_;
  std::vector<opened_packet> batch_scratch_;
  bytes seal_scratch_;  // send_span's sealed-message reuse
  std::map<peer_id, std::unique_ptr<pipe>> pipes_;
  std::map<peer_id, pending_state> pending_;
  std::map<peer_id, responder_memo> responder_memos_;
  std::uint32_t next_spi_ = 1;
  std::uint64_t handshakes_completed_ = 0;
};

}  // namespace interedge::ilp

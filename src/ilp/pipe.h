// An established ILP pipe: the encrypted channel between two adjacent
// InterEdge elements (host<->SN or SN<->SN).
//
// Per the paper's trust model (§4), only the ILP *header* is sealed with the
// pipe's hop key; the application payload is protected end-to-end with a key
// the pipe never sees. The seal binds the payload length (splice detection)
// but intentionally not its contents — payload integrity is the endpoints'
// concern.
//
// Wire format of a data message (after the 1-byte message kind):
//   varint sealed_len || psp_wire(sealed ILP header) || payload
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/serial.h"
#include "crypto/psp.h"
#include "ilp/header.h"

namespace interedge::ilp {

// Message kinds on the wire between two elements.
enum class msg_kind : std::uint8_t {
  handshake_init = 1,
  handshake_resp = 2,
  data = 3,
  // Liveness probes (pipe_manager): a sealed ILP header authenticated with
  // the pipe's hop key, distinguished from data only by the kind byte so an
  // off-path attacker can neither forge nor replay them across pipes.
  keepalive = 4,
  keepalive_ack = 5,
};

struct pipe_stats {
  std::uint64_t sealed = 0;
  std::uint64_t opened = 0;
  std::uint64_t rejected = 0;
  std::uint64_t rekeys = 0;
};

// One decrypted ingress packet from a batch. The payload is a view into
// the caller's datagram buffer — valid only until those buffers change.
struct opened_packet {
  ilp_header header;
  const_byte_span payload;
};

class pipe {
 public:
  // `secret` is the X25519 shared secret; `initiator` selects the key
  // direction so the two ends derive mirrored tx/rx contexts.
  pipe(const_byte_span secret, std::uint32_t local_spi, std::uint32_t remote_spi, bool initiator);

  // Builds a full data message (kind byte included).
  bytes seal(const ilp_header& header, const_byte_span payload);

  // Scratch-reuse variant: clears `out` and writes the full data message
  // into it. With a reused `out` the only steady-state heap traffic is the
  // header metadata map — the seal itself allocates nothing.
  void seal_into(const ilp_header& header, const_byte_span payload, bytes& out);

  // Gather-send variant: writes only the message head (kind byte, varint
  // framing, sealed header — with the AAD binding `payload_len`) into
  // `head`, leaving the payload to be supplied as a second iovec at send
  // time (udp_endpoint::send_gather). The egress path never concatenates
  // head and payload into one buffer.
  void seal_head_into(const ilp_header& header, std::size_t payload_len, bytes& head);

  // Parses a data message body (kind byte already consumed).
  // nullopt if the header fails to authenticate or the message is malformed.
  std::optional<std::pair<ilp_header, bytes>> open(const_byte_span body);

  // Batch ingress: opens every data-message body in one call, reusing one
  // scratch buffer for the decrypted headers. `out` is resized to
  // bodies.size(); out[i] is nullopt where authentication or parsing
  // failed, and payload spans alias the caller's buffers. Returns the
  // number of packets opened.
  std::size_t decrypt_batch(std::span<const const_byte_span> bodies,
                            std::vector<std::optional<opened_packet>>& out);

  // In-place batch ingress over mutable buffers (pool slabs): each
  // authenticated header is decrypted over its own ciphertext inside the
  // body — no plaintext arena, no allocation. out[i]'s payload span aliases
  // the body; the body's sealed region is destroyed (overwritten with
  // plaintext) for every packet that passed authentication, so a body
  // cannot be re-opened. Safe because psp's open verifies the tag before
  // any byte is written (see psp.h).
  std::size_t decrypt_batch_mut(std::span<const byte_span> bodies,
                                std::vector<std::optional<opened_packet>>& out);

  // Unilateral sender-side rekey; the peer keeps accepting the previous
  // epoch, so no coordination round-trip is needed.
  void rotate_tx() {
    tx_.rotate();
    ++stats_.rekeys;
  }
  // Receive-side epoch advance (driven by observing the peer's new SPI or by
  // the same schedule).
  void rotate_rx() { rx_.rotate(); }

  const pipe_stats& stats() const { return stats_; }
  std::uint64_t tx_epoch() const { return tx_.epoch(); }

 private:
  crypto::psp_context tx_;
  crypto::psp_context rx_;
  pipe_stats stats_;
  writer header_scratch_;  // encoded-header reuse across seals
  bytes open_scratch_;     // decrypted-header arena, reused across opens
  // decrypt_batch scratch, reused across calls.
  std::vector<const_byte_span> sealed_scratch_;
  std::vector<const_byte_span> payload_scratch_;
  std::vector<const_byte_span> aad_scratch_;
  std::vector<byte_span> dst_scratch_;
  bytes aad_bytes_scratch_;
  std::unique_ptr<bool[]> ok_scratch_;
  std::size_t ok_capacity_ = 0;
};

}  // namespace interedge::ilp

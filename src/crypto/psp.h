// PSP-lite: per-packet transport encryption in the style of Google's PSP
// Security Protocol, which the paper selects for ILP because it "can operate
// on individual packets, even when they arrive out of order" and imposes no
// connection-establishment latency.
//
// Wire layout per packet:  spi(4) || iv(8) || ciphertext || tag(16)
//
// * The packet key is derived from a per-association master key and the SPI
//   (so rekeying = bumping the epoch bit in the SPI; no handshake).
// * The AEAD nonce is spi || iv, so each packet is independently sealed:
//   the receiver needs no per-packet ordering state.
// * The receiver accepts the current and the previous epoch, which lets a
//   sender rotate keys unilaterally without packet loss.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "common/bytes.h"

namespace interedge::crypto {

inline constexpr std::size_t kPspMasterKeySize = 32;
inline constexpr std::size_t kPspOverhead = 4 + 8 + 16;  // spi + iv + tag

using psp_master_key = std::array<std::uint8_t, kPspMasterKeySize>;

// One direction of a security association. The two ends of an ILP pipe hold
// mirrored contexts (A's tx == B's rx) built from HKDF of the handshake
// secret.
class psp_context {
 public:
  psp_context(const psp_master_key& master, std::uint32_t spi_base);

  // Seals `plaintext`; `aad` binds cleartext context (e.g. outer addresses).
  bytes seal(const_byte_span plaintext, const_byte_span aad);

  // Opens a sealed packet; nullopt on unknown SPI or authentication failure.
  std::optional<bytes> open(const_byte_span wire, const_byte_span aad) const;

  // Scratch-buffer variant of seal(): writes spi || iv || ciphertext || tag
  // into `out`, which must hold plaintext.size() + kPspOverhead bytes. No
  // heap allocation. Returns the number of bytes written.
  std::size_t seal_into(const_byte_span plaintext, const_byte_span aad, byte_span out);

  // Scratch-buffer variant of open(): decrypts into `out`, which must hold
  // wire.size() - kPspOverhead bytes. Returns the plaintext length, or
  // nullopt on unknown SPI / authentication failure (out untouched).
  //
  // Aliasing guarantee (the zero-copy ingress path depends on it, here and
  // in open_batch): `out` MAY overlap the wire's ciphertext region
  // (wire.subspan(12, wire.size() - kPspOverhead)) — in particular it may
  // be exactly that region, decrypting the packet in place. The Poly1305
  // tag is verified over the ciphertext BEFORE any plaintext byte is
  // written, and the keystream xor tolerates dst == src (memmove
  // semantics), so a failed open leaves the wire intact and a successful
  // one never reads a byte it already overwrote.
  std::optional<std::size_t> open_into(const_byte_span wire, const_byte_span aad,
                                       byte_span out) const;

  // Batch variants: process many packets in one call. The burst's ChaCha20
  // blocks (Poly1305 key block + cipher stream, per packet) are generated
  // by the multi-stream SIMD kernels in one pass, and scratch buffers are
  // reused across calls — zero per-packet heap allocation. outs[i] must be
  // sized as for the *_into variants (plaintexts[i].size() + kPspOverhead
  // for seal; wires[i].size() - kPspOverhead for open). The aads[i]
  // overloads bind per-packet context; the single-aad overloads bind the
  // same context to every packet. open_batch records per-packet success in
  // ok[i]; both return the number of successful packets. open_batch's
  // outs[i] may alias wires[i]'s ciphertext region (in-place decrypt) —
  // see the aliasing guarantee on open_into.
  std::size_t seal_batch(std::span<const const_byte_span> plaintexts, const_byte_span aad,
                         std::span<const byte_span> outs);
  std::size_t seal_batch(std::span<const const_byte_span> plaintexts,
                         std::span<const const_byte_span> aads, std::span<const byte_span> outs);
  std::size_t open_batch(std::span<const const_byte_span> wires, const_byte_span aad,
                         std::span<const byte_span> outs, std::span<bool> ok) const;
  std::size_t open_batch(std::span<const const_byte_span> wires,
                         std::span<const const_byte_span> aads, std::span<const byte_span> outs,
                         std::span<bool> ok) const;

  // Advances to the next key epoch (flips the SPI epoch bit, re-derives the
  // packet key). The previous epoch stays valid on the receive side.
  void rotate();

  std::uint32_t current_spi() const { return current_.spi; }
  std::uint64_t epoch() const { return epoch_; }
  std::uint64_t packets_sealed() const { return iv_counter_; }

 private:
  struct epoch_key {
    std::uint32_t spi = 0;
    std::array<std::uint8_t, 32> key{};
  };
  epoch_key derive(std::uint64_t epoch) const;

  psp_master_key master_;
  std::uint32_t spi_base_;
  std::uint64_t epoch_ = 0;
  epoch_key current_;
  epoch_key previous_;
  std::uint64_t iv_counter_ = 0;
  // Batch scratch, reused across calls so a steady-state batch performs no
  // per-packet allocation (mutable: open_batch is logically const).
  mutable bytes ks_scratch_;
  mutable bytes nonce_scratch_;
  mutable std::vector<std::uint32_t> counter_scratch_;
  mutable std::vector<const_byte_span> aad_scratch_;
};

}  // namespace interedge::crypto

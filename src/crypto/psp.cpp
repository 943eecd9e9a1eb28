#include "crypto/psp.h"

#include <algorithm>
#include <cstring>

#include "crypto/aead.h"
#include "crypto/kdf.h"

namespace interedge::crypto {
namespace {

void make_nonce(std::uint8_t out[kAeadNonceSize], std::uint32_t spi, std::uint64_t iv) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(spi >> (8 * i));
  for (int i = 0; i < 8; ++i) out[4 + i] = static_cast<std::uint8_t>(iv >> (8 * i));
}

}  // namespace

psp_context::psp_context(const psp_master_key& master, std::uint32_t spi_base)
    : master_(master), spi_base_(spi_base & 0x7fffffffu) {
  current_ = derive(0);
  previous_ = current_;
}

psp_context::epoch_key psp_context::derive(std::uint64_t epoch) const {
  epoch_key ek;
  ek.spi = spi_base_ | (static_cast<std::uint32_t>(epoch & 1) << 31);
  std::uint8_t info[16 + 8 + 4];
  std::memcpy(info, "psp-lite pkt key", 16);
  for (int i = 0; i < 8; ++i) info[16 + i] = static_cast<std::uint8_t>(epoch >> (8 * i));
  for (int i = 0; i < 4; ++i) info[24 + i] = static_cast<std::uint8_t>(spi_base_ >> (8 * i));
  const bytes key = hkdf_expand(master_, const_byte_span(info, sizeof(info)), 32);
  std::memcpy(ek.key.data(), key.data(), 32);
  return ek;
}

std::size_t psp_context::seal_into(const_byte_span plaintext, const_byte_span aad, byte_span out) {
  const std::uint64_t iv = iv_counter_++;
  std::uint8_t nonce[kAeadNonceSize];
  make_nonce(nonce, current_.spi, iv);

  // The nonce is exactly the spi || iv wire prefix, which also leads the AAD.
  std::memcpy(out.data(), nonce, 12);
  aead_seal_into(current_.key.data(), nonce, out.first(12), aad, plaintext, out.subspan(12));
  return kPspOverhead + plaintext.size();
}

bytes psp_context::seal(const_byte_span plaintext, const_byte_span aad) {
  bytes out(kPspOverhead + plaintext.size());
  seal_into(plaintext, aad, out);
  return out;
}

std::optional<std::size_t> psp_context::open_into(const_byte_span wire, const_byte_span aad,
                                                  byte_span out) const {
  if (wire.size() < kPspOverhead) return std::nullopt;
  std::uint32_t spi = 0;
  std::uint64_t iv = 0;
  for (int i = 0; i < 4; ++i) spi |= static_cast<std::uint32_t>(wire[i]) << (8 * i);
  for (int i = 0; i < 8; ++i) iv |= static_cast<std::uint64_t>(wire[4 + i]) << (8 * i);

  const epoch_key* ek = nullptr;
  if (spi == current_.spi) {
    ek = &current_;
  } else if (spi == previous_.spi && epoch_ > 0) {
    ek = &previous_;
  } else {
    return std::nullopt;
  }

  std::uint8_t nonce[kAeadNonceSize];
  make_nonce(nonce, spi, iv);

  if (!aead_open_into(ek->key.data(), nonce, wire.first(12), aad, wire.subspan(12), out)) {
    return std::nullopt;
  }
  return wire.size() - kPspOverhead;
}

std::optional<bytes> psp_context::open(const_byte_span wire, const_byte_span aad) const {
  if (wire.size() < kPspOverhead) return std::nullopt;
  bytes out(wire.size() - kPspOverhead);
  if (!open_into(wire, aad, out)) return std::nullopt;
  return out;
}

std::size_t psp_context::seal_batch(std::span<const const_byte_span> plaintexts,
                                    const_byte_span aad, std::span<const byte_span> outs) {
  aad_scratch_.assign(std::min(plaintexts.size(), outs.size()), aad);
  return seal_batch(plaintexts, aad_scratch_, outs);
}

std::size_t psp_context::seal_batch(std::span<const const_byte_span> plaintexts,
                                    std::span<const const_byte_span> aads,
                                    std::span<const byte_span> outs) {
  const std::size_t n = std::min({plaintexts.size(), aads.size(), outs.size()});
  if (n == 0) return 0;

  // Every packet of the batch uses the current epoch key, so the whole
  // burst's ChaCha blocks (Poly1305 key block + cipher stream per packet)
  // can be generated by the multi-stream SIMD kernels in one pass.
  counter_scratch_.clear();
  nonce_scratch_.clear();
  std::size_t total_blocks = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t iv = iv_counter_++;
    std::uint8_t nonce[kAeadNonceSize];
    make_nonce(nonce, current_.spi, iv);
    std::memcpy(outs[i].data(), nonce, 12);  // nonce == the spi||iv wire prefix
    const std::size_t blocks = aead_keystream_blocks(plaintexts[i].size());
    for (std::size_t b = 0; b < blocks; ++b) {
      counter_scratch_.push_back(static_cast<std::uint32_t>(b));
      nonce_scratch_.insert(nonce_scratch_.end(), nonce, nonce + 12);
    }
    total_blocks += blocks;
  }
  ks_scratch_.resize(total_blocks * 64);
  chacha20_keystream_blocks(current_.key.data(), counter_scratch_.data(), nonce_scratch_.data(),
                            total_blocks, ks_scratch_.data());

  std::size_t block_offset = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t blocks = aead_keystream_blocks(plaintexts[i].size());
    aead_seal_with_keystream(
        const_byte_span(ks_scratch_).subspan(block_offset * 64, blocks * 64), outs[i].first(12),
        aads[i], plaintexts[i], outs[i].subspan(12));
    block_offset += blocks;
  }
  return n;
}

std::size_t psp_context::open_batch(std::span<const const_byte_span> wires, const_byte_span aad,
                                    std::span<const byte_span> outs, std::span<bool> ok) const {
  aad_scratch_.assign(std::min({wires.size(), outs.size(), ok.size()}), aad);
  return open_batch(wires, aad_scratch_, outs, ok);
}

std::size_t psp_context::open_batch(std::span<const const_byte_span> wires,
                                    std::span<const const_byte_span> aads,
                                    std::span<const byte_span> outs, std::span<bool> ok) const {
  const std::size_t n = std::min({wires.size(), aads.size(), outs.size(), ok.size()});
  std::size_t opened = 0;
  for (std::size_t i = 0; i < n; ++i) ok[i] = false;

  // Packets are grouped by the epoch key their SPI selects (normally the
  // whole batch is the current epoch); each group's keystream is generated
  // in one multi-stream pass.
  auto run_group = [&](const epoch_key& ek) {
    counter_scratch_.clear();
    nonce_scratch_.clear();
    std::size_t total_blocks = 0;
    auto in_group = [&](std::size_t i) {
      if (wires[i].size() < kPspOverhead) return false;
      std::uint32_t spi = 0;
      for (int b = 0; b < 4; ++b) spi |= static_cast<std::uint32_t>(wires[i][b]) << (8 * b);
      return spi == ek.spi;
    };
    for (std::size_t i = 0; i < n; ++i) {
      if (!in_group(i)) continue;
      const std::size_t blocks = aead_keystream_blocks(wires[i].size() - kPspOverhead);
      for (std::size_t b = 0; b < blocks; ++b) {
        counter_scratch_.push_back(static_cast<std::uint32_t>(b));
        // The wire's spi||iv prefix is the nonce, verbatim.
        nonce_scratch_.insert(nonce_scratch_.end(), wires[i].data(), wires[i].data() + 12);
      }
      total_blocks += blocks;
    }
    if (total_blocks == 0) return;
    ks_scratch_.resize(total_blocks * 64);
    chacha20_keystream_blocks(ek.key.data(), counter_scratch_.data(), nonce_scratch_.data(),
                              total_blocks, ks_scratch_.data());
    std::size_t block_offset = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!in_group(i)) continue;
      const std::size_t blocks = aead_keystream_blocks(wires[i].size() - kPspOverhead);
      ok[i] = aead_open_with_keystream(
          const_byte_span(ks_scratch_).subspan(block_offset * 64, blocks * 64),
          wires[i].first(12), aads[i], wires[i].subspan(12), outs[i]);
      if (ok[i]) ++opened;
      block_offset += blocks;
    }
  };
  run_group(current_);
  if (epoch_ > 0 && previous_.spi != current_.spi) run_group(previous_);
  return opened;
}

void psp_context::rotate() {
  previous_ = current_;
  ++epoch_;
  current_ = derive(epoch_);
  iv_counter_ = 0;
}

}  // namespace interedge::crypto

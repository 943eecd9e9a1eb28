#include "crypto/aead.h"

#include <algorithm>
#include <cstring>

namespace interedge::crypto {
namespace {

poly_tag tag_with_poly_key(const std::uint8_t poly_key[kPolyKeySize], const_byte_span aad_a,
                           const_byte_span aad_b, const_byte_span ciphertext) {
  poly1305 mac(poly_key);
  static constexpr std::uint8_t zeros[15] = {};
  mac.update(aad_a);
  mac.update(aad_b);
  const std::size_t aad_len = aad_a.size() + aad_b.size();
  if (aad_len % 16 != 0) mac.update(const_byte_span(zeros, 16 - aad_len % 16));
  mac.update(ciphertext);
  if (ciphertext.size() % 16 != 0) mac.update(const_byte_span(zeros, 16 - ciphertext.size() % 16));
  std::uint8_t lengths[16];
  const std::uint64_t ct_len = ciphertext.size();
  for (int i = 0; i < 8; ++i) {
    lengths[i] = static_cast<std::uint8_t>(static_cast<std::uint64_t>(aad_len) >> (8 * i));
    lengths[8 + i] = static_cast<std::uint8_t>(ct_len >> (8 * i));
  }
  mac.update(lengths);
  return mac.finish();
}

// Block 0 (the Poly1305 key) plus cipher blocks 1..3: one 4-lane SIMD
// call, which covers every message of up to 192 bytes.
constexpr std::size_t kOneCallBlocks = 4;

// XORs `data` with the cipher-stream part of a keystream (blocks 1..,
// i.e. keystream + 64). Bytes past what it covers, only for single-packet
// messages over 192 B, come from chacha20_xor at the following counter.
void xor_cipher_stream(byte_span data, const_byte_span keystream, const std::uint8_t* key,
                       const std::uint8_t* nonce) {
  const std::uint8_t* ks = keystream.data() + kChaChaBlockSize;
  const std::size_t covered = std::min(data.size(), keystream.size() - kChaChaBlockSize);
  std::size_t i = 0;
  for (; i + 8 <= covered; i += 8) {
    std::uint64_t v, k;
    std::memcpy(&v, data.data() + i, 8);
    std::memcpy(&k, ks + i, 8);
    v ^= k;
    std::memcpy(data.data() + i, &v, 8);
  }
  for (; i < covered; ++i) data[i] ^= ks[i];
  if (covered < data.size()) {
    chacha20_xor(key, static_cast<std::uint32_t>(keystream.size() / kChaChaBlockSize), nonce,
                 data.subspan(covered));
  }
}

// The one seal and the one open: `key`/`nonce` are read only when the
// keystream is shorter than the message needs.
void seal_body(const_byte_span keystream, const std::uint8_t* key, const std::uint8_t* nonce,
               const_byte_span aad_a, const_byte_span aad_b, const_byte_span plaintext,
               byte_span out) {
  if (out.data() != plaintext.data() && !plaintext.empty()) {
    std::memmove(out.data(), plaintext.data(), plaintext.size());
  }
  byte_span ciphertext = out.first(plaintext.size());
  xor_cipher_stream(ciphertext, keystream, key, nonce);
  const poly_tag tag = tag_with_poly_key(keystream.data(), aad_a, aad_b, ciphertext);
  std::memcpy(out.data() + plaintext.size(), tag.data(), tag.size());
}

bool open_body(const_byte_span keystream, const std::uint8_t* key, const std::uint8_t* nonce,
               const_byte_span aad_a, const_byte_span aad_b, const_byte_span sealed,
               byte_span out) {
  if (sealed.size() < kAeadTagSize) return false;
  const const_byte_span ciphertext = sealed.first(sealed.size() - kAeadTagSize);
  const const_byte_span tag = sealed.last(kAeadTagSize);
  const poly_tag expected = tag_with_poly_key(keystream.data(), aad_a, aad_b, ciphertext);
  if (!ct_equal(const_byte_span(expected.data(), expected.size()), tag)) return false;
  if (!ciphertext.empty()) std::memmove(out.data(), ciphertext.data(), ciphertext.size());
  xor_cipher_stream(out.first(ciphertext.size()), keystream, key, nonce);
  return true;
}

// Fills `ks` with blocks 0.. for a `len`-byte message, at most
// kOneCallBlocks of them, in one chacha20_keystream_blocks call.
const_byte_span one_call_keystream(const std::uint8_t key[kAeadKeySize],
                                   const std::uint8_t nonce[kAeadNonceSize], std::size_t len,
                                   std::uint8_t (&ks)[kOneCallBlocks * kChaChaBlockSize]) {
  const std::size_t blocks = std::min(aead_keystream_blocks(len), kOneCallBlocks);
  const std::uint32_t counters[kOneCallBlocks] = {0, 1, 2, 3};
  std::uint8_t nonces[kOneCallBlocks * kAeadNonceSize] = {};
  for (std::size_t b = 0; b < blocks; ++b) {
    std::memcpy(nonces + kAeadNonceSize * b, nonce, kAeadNonceSize);
  }
  chacha20_keystream_blocks(key, counters, nonces, blocks, ks);
  return const_byte_span(ks, blocks * kChaChaBlockSize);
}

}  // namespace

void aead_seal_into(const std::uint8_t key[kAeadKeySize], const std::uint8_t nonce[kAeadNonceSize],
                    const_byte_span aad_a, const_byte_span aad_b, const_byte_span plaintext,
                    byte_span out) {
  std::uint8_t ks[kOneCallBlocks * kChaChaBlockSize];
  seal_body(one_call_keystream(key, nonce, plaintext.size(), ks), key, nonce, aad_a, aad_b,
            plaintext, out);
}

bool aead_open_into(const std::uint8_t key[kAeadKeySize], const std::uint8_t nonce[kAeadNonceSize],
                    const_byte_span aad_a, const_byte_span aad_b, const_byte_span sealed,
                    byte_span out) {
  if (sealed.size() < kAeadTagSize) return false;
  std::uint8_t ks[kOneCallBlocks * kChaChaBlockSize];
  return open_body(one_call_keystream(key, nonce, sealed.size() - kAeadTagSize, ks), key, nonce,
                   aad_a, aad_b, sealed, out);
}

void aead_seal_with_keystream(const_byte_span keystream, const_byte_span aad_a,
                              const_byte_span aad_b, const_byte_span plaintext, byte_span out) {
  seal_body(keystream, nullptr, nullptr, aad_a, aad_b, plaintext, out);
}

bool aead_open_with_keystream(const_byte_span keystream, const_byte_span aad_a,
                              const_byte_span aad_b, const_byte_span sealed, byte_span out) {
  return open_body(keystream, nullptr, nullptr, aad_a, aad_b, sealed, out);
}

bytes aead_seal(const std::uint8_t key[kAeadKeySize], const std::uint8_t nonce[kAeadNonceSize],
                const_byte_span aad, const_byte_span plaintext) {
  bytes out(plaintext.size() + kAeadTagSize);
  aead_seal_into(key, nonce, aad, {}, plaintext, out);
  return out;
}

std::optional<bytes> aead_open(const std::uint8_t key[kAeadKeySize],
                               const std::uint8_t nonce[kAeadNonceSize], const_byte_span aad,
                               const_byte_span sealed) {
  if (sealed.size() < kAeadTagSize) return std::nullopt;
  bytes out(sealed.size() - kAeadTagSize);
  if (!aead_open_into(key, nonce, aad, {}, sealed, out)) return std::nullopt;
  return out;
}

}  // namespace interedge::crypto

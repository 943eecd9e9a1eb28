// ChaCha20 stream cipher (RFC 8439): 256-bit key, 96-bit nonce,
// 32-bit block counter.
//
// The SSE2/AVX2 kernels run four blocks per pass, selected at runtime via
// the cpu_features probe. chacha20_keystream_blocks is the datapath entry
// point: it serves every header seal/open, single-packet or batched, and
// pads a 1..3 block tail into one more SIMD pass (four lanes, or one AVX2
// pair for a block or two), so even a lone header costs one SIMD call. chacha20_xor covers bulk bytes the same way. The
// scalar core stays exported so tests can prove the vectorized paths
// bit-identical; it runs on the datapath only at simd_level::scalar.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace interedge::crypto {

inline constexpr std::size_t kChaChaKeySize = 32;
inline constexpr std::size_t kChaChaNonceSize = 12;
inline constexpr std::size_t kChaChaBlockSize = 64;

// Generates one 64-byte keystream block.
void chacha20_block(const std::uint8_t key[kChaChaKeySize], std::uint32_t counter,
                    const std::uint8_t nonce[kChaChaNonceSize], std::uint8_t out[64]);

// XORs `data` in place with the keystream starting at `counter`.
// Dispatches to the best backend for active_simd_level().
void chacha20_xor(const std::uint8_t key[kChaChaKeySize], std::uint32_t counter,
                  const std::uint8_t nonce[kChaChaNonceSize], byte_span data);

// Portable reference path (4-block unrolled, word-wise XOR, no SIMD).
void chacha20_xor_scalar(const std::uint8_t key[kChaChaKeySize], std::uint32_t counter,
                         const std::uint8_t nonce[kChaChaNonceSize], byte_span data);

// Generates `n` independent 64-byte keystream blocks sharing one key:
// block i uses counters[i] and the 12-byte nonce at nonces + 12*i. This is
// the datapath entry point — it feeds the 4-block SIMD kernels with blocks
// from *different packets* of one pipe (or the blocks of one packet), so
// small-packet AEAD work vectorizes even though each packet needs only a
// block or two.
void chacha20_keystream_blocks(const std::uint8_t key[kChaChaKeySize],
                               const std::uint32_t* counters, const std::uint8_t* nonces,
                               std::size_t n, std::uint8_t* out);

// Backend chacha20_xor will use for the current active_simd_level().
const char* chacha20_backend();

}  // namespace interedge::crypto

// Poly1305 one-time authenticator (RFC 8439).
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace interedge::crypto {

inline constexpr std::size_t kPolyKeySize = 32;
inline constexpr std::size_t kPolyTagSize = 16;

using poly_tag = std::array<std::uint8_t, kPolyTagSize>;

class poly1305 {
 public:
  explicit poly1305(const std::uint8_t key[kPolyKeySize]);
  void update(const_byte_span data);
  poly_tag finish();

  static poly_tag mac(const std::uint8_t key[kPolyKeySize], const_byte_span data) {
    poly1305 p(key);
    p.update(data);
    return p.finish();
  }

 private:
  static constexpr std::uint64_t kHibit = std::uint64_t{1} << 40;  // 2^128 in the top limb
  void block(const std::uint8_t* m, std::uint64_t hibit) { blocks(m, 1, hibit); }
  // Accumulates `count` consecutive 16-byte blocks with r, s and h held in
  // locals across the whole run (the hot loop of the AEAD tag).
  void blocks(const std::uint8_t* m, std::size_t count, std::uint64_t hibit);
  std::uint64_t r_[3];  // radix 2^44 limbs
  std::uint64_t h_[3];
  std::uint64_t pad_[2];
  std::array<std::uint8_t, 16> buffer_;
  std::size_t buffered_ = 0;
};

}  // namespace interedge::crypto

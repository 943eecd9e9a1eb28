#include "crypto/poly1305.h"

#include <gtest/gtest.h>

namespace interedge::crypto {
namespace {

// RFC 8439 §2.5.2 test vector.
TEST(Poly1305, Rfc8439Vector) {
  const bytes key = from_hex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  const bytes msg = to_bytes("Cryptographic Forum Research Group");
  const auto tag = poly1305::mac(key.data(), msg);
  EXPECT_EQ(hex(const_byte_span(tag.data(), tag.size())), "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(Poly1305, EmptyMessage) {
  const bytes key(32, 0x01);
  const auto tag = poly1305::mac(key.data(), {});
  // With r != 0 and empty input the tag equals the pad (s part of the key).
  EXPECT_EQ(hex(const_byte_span(tag.data(), tag.size())), "01010101010101010101010101010101");
}

TEST(Poly1305, IncrementalMatchesOneShot) {
  const bytes key = from_hex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  const bytes msg = to_bytes("Cryptographic Forum Research Group");
  const auto expected = poly1305::mac(key.data(), msg);
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    poly1305 p(key.data());
    p.update(const_byte_span(msg).first(split));
    p.update(const_byte_span(msg).subspan(split));
    EXPECT_EQ(p.finish(), expected) << "split " << split;
  }
}

// An empty update while bytes sit in the block buffer changes nothing.
// The default span has a null data pointer, the case memcpy must not see.
TEST(Poly1305, EmptyUpdateWithDataBuffered) {
  const bytes key = from_hex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  const bytes msg = to_bytes("Cryptographic Forum Research Group");
  poly1305 p(key.data());
  p.update(msg);  // 34 bytes: 2 left in the buffer
  p.update(const_byte_span{});
  EXPECT_EQ(p.finish(), poly1305::mac(key.data(), msg));
}

TEST(Poly1305, DifferentKeysDifferentTags) {
  const bytes key_a(32, 0x11);
  const bytes key_b(32, 0x22);
  const bytes msg = to_bytes("same message");
  EXPECT_NE(poly1305::mac(key_a.data(), msg), poly1305::mac(key_b.data(), msg));
}

TEST(Poly1305, SingleBitFlipChangesTag) {
  const bytes key = from_hex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  bytes msg(48, 0xab);
  const auto tag = poly1305::mac(key.data(), msg);
  msg[17] ^= 0x01;
  EXPECT_NE(poly1305::mac(key.data(), msg), tag);
}

// Edge case from RFC 8439 security considerations: message blocks equal to
// the prime's residue boundaries must reduce correctly.
TEST(Poly1305, AllOnesBlocks) {
  bytes key(32, 0);
  key[0] = 0x02;  // r = 2, s = 0
  const bytes msg(64, 0xff);
  const auto tag = poly1305::mac(key.data(), msg);
  EXPECT_EQ(tag.size(), kPolyTagSize);
  // Deterministic: recompute and compare.
  EXPECT_EQ(poly1305::mac(key.data(), msg), tag);
}

}  // namespace
}  // namespace interedge::crypto

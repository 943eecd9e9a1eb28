#include "crypto/poly1305.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>

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

// Carry-edge vectors from a big-integer reference, independent of the limb
// layout (radix 2^26 or 2^44) the class uses:
//
//   def poly1305(key, msg):
//       r = int.from_bytes(key[:16], "little") & 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF
//       s = int.from_bytes(key[16:], "little")
//       h = 0
//       for i in range(0, len(msg), 16):
//           h = (h + int.from_bytes(msg[i : i + 16] + b"\x01", "little")) * r % (2**130 - 5)
//       return ((h + s) % 2**128).to_bytes(16, "little").hex()
//
// Every tag is also recomputed with the message cut into two updates at
// every offset and fed one byte per update, so the block buffer's carry
// into the next block is checked at each position.
void expect_tag_under_every_split(const bytes& key, const bytes& msg, const std::string& want) {
  EXPECT_EQ(hex(poly1305::mac(key.data(), msg)), want) << "len=" << msg.size();
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    poly1305 p(key.data());
    p.update(const_byte_span(msg).first(split));
    p.update(const_byte_span(msg).subspan(split));
    const poly_tag tag = p.finish();
    EXPECT_EQ(hex(const_byte_span(tag.data(), tag.size())), want)
        << "len=" << msg.size() << " split=" << split;
  }
  poly1305 bytewise(key.data());
  for (const std::uint8_t b : msg) bytewise.update(const_byte_span(&b, 1));
  const poly_tag tag = bytewise.finish();
  EXPECT_EQ(hex(const_byte_span(tag.data(), tag.size())), want) << "len=" << msg.size();
}

// poly1305(b"\xff" * 32, b"\xff" * n) for n in 0..64: the maximal clamped
// r and s over all-0xff blocks, every length and partial block to 4 blocks.
TEST(Poly1305, AllOnesUnderMaximalKeyEveryLength) {
  static const char* const kTags[] = {
      "ffffffffffffffffffffffffffffffff",  // 0
      "23feffef23f8ffef23f8ffef23f8ffef",  // 1
      "fb27feef0320f8ef0320f8ef0320f8ef",  // 2
      "fbff27ee030020e8030020e8030020e8",  // 3
      "f6ffff1702000010fcffff0ffcffff0f",  // 4
      "23f6ffef2bfeffef23f8ffef23f8ffef",  // 5
      "fb27f6ef0328feef0320f8ef0320f8ef",  // 6
      "fbff27e6030028ee030020e8030020e8",  // 7
      "f6ffff17faffff1702000010fcffff0f",  // 8
      "23f6ffef2bf6ffef2bfeffef23f8ffef",  // 9
      "fb27f6ef0328f6ef0328feef0320f8ef",  // 10
      "fbff27e6030028e6030028ee030020e8",  // 11
      "f6ffff17faffff17faffff1702000010",  // 12
      "23f6ffef2bf6ffef2bf6ffef2bfeffef",  // 13
      "fb27f6ef0328f6ef0328f6ef0328feef",  // 14
      "fbff27e6030028e6030028e6030028ee",  // 15
      "fbffff17faffff17faffff17faffff17",  // 16
      "7cfe7ff768f81f2763f8bf565df85f86",  // 17
      "54287ef7482018274320b8563d205886",  // 18
      "5400a8f54800401f4300e04e3d00807e",  // 19
      "4a00801f470020473b00c076350060a6",  // 20
      "7cf67ff770fe1f2763f8bf565df85f86",  // 21
      "542876f748281e274320b8563d205886",  // 22
      "5400a8ed480048254300e04e3d00807e",  // 23
      "4a00801f3f00204f4100c076350060a6",  // 24
      "7cf67ff770f61f276bfebf565df85f86",  // 25
      "542876f7482816274328be563d205886",  // 26
      "5400a8ed4800481d4300e8543d00807e",  // 27
      "4a00801f3f00204f3900c07e3b0060a6",  // 28
      "7cf67ff770f61f276bf6bf5665fe5f86",  // 29
      "542876f7482816274328b6563d285e86",  // 30
      "5400a8ed4800481d4300e84c3d008884",  // 31
      "5400801f3f00204f3900c07e330060ae",  // 32
      "86fa6a437bf4ec24a274504dc37495bc",  // 33
      "5e2469435b1ce524829c484da39c8dbc",  // 34
      "5efc92415bfc0c1d827c7045a37cb5b4",  // 35
      "54fc6a6b59fcec447a7c506d9b7c95dc",  // 36
      "86f26a4383faec24a274504dc37495bc",  // 37
      "5e2461435b24eb24829c484da39c8dbc",  // 38
      "5efc92395bfc1423827c7045a37cb5b4",  // 39
      "54fc6a6b51fcec4c807c506d9b7c95dc",  // 40
      "86f26a4383f2ec24aa7a504dc37495bc",  // 41
      "5e2461435b24e32482a44e4da39c8dbc",  // 42
      "5efc92395bfc141b827c784ba37cb5b4",  // 43
      "54fc6a6b51fcec4c787c5075a17c95dc",  // 44
      "86f26a4383f2ec24aa72504dcb7a95bc",  // 45
      "5e2461435b24e32482a4464da3a493bc",  // 46
      "5efc92395bfc141b827c7843a37cbdba",  // 47
      "5efc6a6b51fcec4c787c5075997c95e4",  // 48
      "b80de303eb57a8afe6a0efbcf1db7e89",  // 49
      "9037e103cb7fa0afc6c8e7bcd1037789",  // 50
      "900f0b02cb5fc8a7c6a80fb5d1e39e81",  // 51
      "860fe32bc95fa8cfbea8efdcc9e37ea9",  // 52
      "b805e303f35da8afe6a0efbcf1db7e89",  // 53
      "9037d903cb87a6afc6c8e7bcd1037789",  // 54
      "900f0bfaca5fd0adc6a80fb5d1e39e81",  // 55
      "860fe32bc15fa8d7c4a8efdcc9e37ea9",  // 56
      "b805e303f355a8afeea6efbcf1db7e89",  // 57
      "9037d903cb879eafc6d0edbcd1037789",  // 58
      "900f0bfaca5fd0a5c6a817bbd1e39e81",  // 59
      "860fe32bc15fa8d7bca8efe4cfe37ea9",  // 60
      "b805e303f355a8afee9eefbcf9e17e89",  // 61
      "9037d903cb879eafc6d0e5bcd10b7d89",  // 62
      "900f0bfaca5fd0a5c6a817b3d1e3a687",  // 63
      "900fe32bc15fa8d7bca8efe4c7e37eb1",  // 64
  };
  const bytes key(32, 0xff);
  for (std::size_t n = 0; n < std::size(kTags); ++n) {
    expect_tag_under_every_split(key, bytes(n, 0xff), kTags[n]);
  }
}

// With r = 1 the two blocks simply add: 0xff * 16 is 2^129 - 1 and
// (0xfc + k) || 0xff * 15 is 2^129 - 4 + k, so the accumulator ends at
// p + k, in [p, 2^130), and only the final reduction brings it to k. Under
// s = 0xff * 16 the pad addition then wraps 2^128 as well.
TEST(Poly1305, AccumulatorInTopRangeBeforeFinalReduction) {
  struct vec {
    std::uint8_t s_byte;
    const char* tags[4];  // k = 0..3
  };
  static const vec kVecs[] = {
      {0x00,
       {"00000000000000000000000000000000", "01000000000000000000000000000000",
        "02000000000000000000000000000000", "03000000000000000000000000000000"}},
      {0xff,
       {"ffffffffffffffffffffffffffffffff", "00000000000000000000000000000000",
        "01000000000000000000000000000000", "02000000000000000000000000000000"}},
  };
  for (const vec& v : kVecs) {
    bytes key(32, v.s_byte);
    std::fill(key.begin(), key.begin() + 16, 0);
    key[0] = 1;
    for (int k = 0; k < 4; ++k) {
      bytes msg(32, 0xff);
      msg[16] = static_cast<std::uint8_t>(0xfc + k);
      expect_tag_under_every_split(key, msg, v.tags[k]);
    }
  }
}

}  // namespace
}  // namespace interedge::crypto

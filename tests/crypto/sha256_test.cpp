#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include "common/bytes.h"

namespace interedge::crypto {
namespace {

std::string hash_hex(std::string_view msg) {
  const auto d = sha256::hash(to_bytes(msg));
  return hex(const_byte_span(d.data(), d.size()));
}

// FIPS 180-4 / NIST CAVP vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(hash_hex(""), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hash_hex("abc"), "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hash_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  sha256 h;
  const bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  const auto d = h.finish();
  EXPECT_EQ(hex(const_byte_span(d.data(), d.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// Incremental updates must match one-shot hashing at every split point.
TEST(Sha256, IncrementalMatchesOneShot) {
  const bytes msg = to_bytes("The quick brown fox jumps over the lazy dog, repeatedly and often.");
  const auto expected = sha256::hash(msg);
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    sha256 h;
    h.update(const_byte_span(msg).first(split));
    h.update(const_byte_span(msg).subspan(split));
    EXPECT_EQ(h.finish(), expected) << "split at " << split;
  }
}

// An empty update while bytes sit in the block buffer changes nothing.
// The default span has a null data pointer, the case memcpy must not see.
TEST(Sha256, EmptyUpdateWithDataBuffered) {
  const bytes msg = to_bytes("abc");
  sha256 h;
  h.update(msg);
  h.update(const_byte_span{});
  EXPECT_EQ(h.finish(), sha256::hash(msg));
}

TEST(Sha256, ExactBlockBoundaries) {
  // Messages of length 55, 56, 63, 64, 65 exercise every padding branch.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u}) {
    const bytes msg(len, 'x');
    sha256 one;
    one.update(msg);
    sha256 two;
    for (std::size_t i = 0; i < len; ++i) two.update(const_byte_span(&msg[i], 1));
    EXPECT_EQ(one.finish(), two.finish()) << "length " << len;
  }
}

}  // namespace
}  // namespace interedge::crypto

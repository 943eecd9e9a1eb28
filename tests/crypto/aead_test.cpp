#include "crypto/aead.h"

#include <gtest/gtest.h>

#include <string>

#include "crypto/cpu_features.h"

namespace interedge::crypto {
namespace {

// RFC 8439 §2.8.2 AEAD test vector.
TEST(Aead, Rfc8439Vector) {
  const bytes key = from_hex("808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  const bytes nonce = from_hex("070000004041424344454647");
  const bytes aad = from_hex("50515253c0c1c2c3c4c5c6c7");
  const bytes plaintext = to_bytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");

  const bytes sealed = aead_seal(key.data(), nonce.data(), aad, plaintext);
  ASSERT_EQ(sealed.size(), plaintext.size() + kAeadTagSize);

  const const_byte_span tag = const_byte_span(sealed).last(kAeadTagSize);
  EXPECT_EQ(hex(tag), "1ae10b594f09e26a7e902ecbd0600691");

  const const_byte_span ct = const_byte_span(sealed).first(plaintext.size());
  EXPECT_EQ(hex(ct.first(16)), "d31a8d34648e60db7b86afbc53ef7ec2");

  const auto opened = aead_open(key.data(), nonce.data(), aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, plaintext);
}

TEST(Aead, TamperedCiphertextRejected) {
  const bytes key(32, 1);
  const bytes nonce(12, 2);
  bytes sealed = aead_seal(key.data(), nonce.data(), {}, to_bytes("payload"));
  sealed[0] ^= 0x01;
  EXPECT_FALSE(aead_open(key.data(), nonce.data(), {}, sealed).has_value());
}

TEST(Aead, TamperedTagRejected) {
  const bytes key(32, 1);
  const bytes nonce(12, 2);
  bytes sealed = aead_seal(key.data(), nonce.data(), {}, to_bytes("payload"));
  sealed.back() ^= 0x01;
  EXPECT_FALSE(aead_open(key.data(), nonce.data(), {}, sealed).has_value());
}

TEST(Aead, WrongAadRejected) {
  const bytes key(32, 1);
  const bytes nonce(12, 2);
  const bytes sealed = aead_seal(key.data(), nonce.data(), to_bytes("context-a"), to_bytes("p"));
  EXPECT_FALSE(aead_open(key.data(), nonce.data(), to_bytes("context-b"), sealed).has_value());
  EXPECT_TRUE(aead_open(key.data(), nonce.data(), to_bytes("context-a"), sealed).has_value());
}

TEST(Aead, WrongKeyRejected) {
  const bytes key_a(32, 1), key_b(32, 2);
  const bytes nonce(12, 3);
  const bytes sealed = aead_seal(key_a.data(), nonce.data(), {}, to_bytes("p"));
  EXPECT_FALSE(aead_open(key_b.data(), nonce.data(), {}, sealed).has_value());
}

TEST(Aead, EmptyPlaintextRoundTrip) {
  const bytes key(32, 1);
  const bytes nonce(12, 2);
  const bytes sealed = aead_seal(key.data(), nonce.data(), to_bytes("aad"), {});
  EXPECT_EQ(sealed.size(), kAeadTagSize);
  const auto opened = aead_open(key.data(), nonce.data(), to_bytes("aad"), sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->empty());
}

TEST(Aead, TooShortInputRejected) {
  const bytes key(32, 1);
  const bytes nonce(12, 2);
  EXPECT_FALSE(aead_open(key.data(), nonce.data(), {}, bytes(5, 0)).has_value());
}

// The one-call seal/open (one padded keystream call up to 192 B, then
// chacha20_xor past it) must give the same bytes on every backend as the
// scalar reference, at lengths around every block edge, with an empty and
// a split AAD. Open runs in place with `out` aliasing the ciphertext, and
// a flipped tag bit is rejected without touching `out`, which there
// aliases the ciphertext too.
TEST(Aead, SealOpenIdenticalOnEveryBackend) {
  bytes key(kAeadKeySize), nonce(kAeadNonceSize);
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i * 11 + 3);
  for (std::size_t i = 0; i < nonce.size(); ++i) nonce[i] = static_cast<std::uint8_t>(i * 5 + 1);
  const bytes aad = to_bytes("spi||iv and then some context");
  const const_byte_span aad_a = const_byte_span(aad).first(12);
  const const_byte_span aad_b = const_byte_span(aad).subspan(12);

  const simd_level saved = active_simd_level();
  for (const std::size_t len :
       {0, 1, 15, 16, 48, 63, 64, 65, 127, 128, 191, 192, 193, 255, 256, 257, 1400}) {
    bytes plaintext(len);
    for (std::size_t i = 0; i < len; ++i) plaintext[i] = static_cast<std::uint8_t>(i * 31 + 7);
    for (const bool split : {false, true}) {
      const const_byte_span a = split ? aad_a : const_byte_span{};
      const const_byte_span b = split ? aad_b : const_byte_span{};
      set_simd_level(simd_level::scalar);
      bytes reference(len + kAeadTagSize);
      aead_seal_into(key.data(), nonce.data(), a, b, plaintext, reference);

      for (simd_level level : {simd_level::scalar, simd_level::sse2, simd_level::avx2}) {
        set_simd_level(level);
        if (active_simd_level() != level) continue;
        const std::string where = "len=" + std::to_string(len) +
                                  " split=" + std::to_string(split) +
                                  " backend=" + simd_level_name(level);
        bytes sealed(len + kAeadTagSize);
        aead_seal_into(key.data(), nonce.data(), a, b, plaintext, sealed);
        EXPECT_EQ(sealed, reference) << where;

        bytes tampered = sealed;
        tampered.back() ^= 0x01;
        const bytes before = tampered;
        EXPECT_FALSE(aead_open_into(key.data(), nonce.data(), a, b, tampered,
                                    byte_span(tampered).first(len)))
            << where;
        EXPECT_EQ(tampered, before) << where;

        EXPECT_TRUE(aead_open_into(key.data(), nonce.data(), a, b, sealed,
                                   byte_span(sealed).first(len)))
            << where;
        EXPECT_EQ(bytes(sealed.begin(), sealed.begin() + static_cast<std::ptrdiff_t>(len)),
                  plaintext)
            << where;
      }
    }
  }
  set_simd_level(saved);
}

// Property sweep over payload sizes including block boundaries.
class AeadSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AeadSizeSweep, RoundTrip) {
  const bytes key(32, 9);
  const bytes nonce(12, 8);
  bytes plaintext(GetParam());
  for (std::size_t i = 0; i < plaintext.size(); ++i) plaintext[i] = static_cast<std::uint8_t>(i);
  const bytes sealed = aead_seal(key.data(), nonce.data(), to_bytes("hdr"), plaintext);
  const auto opened = aead_open(key.data(), nonce.data(), to_bytes("hdr"), sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, plaintext);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AeadSizeSweep,
                         ::testing::Values(0, 1, 15, 16, 17, 63, 64, 65, 127, 128, 255, 1024,
                                           1500, 9000));

}  // namespace
}  // namespace interedge::crypto

// Ablation A3: ILP header-protection cost. The ILP design goal is
// "minimal impact on packet latency ... beyond the overheads imposed by
// the service itself" (§4). Measures PSP seal/open, full pipe seal/open
// (header-only encryption, payload untouched), the one-time handshake
// (X25519 + HKDF), and a plaintext-copy baseline for reference. The
// primitive arms (ChaCha keystream at 1..4 and 128 blocks, Poly1305 at the
// 80 B header MAC and at 1400 B) and the 64-packet burst arm (per-packet
// seal vs one seal_batch) record what a batched egress seal would save.
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "crypto/chacha20.h"
#include "crypto/kdf.h"
#include "crypto/poly1305.h"
#include "crypto/psp.h"
#include "crypto/x25519.h"
#include "ilp/pipe.h"

using namespace interedge;

namespace {

crypto::psp_master_key master() {
  crypto::psp_master_key k;
  k.fill(0x42);
  return k;
}

ilp::ilp_header sample_header() {
  ilp::ilp_header h;
  h.service = ilp::svc::delivery;
  h.connection = 12345;
  h.set_meta_u64(ilp::meta_key::dest_addr, 99);
  return h;
}

void BM_PspSeal(benchmark::State& state) {
  crypto::psp_context tx(master(), 7);
  const bytes plaintext(static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tx.seal(plaintext, {}));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

void BM_PspOpen(benchmark::State& state) {
  crypto::psp_context tx(master(), 7);
  const crypto::psp_context rx(master(), 7);
  const bytes wire = tx.seal(bytes(static_cast<std::size_t>(state.range(0)), 0x5a), {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(rx.open(wire, {}));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

// Full pipe data path: header sealed, payload carried in clear alongside.
void BM_PipeSealOpen(benchmark::State& state) {
  const bytes secret(32, 0x11);
  ilp::pipe a(secret, 1, 2, true);
  ilp::pipe b(secret, 2, 1, false);
  const ilp::ilp_header header = sample_header();
  const bytes payload(static_cast<std::size_t>(state.range(0)), 0x77);
  for (auto _ : state) {
    const bytes wire = a.seal(header, payload);
    benchmark::DoNotOptimize(b.open(const_byte_span(wire).subspan(1)));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

// Baseline: what moving the same bytes costs with no protection at all.
void BM_PlaintextCopyBaseline(benchmark::State& state) {
  const bytes payload(static_cast<std::size_t>(state.range(0)), 0x77);
  bytes sink(payload.size());
  for (auto _ : state) {
    std::memcpy(sink.data(), payload.data(), payload.size());
    benchmark::DoNotOptimize(sink.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

// One-time costs: the pipe-establishment handshake crypto and a key epoch
// rotation ("ILP adds no additional latency when establishing a
// connection" because this happens once per element pair, not per
// connection).
void BM_HandshakeX25519(benchmark::State& state) {
  crypto::x25519_key seed_a{}, seed_b{};
  seed_a[0] = 1;
  seed_b[0] = 2;
  const auto a = crypto::x25519_keypair_from_seed(seed_a);
  const auto b = crypto::x25519_keypair_from_seed(seed_b);
  for (auto _ : state) {
    const auto shared = crypto::x25519(a.secret, b.public_key);
    benchmark::DoNotOptimize(
        crypto::hkdf({}, const_byte_span(shared.data(), shared.size()), to_bytes("dir"), 64));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_KeyRotation(benchmark::State& state) {
  crypto::psp_context tx(master(), 7);
  for (auto _ : state) {
    tx.rotate();
    benchmark::DoNotOptimize(tx.current_spi());
  }
  state.SetItemsProcessed(state.iterations());
}

// n independent-stream keystream blocks in one call: n < 4 is the padded
// tail alone (the single-packet seal's shape), 128 the batch steady state.
void BM_KeystreamBlocks(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bytes key(crypto::kChaChaKeySize, 0x42);
  std::vector<std::uint32_t> counters(n);
  bytes nonces(n * crypto::kChaChaNonceSize);
  for (std::size_t b = 0; b < n; ++b) {
    counters[b] = static_cast<std::uint32_t>(b % 4);
    nonces[b * crypto::kChaChaNonceSize] = static_cast<std::uint8_t>(b / 4);
  }
  bytes out(n * crypto::kChaChaBlockSize);
  for (auto _ : state) {
    crypto::chacha20_keystream_blocks(key.data(), counters.data(), nonces.data(), n, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

// One Poly1305 MAC: 80 B is a 48 B header's tag input (12 B AAD padded to
// 16, 48 B ciphertext, 16 B lengths).
void BM_Poly1305(benchmark::State& state) {
  const bytes key(crypto::kPolyKeySize, 0x42);
  const bytes msg(static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::poly1305::mac(key.data(), msg));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

// A 64-packet burst of 48 B headers: Arg(0) seals packet by packet as the
// SN's egress does today, Arg(1) with one seal_batch. Items are packets.
void BM_PspSealBurst(benchmark::State& state) {
  constexpr std::size_t kBurst = 64;
  constexpr std::size_t kLen = 48;
  crypto::psp_context tx(master(), 7);
  const bytes plaintext(kLen, 0x5a);
  std::vector<bytes> wires(kBurst, bytes(crypto::kPspOverhead + kLen));
  std::vector<const_byte_span> plains(kBurst, const_byte_span(plaintext));
  std::vector<byte_span> outs(wires.begin(), wires.end());
  for (auto _ : state) {
    if (state.range(0) == 0) {
      for (std::size_t i = 0; i < kBurst; ++i) tx.seal_into(plains[i], {}, outs[i]);
    } else {
      tx.seal_batch(plains, const_byte_span{}, outs);
    }
    benchmark::DoNotOptimize(wires.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBurst));
}

}  // namespace

BENCHMARK(BM_PspSeal)->Arg(48)->Arg(256)->Arg(1400);
BENCHMARK(BM_PspOpen)->Arg(48)->Arg(256)->Arg(1400);
BENCHMARK(BM_PipeSealOpen)->Arg(64)->Arg(512)->Arg(1400);
BENCHMARK(BM_PlaintextCopyBaseline)->Arg(64)->Arg(512)->Arg(1400);
BENCHMARK(BM_KeystreamBlocks)->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(128);
BENCHMARK(BM_Poly1305)->Arg(80)->Arg(1400);
BENCHMARK(BM_PspSealBurst)->Arg(0)->Arg(1);
BENCHMARK(BM_HandshakeX25519);
BENCHMARK(BM_KeyRotation);

BENCHMARK_MAIN();

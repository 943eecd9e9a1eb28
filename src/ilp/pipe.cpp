#include "ilp/pipe.h"

#include <cstring>

#include "common/prof.h"
#include "common/serial.h"
#include "common/trace.h"
#include "crypto/kdf.h"

namespace interedge::ilp {
namespace {

crypto::psp_master_key derive_master(const_byte_span secret, std::string_view label) {
  const bytes key =
      crypto::hkdf(to_bytes("interedge-ilp-pipe-v1"), secret, to_bytes(label), 32);
  crypto::psp_master_key master;
  std::memcpy(master.data(), key.data(), master.size());
  return master;
}

// AAD binds the payload length so header and payload cannot be recombined
// across packets without detection. Stack variant of the old length_aad()
// writer (same little-endian u64 encoding).
void length_aad(std::uint8_t out[8], std::size_t payload_size) {
  const std::uint64_t v = payload_size;
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void append_varint(bytes& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

}  // namespace

std::optional<std::pair<ilp_header, bytes>> pipe::open(const_byte_span body) {
  try {
    reader r(body);
    const const_byte_span sealed = r.blob();
    const const_byte_span payload = r.raw(r.remaining());
    if (sealed.size() < crypto::kPspOverhead) {
      ++stats_.rejected;
      return std::nullopt;
    }
    std::uint8_t aad[8];
    length_aad(aad, payload.size());
    open_scratch_.resize(sealed.size() - crypto::kPspOverhead);
    if (!rx_.open_into(sealed, const_byte_span(aad, 8), open_scratch_)) {
      ++stats_.rejected;
      return std::nullopt;
    }
    ilp_header header = ilp_header::decode(open_scratch_);
    ++stats_.opened;
    return std::make_pair(std::move(header), bytes(payload.begin(), payload.end()));
  } catch (const serial_error&) {
    ++stats_.rejected;
    return std::nullopt;
  }
}

std::size_t pipe::decrypt_batch(std::span<const const_byte_span> bodies,
                                std::vector<std::optional<opened_packet>>& out) {
  prof::cycle_scope cyc(prof::cycle_stage::decrypt);
  const std::size_t n = bodies.size();
  out.clear();
  out.resize(n);

  // Stage timing is batch-granular — four clock reads per batch, so the
  // telemetry cost amortizes to ~nothing per packet (DESIGN.md §8).
  trace::tracer* tr = trace::current();
  std::uint64_t t0 = 0, t1 = 0, t2 = 0;
  if (tr) t0 = trace::now_ns();

  // Pass 1: parse every body, recording the sealed-header span, the
  // payload span and the per-packet length AAD. A parse failure leaves the
  // sealed span empty, which open_batch skips.
  sealed_scratch_.assign(n, {});
  payload_scratch_.assign(n, {});
  aad_bytes_scratch_.resize(8 * n);
  aad_scratch_.assign(n, {});
  std::size_t arena_size = 0;
  for (std::size_t i = 0; i < n; ++i) {
    try {
      reader r(bodies[i]);
      const const_byte_span sealed = r.blob();
      const const_byte_span payload = r.raw(r.remaining());
      if (sealed.size() < crypto::kPspOverhead) {
        ++stats_.rejected;
        continue;
      }
      length_aad(&aad_bytes_scratch_[8 * i], payload.size());
      aad_scratch_[i] = const_byte_span(&aad_bytes_scratch_[8 * i], 8);
      sealed_scratch_[i] = sealed;
      payload_scratch_[i] = payload;
      arena_size += sealed.size() - crypto::kPspOverhead;
    } catch (const serial_error&) {
      ++stats_.rejected;
    }
  }

  if (tr) t1 = trace::now_ns();

  // Pass 2: decrypt every header in one multi-stream batch, each into its
  // slice of the shared arena.
  open_scratch_.resize(arena_size);
  dst_scratch_.assign(n, {});
  std::size_t arena_offset = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (sealed_scratch_[i].empty()) continue;
    const std::size_t len = sealed_scratch_[i].size() - crypto::kPspOverhead;
    dst_scratch_[i] = byte_span(open_scratch_).subspan(arena_offset, len);
    arena_offset += len;
  }
  if (ok_capacity_ < n) {
    ok_scratch_ = std::make_unique<bool[]>(n);
    ok_capacity_ = n;
  }
  rx_.open_batch(sealed_scratch_, aad_scratch_, dst_scratch_,
                  std::span<bool>(ok_scratch_.get(), n));
  if (tr) t2 = trace::now_ns();

  // Pass 3: decode the authenticated headers.
  std::size_t opened = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (sealed_scratch_[i].empty()) continue;  // already counted rejected
    if (!ok_scratch_[i]) {
      ++stats_.rejected;
      continue;
    }
    try {
      out[i] = opened_packet{ilp_header::decode(dst_scratch_[i]), payload_scratch_[i]};
      ++stats_.opened;
      ++opened;
    } catch (const serial_error&) {
      ++stats_.rejected;
    }
  }
  if (tr) {
    const std::uint64_t t3 = trace::now_ns();
    // Parse = wire parse (pass 1) + header decode (pass 3).
    tr->record_stage(trace::stage::parse, (t1 - t0) + (t3 - t2));
    tr->record_stage(trace::stage::decrypt, t2 - t1);
  }
  return opened;
}

std::size_t pipe::decrypt_batch_mut(std::span<const byte_span> bodies,
                                    std::vector<std::optional<opened_packet>>& out) {
  prof::cycle_scope cyc(prof::cycle_stage::decrypt);
  const std::size_t n = bodies.size();
  out.clear();
  out.resize(n);

  trace::tracer* tr = trace::current();
  std::uint64_t t0 = 0, t1 = 0, t2 = 0;
  if (tr) t0 = trace::now_ns();

  // Pass 1: parse framing. Identical to decrypt_batch, except the decrypt
  // destination is computed inside the body itself: the plaintext header
  // (sealed_len - kPspOverhead bytes) lands over its own ciphertext, which
  // starts 12 bytes (spi + iv) into the sealed region. No arena.
  sealed_scratch_.assign(n, {});
  payload_scratch_.assign(n, {});
  aad_bytes_scratch_.resize(8 * n);
  aad_scratch_.assign(n, {});
  dst_scratch_.assign(n, {});
  for (std::size_t i = 0; i < n; ++i) {
    try {
      reader r(bodies[i]);
      const const_byte_span sealed = r.blob();
      const const_byte_span payload = r.raw(r.remaining());
      if (sealed.size() < crypto::kPspOverhead) {
        ++stats_.rejected;
        continue;
      }
      length_aad(&aad_bytes_scratch_[8 * i], payload.size());
      aad_scratch_[i] = const_byte_span(&aad_bytes_scratch_[8 * i], 8);
      sealed_scratch_[i] = sealed;
      payload_scratch_[i] = payload;
      const std::size_t sealed_off =
          static_cast<std::size_t>(sealed.data() - bodies[i].data());
      dst_scratch_[i] =
          bodies[i].subspan(sealed_off + 12, sealed.size() - crypto::kPspOverhead);
    } catch (const serial_error&) {
      ++stats_.rejected;
    }
  }

  if (tr) t1 = trace::now_ns();

  // Pass 2: one multi-stream batch decrypt, in place. psp::open_batch
  // permits dst aliasing the wire's ciphertext (tag is verified before any
  // plaintext byte is written).
  if (ok_capacity_ < n) {
    ok_scratch_ = std::make_unique<bool[]>(n);
    ok_capacity_ = n;
  }
  rx_.open_batch(sealed_scratch_, aad_scratch_, dst_scratch_,
                  std::span<bool>(ok_scratch_.get(), n));
  if (tr) t2 = trace::now_ns();

  // Pass 3: decode the authenticated headers out of the bodies.
  std::size_t opened = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (sealed_scratch_[i].empty()) continue;  // already counted rejected
    if (!ok_scratch_[i]) {
      ++stats_.rejected;
      continue;
    }
    try {
      out[i] = opened_packet{ilp_header::decode(dst_scratch_[i]), payload_scratch_[i]};
      ++stats_.opened;
      ++opened;
    } catch (const serial_error&) {
      ++stats_.rejected;
    }
  }
  if (tr) {
    const std::uint64_t t3 = trace::now_ns();
    tr->record_stage(trace::stage::parse, (t1 - t0) + (t3 - t2));
    tr->record_stage(trace::stage::decrypt, t2 - t1);
  }
  return opened;
}

pipe::pipe(const_byte_span secret, std::uint32_t local_spi, std::uint32_t remote_spi,
           bool initiator)
    : tx_(derive_master(secret, initiator ? "init->resp" : "resp->init"), local_spi),
      rx_(derive_master(secret, initiator ? "resp->init" : "init->resp"), remote_spi) {}

void pipe::seal_into(const ilp_header& header, const_byte_span payload, bytes& out) {
  header_scratch_.clear();
  header.encode_into(header_scratch_);
  const const_byte_span header_bytes = header_scratch_.data();
  const std::size_t sealed_len = header_bytes.size() + crypto::kPspOverhead;

  std::uint8_t aad[8];
  length_aad(aad, payload.size());

  out.clear();
  out.reserve(1 + 10 + sealed_len + payload.size());
  out.push_back(static_cast<std::uint8_t>(msg_kind::data));
  append_varint(out, sealed_len);
  const std::size_t seal_offset = out.size();
  out.resize(seal_offset + sealed_len);
  tx_.seal_into(header_bytes, const_byte_span(aad, 8),
                byte_span(out).subspan(seal_offset, sealed_len));
  out.insert(out.end(), payload.begin(), payload.end());
  ++stats_.sealed;
}

void pipe::seal_head_into(const ilp_header& header, std::size_t payload_len, bytes& head) {
  header_scratch_.clear();
  header.encode_into(header_scratch_);
  const const_byte_span header_bytes = header_scratch_.data();
  const std::size_t sealed_len = header_bytes.size() + crypto::kPspOverhead;

  std::uint8_t aad[8];
  length_aad(aad, payload_len);

  head.clear();
  head.reserve(1 + 10 + sealed_len);
  head.push_back(static_cast<std::uint8_t>(msg_kind::data));
  append_varint(head, sealed_len);
  const std::size_t seal_offset = head.size();
  head.resize(seal_offset + sealed_len);
  tx_.seal_into(header_bytes, const_byte_span(aad, 8),
                byte_span(head).subspan(seal_offset, sealed_len));
  ++stats_.sealed;
}

bytes pipe::seal(const ilp_header& header, const_byte_span payload) {
  bytes out;
  seal_into(header, payload, out);
  return out;
}

}  // namespace interedge::ilp

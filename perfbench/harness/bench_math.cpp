#include "bench_math.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <tuple>

namespace perfbench {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// ---- latency histogram ----

std::size_t latency_hist::bucket_of(std::uint64_t v) {
  if (v < (1u << kSubBits)) return static_cast<std::size_t>(v);
  const unsigned msb = 63 - static_cast<unsigned>(std::countl_zero(v));
  const unsigned e = msb - (kSubBits - 1);
  return (std::size_t{e} << (kSubBits - 1)) + static_cast<std::size_t>(v >> e);
}

std::uint64_t latency_hist::bucket_low(std::size_t b) {
  if (b < (1u << kSubBits)) return b;
  const std::size_t e = (b >> (kSubBits - 1)) - 1;
  return static_cast<std::uint64_t>(b - (e << (kSubBits - 1))) << e;
}

std::uint64_t latency_hist::bucket_width(std::size_t b) {
  if (b < (1u << kSubBits)) return 1;
  return std::uint64_t{1} << ((b >> (kSubBits - 1)) - 1);
}

void latency_hist::record(std::uint64_t v) {
  ++buckets_[bucket_of(v)];
  ++count_;
}

void latency_hist::merge(const latency_hist& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double latency_hist::quantile(double q) const {
  if (count_ == 0) return 0;
  const double want = std::ceil(q * static_cast<double>(count_) - 1e-9);
  const std::uint64_t rank =
      std::clamp<std::uint64_t>(static_cast<std::uint64_t>(std::max(want, 1.0)), 1, count_);
  std::uint64_t before = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const std::uint64_t c = buckets_[b];
    if (before + c >= rank) {
      const double frac = (static_cast<double>(rank - before) - 0.5) / static_cast<double>(c);
      return static_cast<double>(bucket_low(b)) + frac * static_cast<double>(bucket_width(b));
    }
    before += c;
  }
  return 0;
}

double tail_percentile(std::uint64_t n, std::uint64_t min_beyond) {
  static constexpr std::uint64_t kPpm[] = {999990, 999900, 999000, 990000, 900000, 500000};
  for (std::uint64_t ppm : kPpm) {
    const std::uint64_t rank = (ppm * n + 999999) / 1000000;
    if (n - rank >= min_beyond && rank <= n) return static_cast<double>(ppm) / 1e6;
  }
  return 0;
}

std::string percentile_label(double q) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "p%.10g", q * 100.0);
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

// ---- spans ----

std::int32_t span_log::begin(std::uint32_t name, std::uint64_t start, std::uint64_t tag) {
  if (spans_.size() >= capacity_) {
    if (full_at_ == 0) full_at_ = start;
    return -1;
  }
  if (spans_.capacity() == 0) spans_.reserve(capacity_);
  spans_.push_back(span{name, open_, start, 0, tag});
  open_ = static_cast<std::int32_t>(spans_.size() - 1);
  return open_;
}

void span_log::end(std::int32_t idx, std::uint64_t end) {
  if (idx < 0) return;
  span& s = spans_[static_cast<std::size_t>(idx)];
  s.end = end;
  open_ = s.parent;
}

namespace {

// Duration of [start, end) inside w.
std::uint64_t clipped_ns(std::uint64_t start, std::uint64_t end, window w) {
  const std::uint64_t s = std::max(start, w.start);
  const std::uint64_t e = std::min(end, w.end);
  return e > s ? e - s : 0;
}

}  // namespace

span_totals sum_spans(std::span<const span> spans, std::size_t n_names, window w,
                      std::span<const std::uint32_t> subtract) {
  span_totals t;
  t.total.assign(n_names, 0);
  t.self.assign(n_names, 0);
  t.calls.assign(n_names, 0);

  // (parent, start, end) of every subtracted child, clipped to the window
  // and to its parent.
  std::vector<std::tuple<std::int32_t, std::uint64_t, std::uint64_t>> kids;
  for (const span& s : spans) {
    if (s.parent < 0) continue;
    if (!subtract.empty() &&
        std::find(subtract.begin(), subtract.end(), s.name) == subtract.end()) {
      continue;
    }
    const span& p = spans[static_cast<std::size_t>(s.parent)];
    const window pw{std::max(p.start, w.start), std::min(p.end, w.end)};
    const std::uint64_t st = std::max(s.start, pw.start);
    const std::uint64_t en = std::min(s.end, pw.end);
    if (en > st) kids.emplace_back(s.parent, st, en);
  }
  std::sort(kids.begin(), kids.end());
  std::vector<std::uint64_t> covered(spans.size(), 0);
  for (std::size_t i = 0; i < kids.size();) {
    const std::int32_t parent = std::get<0>(kids[i]);
    std::uint64_t cur_s = std::get<1>(kids[i]);
    std::uint64_t cur_e = std::get<2>(kids[i]);
    std::uint64_t sum = 0;
    for (++i; i < kids.size() && std::get<0>(kids[i]) == parent; ++i) {
      if (std::get<1>(kids[i]) > cur_e) {
        sum += cur_e - cur_s;
        cur_s = std::get<1>(kids[i]);
      }
      cur_e = std::max(cur_e, std::get<2>(kids[i]));
    }
    covered[static_cast<std::size_t>(parent)] = sum + (cur_e - cur_s);
  }

  for (std::size_t i = 0; i < spans.size(); ++i) {
    const span& s = spans[i];
    if (s.name >= n_names) continue;
    const std::uint64_t d = clipped_ns(s.start, s.end, w);
    t.total[s.name] += d;
    t.self[s.name] += d - std::min(d, covered[i]);
    if (s.start >= w.start && s.start < w.end) ++t.calls[s.name];
  }
  return t;
}

// ---- /proc/net/udp ----

std::optional<std::uint64_t> udp_drops(std::string_view text, std::uint16_t port) {
  std::optional<std::uint64_t> sum;
  while (!text.empty()) {
    const std::size_t nl = text.find('\n');
    std::string_view line = text.substr(0, nl);
    text = nl == std::string_view::npos ? std::string_view{} : text.substr(nl + 1);

    std::string_view fields[13];
    std::size_t n = 0;
    while (n < 13) {
      const std::size_t b = line.find_first_not_of(" \t\r");
      if (b == std::string_view::npos) break;
      line.remove_prefix(b);
      const std::size_t e = line.find_first_of(" \t\r");
      fields[n++] = line.substr(0, e);
      line = e == std::string_view::npos ? std::string_view{} : line.substr(e);
    }
    if (n < 13 || fields[0] == "sl") continue;
    const std::string_view local = fields[1];
    const std::size_t colon = local.rfind(':');
    if (colon == std::string_view::npos) continue;
    const std::string hex_port(local.substr(colon + 1));
    const std::string drops(fields[12]);
    char* end = nullptr;
    const unsigned long p = std::strtoul(hex_port.c_str(), &end, 16);
    if (*end != '\0' || p != port) continue;
    const unsigned long long d = std::strtoull(drops.c_str(), &end, 10);
    if (*end != '\0') continue;
    sum = sum.value_or(0) + d;
  }
  return sum;
}

// ---- /proc/stat ----

std::optional<std::uint64_t> cpu_steal(std::string_view text, int cpu) {
  const std::string prefix = "cpu" + std::to_string(cpu) + " ";
  while (!text.empty()) {
    const std::size_t nl = text.find('\n');
    const std::string line(text.substr(0, nl));
    text = nl == std::string_view::npos ? std::string_view{} : text.substr(nl + 1);
    if (line.rfind(prefix, 0) != 0) continue;
    unsigned long long v[8];
    if (std::sscanf(line.c_str() + prefix.size(), "%llu %llu %llu %llu %llu %llu %llu %llu",
                    &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) != 8) {
      return std::nullopt;
    }
    return v[7];
  }
  return std::nullopt;
}

// ---- open-loop schedule ----

std::uint64_t paced_due_ns(std::uint64_t i, std::uint64_t rate_pps) {
  return static_cast<std::uint64_t>(static_cast<unsigned __int128>(i) * 1'000'000'000u /
                                    rate_pps);
}

std::uint64_t paced_due_count(std::uint64_t elapsed_ns, std::uint64_t rate_pps) {
  // floor(i * 1e9 / rate) <= elapsed  <=>  i < (elapsed + 1) * rate / 1e9.
  return static_cast<std::uint64_t>(
      ((static_cast<unsigned __int128>(elapsed_ns) + 1) * rate_pps + 999'999'999u) /
      1'000'000'000u);
}

// ---- payloads ----

namespace {
constexpr std::size_t kPool = 1 << 16;
}

payload_source::payload_source(std::uint64_t seed) : seed_(seed), pool_(kPool + kMaxLen) {
  for (std::size_t i = 0; i < pool_.size(); i += 8) {
    const std::uint64_t r = mix64(seed, i);
    std::memcpy(&pool_[i], &r, std::min<std::size_t>(8, pool_.size() - i));
  }
}

std::size_t payload_source::offset(std::uint64_t seq) const {
  return static_cast<std::size_t>(mix64(seed_ ^ 0x5bd1e995ull, seq) % kPool);
}

void payload_source::fill(std::uint64_t seq, std::uint64_t flow,
                          std::span<std::uint8_t> out) const {
  std::memcpy(out.data(), &seq, 8);
  std::memcpy(out.data() + 8, &flow, 8);
  std::memcpy(out.data() + kHeader, &pool_[offset(seq)], out.size() - kHeader);
}

bool payload_source::check(std::span<const std::uint8_t> p) const {
  if (p.size() < kHeader || p.size() > kMaxLen) return false;
  return std::memcmp(p.data() + kHeader, &pool_[offset(seq_of(p))], p.size() - kHeader) == 0;
}

std::uint64_t payload_source::seq_of(std::span<const std::uint8_t> p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p.data(), 8);
  return v;
}

std::uint64_t payload_source::flow_of(std::span<const std::uint8_t> p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p.data() + 8, 8);
  return v;
}

std::size_t imix_size(std::uint64_t seed, std::uint64_t seq) {
  const std::uint64_t r = mix64(seed ^ 0x1111ull, seq) % 12;
  return r < 7 ? 64 : r < 11 ? 576 : 1200;
}

}  // namespace perfbench

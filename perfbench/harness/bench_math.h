// Arithmetic of the loopback benchmark, kept apart from the harness so
// bench_math_test can check it without sockets or threads:
//
//   latency_hist        fixed-size log-linear histogram (memory does not
//                       grow with the packet count) with rank quantiles
//   tail_percentile     the highest reported percentile that still has at
//                       least ten samples beyond it
//   span_log/sum_spans  in-memory spans (name, start, end, parent, tag) and
//                       self time = duration minus the part covered by the
//                       chosen children, clipped to the timed window
//   udp_drops           the drops column of /proc/net/udp for one port
//   cpu_steal           the steal column of /proc/stat for one CPU
//   paced_due_*         the open-loop schedule: packet i is due at
//                       i * 1e9 / rate ns after the start, computed
//                       exactly so it never drifts
//   payload_source      seeded payload bytes every packet is checked against
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// splitmix64 finaliser: a seeded, stateless hash used for every generated
// order (flow choice, payload size, payload offset).
std::uint64_t mix64(std::uint64_t x);
inline std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  return mix64(a ^ mix64(b + 0x9e3779b97f4a7c15ull));
}

// ---- latency histogram ----

// Log-linear buckets: values below 2^kSubBits are exact; above, each
// power of two is split into 2^(kSubBits-1) equal buckets (relative
// width <= 1/128). Quantiles interpolate linearly inside the bucket.
class latency_hist {
 public:
  static constexpr unsigned kSubBits = 8;
  static constexpr std::size_t kBuckets = std::size_t{64 - kSubBits + 2} << (kSubBits - 1);

  void record(std::uint64_t v);
  void merge(const latency_hist& other);
  std::uint64_t count() const { return count_; }
  // q in [0, 1]; 0 when empty. Rank r = ceil(q * n) (1-based, at least 1).
  double quantile(double q) const;

  static std::size_t bucket_of(std::uint64_t v);
  static std::uint64_t bucket_low(std::size_t b);
  static std::uint64_t bucket_width(std::size_t b);

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
};

// The highest of 50, 90, 99, 99.9, 99.99, 99.999 (as fractions) that
// leaves at least `min_beyond` of `n` samples above its rank; 0 when even
// the median does not.
double tail_percentile(std::uint64_t n, std::uint64_t min_beyond = 10);

// "p99.9"-style label for a fraction.
std::string percentile_label(double q);

double median(std::vector<double> v);

// ---- spans ----

struct span {
  std::uint32_t name = 0;
  std::int32_t parent = -1;  // index into the same log, -1 = root
  std::uint64_t start = 0;   // steady-clock ns
  std::uint64_t end = 0;
  std::uint64_t tag = 0;     // packet sequence number or batch id
};

// One thread's spans, nested by a begin/end stack. Kept in memory until
// the run ends, up to a fixed capacity: once full, begin() records
// nothing and returns -1, and full_at() tells from when spans are missing.
class span_log {
 public:
  explicit span_log(std::size_t capacity = 1 << 20) : capacity_(capacity) {}
  std::int32_t begin(std::uint32_t name, std::uint64_t start, std::uint64_t tag = 0);
  void end(std::int32_t idx, std::uint64_t end);
  void set_tag(std::int32_t idx, std::uint64_t tag) {
    if (idx >= 0) spans_[static_cast<std::size_t>(idx)].tag = tag;
  }
  const std::vector<span>& spans() const { return spans_; }
  // Start time of the first span that did not fit; 0 while none was lost.
  std::uint64_t full_at() const { return full_at_; }

 private:
  std::size_t capacity_;
  std::vector<span> spans_;
  std::int32_t open_ = -1;
  std::uint64_t full_at_ = 0;
};

struct window {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

// Per-name totals over a log, clipped to w: total[n] sums the spans named
// n; self[n] sums each such span's duration minus the union of its direct
// children whose name is in `subtract` (all children when empty).
struct span_totals {
  std::vector<std::uint64_t> total;
  std::vector<std::uint64_t> self;
  std::vector<std::uint64_t> calls;  // spans that overlap the window
};
span_totals sum_spans(std::span<const span> spans, std::size_t n_names, window w,
                      std::span<const std::uint32_t> subtract = {});

// ---- /proc/net/udp ----

// Sums the drops column over every socket bound to `port` in the text of
// /proc/net/udp; nullopt when no line matches.
std::optional<std::uint64_t> udp_drops(std::string_view proc_net_udp, std::uint16_t port);

// ---- /proc/stat ----

// The steal column (the eighth number: time the hypervisor ran something
// else while this CPU had work) of the `cpu<N>` line of /proc/stat, in
// USER_HZ ticks; nullopt when there is no such line or column.
std::optional<std::uint64_t> cpu_steal(std::string_view proc_stat, int cpu);

// ---- open-loop schedule ----

// Offset of packet i from the schedule start.
std::uint64_t paced_due_ns(std::uint64_t i, std::uint64_t rate_pps);
// Packets due by `elapsed_ns` after the start (packet 0 is due at 0).
std::uint64_t paced_due_count(std::uint64_t elapsed_ns, std::uint64_t rate_pps);

// ---- payloads ----

// A packet's payload is [seq u64][flow u64] then bytes of a seeded pool
// starting at an offset derived from (seed, seq); the receiver rebuilds
// the expected bytes from seq alone.
class payload_source {
 public:
  static constexpr std::size_t kHeader = 16;
  static constexpr std::size_t kMaxLen = 1500;

  explicit payload_source(std::uint64_t seed);
  void fill(std::uint64_t seq, std::uint64_t flow, std::span<std::uint8_t> out) const;
  // True when `p` is exactly what fill(seq, flow, ...) produced for its
  // length; seq and flow are read back from the header.
  bool check(std::span<const std::uint8_t> p) const;
  static std::uint64_t seq_of(std::span<const std::uint8_t> p);
  static std::uint64_t flow_of(std::span<const std::uint8_t> p);

 private:
  std::size_t offset(std::uint64_t seq) const;
  std::uint64_t seed_;
  std::vector<std::uint8_t> pool_;
};

// IMIX payload size for a packet: 64 / 576 / 1200 B at 7:4:1.
std::size_t imix_size(std::uint64_t seed, std::uint64_t seq);

}  // namespace perfbench

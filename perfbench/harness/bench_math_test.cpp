// Checks the benchmark's own arithmetic: percentile choice, histogram
// quantiles, span self time, /proc/net/udp parsing, the open-loop
// schedule and payload validation. Exits nonzero on the first failure.
//
//   .bench_build/bench_math_test
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_math.h"

using namespace perfbench;

namespace {

int failures = 0;

#define CHECK(cond)                                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "%s:%d: CHECK(%s) failed\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                       \
    }                                                                   \
  } while (0)

bool near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

void test_tail_percentile() {
  CHECK(tail_percentile(0) == 0);
  CHECK(tail_percentile(19) == 0);     // the median leaves 9 beyond
  CHECK(tail_percentile(20) == 0.5);   // rank 10 of 20 leaves exactly 10
  CHECK(tail_percentile(99) == 0.5);   // p90 rank 90 leaves 9
  CHECK(tail_percentile(100) == 0.9);
  CHECK(tail_percentile(999) == 0.9);  // p99 rank 990 leaves 9
  CHECK(tail_percentile(1000) == 0.99);
  CHECK(tail_percentile(10000) == 0.999);
  CHECK(tail_percentile(1000000) == 0.99999);
  CHECK(tail_percentile(1000, 11) == 0.9);
  CHECK(percentile_label(0.999) == "p99.9");
  CHECK(percentile_label(0.5) == "p50");
}

void test_histogram() {
  for (std::uint64_t v : {0ull, 1ull, 255ull, 256ull, 257ull, 1000ull, 123456789ull,
                          (1ull << 40) + 12345, ~0ull}) {
    const std::size_t b = latency_hist::bucket_of(v);
    CHECK(b < latency_hist::kBuckets);
    CHECK(latency_hist::bucket_low(b) <= v);
    CHECK(v - latency_hist::bucket_low(b) < latency_hist::bucket_width(b));
    if (v >= 256) {
      CHECK(latency_hist::bucket_width(b) * 128 <= latency_hist::bucket_low(b));
    }
  }
  for (std::uint64_t v = 1; v < 100000; v = v * 3 / 2 + 1) {
    CHECK(latency_hist::bucket_of(v) <= latency_hist::bucket_of(v + 1));
  }

  latency_hist small;
  for (std::uint64_t v = 1; v <= 100; ++v) small.record(v);
  CHECK(small.count() == 100);
  CHECK(near(small.quantile(0.5), 50.5, 1e-9));  // rank 50, middle of its bucket
  CHECK(near(small.quantile(0.99), 99.5, 1e-9));
  CHECK(near(small.quantile(0.0), 1.5, 1e-9));   // rank clamps to 1

  latency_hist big, other;
  for (std::uint64_t i = 0; i < 100000; ++i) (i % 2 ? big : other).record(10000 + i * 10);
  big.merge(other);
  CHECK(big.count() == 100000);
  CHECK(near(big.quantile(0.5), 10000 + 49999 * 10, 0.01 * 510000));
  CHECK(near(big.quantile(0.99), 10000 + 98999 * 10, 0.01 * 1000000));
  CHECK(latency_hist{}.quantile(0.5) == 0);
  CHECK(median({3, 1, 2}) == 2);
  CHECK(median({4, 1, 3, 2}) == 2.5);
}

void test_self_time() {
  enum : std::uint32_t { kRun, kIngress, kTx, kDelivery, kNames };
  span_log log;
  const auto run = log.begin(kRun, 50);
  const auto in = log.begin(kIngress, 100);
  const auto tx1 = log.begin(kTx, 120);
  log.end(tx1, 130);
  const auto dl = log.begin(kDelivery, 135);
  const auto tx2 = log.begin(kTx, 140);  // grandchild of ingress
  log.end(tx2, 142);
  log.end(dl, 145);
  const auto tx3 = log.begin(kTx, 150);
  log.end(tx3, 170);
  log.end(in, 200);
  log.end(run, 250);
  CHECK(log.spans()[tx2].parent == dl);
  CHECK(log.spans()[in].parent == run);

  const std::uint32_t only_tx[] = {kTx};
  const window all{0, 1000};
  span_totals t = sum_spans(log.spans(), kNames, all, only_tx);
  CHECK(t.total[kIngress] == 100);
  CHECK(t.self[kIngress] == 70);      // minus tx1 and tx3, not the nested tx2
  CHECK(t.total[kTx] == 32);
  CHECK(t.calls[kTx] == 3);
  CHECK(t.self[kDelivery] == 8);      // minus its own tx child
  CHECK(t.self[kRun] == 200);         // ingress is not a tx child

  t = sum_spans(log.spans(), kNames, all);
  CHECK(t.self[kIngress] == 60);      // every direct child subtracted
  CHECK(t.self[kRun] == 100);
  // Self times of every layer add back up to the root span.
  CHECK(t.self[kRun] + t.self[kIngress] + t.self[kDelivery] + t.total[kTx] == 200);

  // Clipping: only the part of each span inside the window counts.
  t = sum_spans(log.spans(), kNames, window{125, 160}, only_tx);
  CHECK(t.total[kIngress] == 35);
  CHECK(t.self[kIngress] == 35 - 5 - 10);
  CHECK(t.calls[kIngress] == 0);      // started before the window
  CHECK(t.calls[kTx] == 2);

  // Overlapping children are subtracted once (their union).
  span_log ov;
  const auto p = ov.begin(kIngress, 0);
  const auto a = ov.begin(kTx, 10);
  ov.end(a, 40);
  ov.end(p, 100);
  std::vector<span> spans = ov.spans();
  spans.push_back(span{kTx, p, 30, 60, 0});
  t = sum_spans(spans, kNames, all, only_tx);
  CHECK(t.self[kIngress] == 50);
}

void test_span_capacity() {
  span_log log(2);
  const auto a = log.begin(0, 10);
  const auto b = log.begin(1, 11);
  const auto c = log.begin(1, 12);  // does not fit
  CHECK(c == -1);
  CHECK(log.full_at() == 12);
  log.end(c, 13);
  log.set_tag(c, 5);
  log.end(b, 14);
  log.end(a, 20);
  CHECK(log.spans().size() == 2);
  CHECK(log.spans()[1].end == 14);
  CHECK(log.spans()[0].end == 20);
  CHECK(span_log(4).full_at() == 0);
}

void test_udp_drops() {
  const char* text =
      "   sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode ref pointer drops\n"
      "  123: 0100007F:1F90 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 41234 2 0000000000000000 5\n"
      "  456: 0100007F:9C41 0100007F:1F90 01 00000000:00000300 00:00000000 00000000  1000        0 41235 2 0000000000000000 0\n"
      "  789: 00000000:1F90 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 41236 2 0000000000000000 17\n"
      "garbage line\n";
  CHECK(udp_drops(text, 8080) == 22u);   // two sockets bound to 8080
  CHECK(udp_drops(text, 0x9C41) == 0u);  // matched, nothing dropped
  CHECK(!udp_drops(text, 9999).has_value());
  CHECK(!udp_drops("", 8080).has_value());
}

void test_cpu_steal() {
  const char* text =
      "cpu  1615953 0 858695 1743436 781 0 252084 45497 0 0\n"
      "cpu0 176510 0 26806 890469 289 0 33468 25131 0 0\n"
      "cpu1 578819 0 161698 243566 162 0 133148 2927 0 0\n"
      "cpu12 1 2 3 4 5 6 7 99 0 0\n"
      "cpu3 1 2 3\n"
      "intr 92560261 0 0\n";
  CHECK(cpu_steal(text, 0) == 25131u);
  CHECK(cpu_steal(text, 1) == 2927u);
  CHECK(cpu_steal(text, 12) == 99u);       // not confused with cpu1
  CHECK(!cpu_steal(text, 2).has_value());  // no such CPU
  CHECK(!cpu_steal(text, 3).has_value());  // too few columns
}

void test_paced_schedule() {
  CHECK(paced_due_ns(0, 20000) == 0);
  CHECK(paced_due_ns(1, 20000) == 50000);
  CHECK(paced_due_count(0, 20000) == 1);
  CHECK(paced_due_count(49999, 20000) == 1);
  CHECK(paced_due_count(50000, 20000) == 2);
  // No drift: an hour at 20k/s lands exactly on the hour.
  CHECK(paced_due_ns(20000ull * 3600, 20000) == 3600ull * 1000000000ull);
  // Rates that do not divide 1e9 still meet exactly every second.
  CHECK(paced_due_ns(1, 3) == 333333333);
  CHECK(paced_due_ns(3, 3) == 1000000000);
  for (std::uint64_t rate : {3ull, 7000ull, 20000ull, 1000003ull}) {
    for (std::uint64_t i = 1; i < 5000; i += 7) {
      const std::uint64_t due = paced_due_ns(i, rate);
      CHECK(paced_due_count(due, rate) == i + 1);  // packet i is due at its time
      CHECK(paced_due_count(due - 1, rate) <= i);  // and not a nanosecond before
      CHECK(paced_due_ns(i - 1, rate) <= due);
    }
  }
}

void test_payload() {
  const payload_source src(42);
  std::vector<std::uint8_t> p(576);
  src.fill(1234, 7, p);
  CHECK(payload_source::seq_of(p) == 1234);
  CHECK(payload_source::flow_of(p) == 7);
  CHECK(src.check(p));
  p[300] ^= 1;
  CHECK(!src.check(p));
  p[300] ^= 1;
  CHECK(!payload_source(43).check(p));  // another seed expects other bytes
  p[0] ^= 1;                            // and so does another seq
  CHECK(!src.check(p));
  CHECK(!src.check(std::vector<std::uint8_t>(8)));  // shorter than the header

  std::size_t n64 = 0, n576 = 0, n1200 = 0;
  const std::size_t n = 120000;
  for (std::uint64_t seq = 0; seq < n; ++seq) {
    const std::size_t s = imix_size(9, seq);
    n64 += s == 64;
    n576 += s == 576;
    n1200 += s == 1200;
  }
  CHECK(n64 + n576 + n1200 == n);
  CHECK(near(static_cast<double>(n64) / n, 7.0 / 12, 0.01));
  CHECK(near(static_cast<double>(n576) / n, 4.0 / 12, 0.01));
  CHECK(near(static_cast<double>(n1200) / n, 1.0 / 12, 0.01));
}

}  // namespace

int main() {
  test_tail_percentile();
  test_histogram();
  test_self_time();
  test_span_capacity();
  test_udp_drops();
  test_cpu_steal();
  test_paced_schedule();
  test_payload();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("bench_math_test: all checks passed\n");
  return 0;
}

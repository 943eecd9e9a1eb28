// Metrics: lock-free handles over an interning registry.
//
// Call sites resolve a counter&/gauge&/histogram& ONCE (at service or
// module init, or via intern()) and hot paths then touch only relaxed
// atomics — the registry mutex is never on the packet path. Labeled
// families share one family name with distinct label sets
// (sn.rx.pkts{service="odns"}); sharded_counter stripes contended
// counters across cache lines. The registry renders a deterministic
// human report plus Prometheus-text and JSON expositions.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace interedge {

class counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Point-in-time value (queue depths, cache occupancy, in-flight windows).
// Signed so transient dips below a baseline don't wrap.
class gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d = 1) { value_.fetch_add(d, std::memory_order_relaxed); }
  void sub(std::int64_t d = 1) { value_.fetch_sub(d, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

// Cache-line-striped counter for paths hammered from several threads at
// once: each thread lands on its own shard, so adds never contend on one
// line; value() folds the stripes.
class sharded_counter {
 public:
  static constexpr std::size_t kShards = 16;  // power of two

  void add(std::uint64_t n = 1) {
    shards_[shard_index() & (kShards - 1)].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const;
  void reset();

 private:
  struct alignas(64) shard {
    std::atomic<std::uint64_t> v{0};
  };
  static std::size_t shard_index();
  std::array<shard, kShards> shards_{};
};

// HDR-style log-linear histogram over nanosecond values: 64 base-2 tiers,
// 16 linear sub-buckets each. Bounded relative error ~6%.
class histogram {
 public:
  static constexpr int kSubBits = 4;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr std::size_t kBucketCount = 64 * kSub;

  void record(std::uint64_t value_ns);
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;
  // q in [0,1]; returns bucket midpoint. Safe against concurrent record():
  // if the bucket scan runs out before reaching the target rank (counts
  // racing), it answers with the last populated bucket's midpoint.
  std::uint64_t quantile(double q) const;
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  void reset();

  // Bucketwise accumulation of another histogram's contents (per-shard
  // exposition merging). Safe against concurrent record() on either side;
  // the merged view is a consistent-enough snapshot for reporting.
  void merge_from(const histogram& other);

  // Raw bucket access for window differencing (timeseries rollups): the
  // count in bucket `idx` and the representative value the bucket stands
  // for. Reads race record() benignly — a window delta is a snapshot, not
  // an invariant.
  std::uint64_t bucket_value(std::size_t idx) const {
    return buckets_[idx].load(std::memory_order_relaxed);
  }
  static std::uint64_t bucket_midpoint(std::size_t idx) { return bucket_mid(idx); }

 private:
  static std::size_t bucket_of(std::uint64_t v);
  static std::uint64_t bucket_mid(std::size_t idx);
  std::array<std::atomic<std::uint64_t>, 64 * kSub> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

// Stable handle for an interned metric. Ids are dense and never recycled.
using metric_id = std::uint32_t;
inline constexpr metric_id kInvalidMetricId = 0xffffffffu;

enum class metric_kind : std::uint8_t { counter, gauge, histogram, sharded_counter };
const char* metric_kind_name(metric_kind k);

// Sorted-by-key label set, e.g. {{"service", "odns"}}.
using label_list = std::vector<std::pair<std::string, std::string>>;

// One exported data point (rate tracking, coverage tests).
struct metric_sample {
  std::string key;   // family name + rendered labels: sn.rx.pkts{service="odns"}
  std::string name;  // family name alone
  metric_kind kind = metric_kind::counter;
  double value = 0;  // counter/gauge/sharded value; histogram count
};

// Named registry. Interning (name, labels, kind) yields a stable id and a
// stable object address; handle-holding call sites never re-enter the
// registry on the hot path.
class metrics_registry {
 public:
  // Interning: idempotent (kind, name, labels) -> metric_id.
  metric_id intern(metric_kind kind, const std::string& name, const label_list& labels = {});

  // Handle resolution; resolve once, keep the reference.
  counter& get_counter(const std::string& name, const label_list& labels = {});
  gauge& get_gauge(const std::string& name, const label_list& labels = {});
  histogram& get_histogram(const std::string& name, const label_list& labels = {});
  sharded_counter& get_sharded_counter(const std::string& name, const label_list& labels = {});

  // Id -> object (reporting and trace plumbing; takes the registry lock).
  counter& counter_at(metric_id id);
  gauge& gauge_at(metric_id id);
  histogram& histogram_at(metric_id id);
  sharded_counter& sharded_counter_at(metric_id id);

  std::size_t size() const;
  // Distinct family names, sorted.
  std::vector<std::string> family_names() const;
  // Every registered metric as a point sample, sorted by key.
  std::vector<metric_sample> samples() const;

  // Visits every histogram entry as (rendered key, histogram&) under the
  // registry lock — the timeseries tick diffs raw buckets this way instead
  // of round-tripping through point samples.
  void for_each_histogram(
      const std::function<void(const std::string& key, const histogram& h)>& fn) const;

  // Accumulates every metric of `other` into this registry, interning
  // families on demand: counters/gauges/sharded counters add their values,
  // histograms merge bucketwise. Merging N per-thread registries into a
  // fresh one yields one exposition view without ever sharing hot-path
  // metric objects across threads.
  void merge_from(const metrics_registry& other);

  // Deterministic human-readable dump: counters, gauges and sharded
  // counters first (sorted by key), then histograms with quantiles.
  std::string report() const;
  // Prometheus text exposition ('.' -> '_'; histograms as summaries).
  std::string export_prometheus() const;
  std::string export_json() const;

 private:
  struct entry {
    metric_kind kind;
    std::string name;
    label_list labels;
    std::string key;  // rendered name{labels}
    std::unique_ptr<counter> c;
    std::unique_ptr<gauge> g;
    std::unique_ptr<histogram> h;
    std::unique_ptr<sharded_counter> s;
    double scalar_value() const;
  };

  const entry& at(metric_id id) const;
  // Entries sorted by (key, kind) for deterministic exposition.
  std::vector<const entry*> sorted_entries_locked() const;

  mutable std::mutex mu_;
  std::deque<entry> entries_;               // deque: stable addresses
  std::map<std::string, metric_id> index_;  // key + kind tag -> id
};

// Renders name{k="v",...}; labels are emitted in the given order.
std::string render_metric_key(const std::string& name, const label_list& labels);

// Successive-snapshot rate computation for periodic stats reporting: each
// delta_report() call renders current values plus per-second rates of the
// monotone kinds (counter, sharded_counter, histogram count) since the
// previous call.
class stats_reporter {
 public:
  std::string delta_report(const metrics_registry& reg, double elapsed_seconds);

 private:
  std::map<std::string, double> prev_;
};

}  // namespace interedge

// Clock abstraction: production code takes a `clock&` so integration tests
// and the network simulator can drive virtual time deterministically.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace interedge {

using nanoseconds = std::chrono::nanoseconds;
using time_point = std::chrono::time_point<std::chrono::steady_clock, nanoseconds>;

class clock {
 public:
  virtual ~clock() = default;
  virtual time_point now() const = 0;
};

// Wall-clock-backed monotonic clock for benchmarks and examples.
class real_clock final : public clock {
 public:
  time_point now() const override;
  // Process-wide instance; real_clock is stateless.
  static real_clock& instance();
};

// Manually advanced clock for unit tests and the simulator. The tick is
// stored in a relaxed atomic: other threads may read the clock (e.g.
// decision-cache TTL checks) while the owning thread advances it, and a
// torn read of virtual time must not be a data race.
class manual_clock final : public clock {
 public:
  time_point now() const override {
    return time_point(nanoseconds(ns_.load(std::memory_order_relaxed)));
  }
  void advance(nanoseconds d) { ns_.fetch_add(d.count(), std::memory_order_relaxed); }
  void set(time_point t) {
    ns_.store(t.time_since_epoch().count(), std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> ns_{0};
};

}  // namespace interedge

// Single-producer single-consumer lock-free ring buffer.
//
// This is the "shared memory ring" transport the paper contrasts with its
// IPC prototype ("e.g., as if we implemented service communication through
// shared memory rings"): the pipe-terminus thread produces, the service
// thread consumes, with no syscalls on the hot path.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace interedge {

template <typename T>
class spsc_ring {
 public:
  // Capacity is rounded up to a power of two; usable slots = capacity - 1.
  explicit spsc_ring(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity + 1) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  spsc_ring(const spsc_ring&) = delete;
  spsc_ring& operator=(const spsc_ring&) = delete;

  bool try_push(T value) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t next = (head + 1) & mask_;
    if (next == tail_.load(std::memory_order_acquire)) return false;  // full
    slots_[head] = std::move(value);
    head_.store(next, std::memory_order_release);
    return true;
  }

  std::optional<T> try_pop() {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_.load(std::memory_order_acquire)) return std::nullopt;  // empty
    T value = std::move(slots_[tail]);
    tail_.store((tail + 1) & mask_, std::memory_order_release);
    return value;
  }

  // Batch consumer: pops up to `max` items into `out`, one acquire load and
  // one release store for the whole run. Returns the number appended.
  std::size_t try_pop_batch(std::vector<T>& out, std::size_t max) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t avail = (head - tail) & mask_;
    const std::size_t n = std::min(avail, max);
    for (std::size_t i = 0; i < n; ++i) out.push_back(std::move(slots_[(tail + i) & mask_]));
    if (n > 0) tail_.store((tail + n) & mask_, std::memory_order_release);
    return n;
  }

  bool empty() const {
    return tail_.load(std::memory_order_acquire) == head_.load(std::memory_order_acquire);
  }

  std::size_t capacity() const { return mask_; }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::atomic<std::size_t> tail_{0};
};

}  // namespace interedge

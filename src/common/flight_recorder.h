// Black-box flight recorder (ISSUE 7): a lock-free ring of recent spans,
// verdicts and lifecycle events that freezes at the moment a fault fires,
// so every peer-down, failover, shed watermark or SLO page comes with a
// postmortem of what the node was doing right before it.
//
// Write side is lock-free and multi-producer: a writer claims a ticket
// with one fetch_add and publishes into slot (ticket & mask) under a
// seqlock-style generation — the slot's sequence goes odd (2t+1) before
// the payload words are stored and even (2t+2, release) after. The odd
// mark is a compare-exchange from an older even generation, so two
// writers a whole lap apart can never interleave their words in one slot:
// a writer that finds the slot mid-write or already holding a newer lap
// leaves it alone (its event counts as recorded and then overwritten,
// which a newer lap does to it anyway). Every slot word is an atomic, so
// a reader racing a writer is a benign data race to the language (no UB,
// TSan-clean); the reader validates that a slot's sequence is even and
// unchanged across its read and simply skips slots caught mid-overwrite. Recording costs a handful of relaxed stores —
// cheap enough to feed from the control thread's span drain without a
// measurable datapath tax.
//
// trigger() records the triggering event and then, if that trigger bit is
// armed, freezes the ring exactly once (atomic exchange): recording stops
// (frozen-out events are counted), the freeze hook fires on the
// triggering thread (the owner dumps JSON there), and the pre-fault tail
// stays intact until rearm().
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace interedge {

enum class fr_kind : std::uint8_t {
  span = 0,   // a drained path span (a/b/c = trace id, service, duration)
  lifecycle,  // node event: peer down, failover, rekey (code = annotations)
  alert,      // SLO state transition (code = new state, a = prev)
  trigger,    // the event that armed/fired a freeze (code = trigger bit)
  gauge,      // a sampled health gauge (a = value)
};
const char* fr_kind_name(fr_kind k);

// Trigger bits: which faults freeze the ring (config.trigger_mask) and
// which one actually fired (dump header).
inline constexpr std::uint32_t kTrigPeerDown = 1u << 0;
inline constexpr std::uint32_t kTrigFailover = 1u << 1;
inline constexpr std::uint32_t kTrigShed = 1u << 2;
inline constexpr std::uint32_t kTrigSloPage = 1u << 3;
inline constexpr std::uint32_t kTrigManual = 1u << 5;
std::string fr_trigger_names(std::uint32_t mask);

struct fr_event {
  std::uint64_t time_ns = 0;
  fr_kind kind = fr_kind::lifecycle;
  std::uint32_t code = 0;  // kind-specific discriminator (see fr_kind)
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

class flight_recorder {
 public:
  struct config {
    std::size_t capacity = 1024;  // ring slots, rounded up to a power of two
    // Which triggers freeze the ring; others still record as events.
    std::uint32_t trigger_mask =
        kTrigPeerDown | kTrigFailover | kTrigShed | kTrigSloPage | kTrigManual;
  };
  explicit flight_recorder(config cfg);

  // Lock-free, any thread. After a freeze, records are dropped (counted).
  void record(const fr_event& e);

  // Records a trigger event, then freezes the ring if `trig` is armed and
  // no earlier trigger beat it. The freeze hook (if any) runs here, on the
  // calling thread, exactly once per freeze.
  void trigger(std::uint32_t trig, std::uint64_t time_ns, std::uint64_t a = 0,
               std::uint64_t b = 0);

  // Owner's dump callback, fired inside the freezing trigger() call. Set
  // before concurrent use.
  void set_freeze_hook(std::function<void(std::uint32_t trig)> hook) {
    freeze_hook_ = std::move(hook);
  }

  bool frozen() const { return frozen_.load(std::memory_order_acquire); }
  std::uint32_t frozen_by() const { return frozen_by_.load(std::memory_order_acquire); }
  // Unfreezes and resumes recording over the existing tail.
  void rearm();

  // Stable events currently in the ring, oldest first (ticket order).
  // Slots mid-overwrite by a concurrent writer are skipped.
  std::vector<fr_event> snapshot() const;
  // The postmortem: header (frozen state, trigger, drop accounting) plus
  // every stable event.
  std::string dump_json() const;

  std::uint64_t recorded() const { return recorded_.load(std::memory_order_relaxed); }
  // Events refused because the ring was frozen.
  std::uint64_t dropped_frozen() const { return dropped_frozen_.load(std::memory_order_relaxed); }
  std::size_t capacity() const { return slots_.size(); }

 private:
  // 5 payload words: time, (kind|code), a, b, c.
  static constexpr std::size_t kWords = 5;
  struct alignas(64) slot {
    std::atomic<std::uint64_t> seq{0};  // 0 empty; 2t+1 writing; 2t+2 stable
    std::array<std::atomic<std::uint64_t>, kWords> words{};
  };

  std::vector<slot> slots_;
  std::size_t mask_;
  std::atomic<std::uint64_t> cursor_{0};
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint64_t> dropped_frozen_{0};
  std::atomic<bool> frozen_{false};
  std::atomic<std::uint32_t> frozen_by_{0};
  std::uint32_t trigger_mask_;
  std::function<void(std::uint32_t)> freeze_hook_;
};

}  // namespace interedge

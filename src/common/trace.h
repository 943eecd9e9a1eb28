// Datapath stage timing (Hermes-style per-hop cost accounting).
// A tracer owns one histogram per datapath stage plus per-stage self-time
// totals. Instrumentation sites bind to the *current* tracer through a
// thread-local (scoped_tracer), so the ilp/core layers need no plumbed-
// through telemetry parameters and pay a single TLS load + null check when
// tracing is off.
//
// Cost model (overhead budget in DESIGN.md §8): spans are batch-granular —
// two clock reads, one histogram record and one relaxed add per stage per
// batch. Per-packet detail is the path tracer's job (origin-sampled
// trace contexts, below).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/ring.h"
#include "common/trace_context.h"

namespace interedge::trace {

// The SN's datapath stages: the one vocabulary for stage histograms
// (sn.stage.<name>) and the profiler's share gauges
// (sn.profile.stage_share{stage=<name>}).
enum class stage : std::uint8_t {
  ingress = 0,  // terminus receive: cache consults, verdicts, egress
  decrypt,      // wire parse + PSP open + header decode
  slowpath,     // slow-path channel drain
  service,      // service-module on_packet dispatch
};
inline constexpr std::size_t kStageCount = 4;
const char* stage_name(stage s);

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
}

// Verdict tags carried by path spans.
inline constexpr char kVerdictForward = 'F';
inline constexpr char kVerdictDeliver = 'D';
inline constexpr char kVerdictDrop = 'X';
inline constexpr char kVerdictNone = '-';

class tracer {
 public:
  // Stage histograms are interned into `reg` as sn.stage.<name> so the
  // exposition surface covers them automatically.
  explicit tracer(metrics_registry& reg);

  histogram& stage_hist(stage s) { return *stage_hists_[static_cast<std::size_t>(s)]; }

  // Cumulative self-time of `s` in ns: span time minus the time of spans
  // nested inside it, so the stages sum without double counting. Written
  // by the datapath thread, read by the health tick on any thread.
  std::uint64_t self_ns(stage s) const {
    return self_ns_[static_cast<std::size_t>(s)].load(std::memory_order_relaxed);
  }

  // One closed span: inclusive time into the histogram, self time into
  // the totals.
  void record(stage s, std::uint64_t inclusive_ns, std::uint64_t exclusive_ns) {
    stage_hist(s).record(inclusive_ns);
    self_ns_[static_cast<std::size_t>(s)].fetch_add(exclusive_ns, std::memory_order_relaxed);
  }

 private:
  std::array<histogram*, kStageCount> stage_hists_{};
  std::array<std::atomic<std::uint64_t>, kStageCount> self_ns_{};
};

// Thread-local current tracer. Instrumentation in lower layers (pipe
// decrypt, exec_env dispatch) reads this instead of taking a tracer
// parameter through every call signature.
tracer* current();

// Installs `t` as the current tracer for the enclosing scope.
class scoped_tracer {
 public:
  explicit scoped_tracer(tracer* t);
  ~scoped_tracer();
  scoped_tracer(const scoped_tracer&) = delete;
  scoped_tracer& operator=(const scoped_tracer&) = delete;

 private:
  tracer* prev_;
};

// RAII stage span over the current tracer. Spans nest through a
// thread-local parent pointer: on close the elapsed time goes into the
// stage histogram, and the elapsed time minus the nested spans' time into
// the stage's self-time total. No-op when no tracer is current.
class span {
 public:
  explicit span(stage s);
  ~span();
  span(const span&) = delete;
  span& operator=(const span&) = delete;

 private:
  tracer* t_;
  span* parent_ = nullptr;
  stage stage_;
  std::uint64_t start_ = 0;
  std::uint64_t child_ns_ = 0;  // closed nested spans' elapsed time
};

// ---- cross-hop path tracing (ISSUE 5) ---------------------------------

// Where on the host→SN→…→SN→host path a span was emitted.
enum class span_kind : std::uint8_t {
  origin = 0,  // host stack / tunnel ingress: the trace begins here
  hop_fast,    // SN fast-path verdict (decision-cache hit or shed)
  hop_slow,    // SN slow-path round trip (submit → completed verdict)
  service,     // service-module dispatch on the control thread
  forward,     // one egress copy sent toward the next hop
  deliver,     // terminal delivery at the destination host
  event,       // node lifecycle event (trace_id == 0): correlated by time
};
const char* span_kind_name(span_kind k);

// Annotation bits: what the datapath did to (or around) the packet.
inline constexpr std::uint16_t kAnnoShed = 1 << 0;             // TTL'd default verdict
inline constexpr std::uint16_t kAnnoDrop = 1 << 1;             // drop verdict applied
inline constexpr std::uint16_t kAnnoPeerDown = 1 << 3;         // liveness declared a peer down
inline constexpr std::uint16_t kAnnoFailover = 1 << 4;         // standby restored a checkpoint
inline constexpr std::uint16_t kAnnoRekey = 1 << 5;            // tunnel handshake / rekey
std::string annotation_names(std::uint16_t annotations);

// One span: something that happened to one traced packet at one hop (or,
// with trace_id == 0, a node event the collector correlates by time).
struct path_span {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;
  std::uint64_t node = 0;
  std::uint64_t connection = 0;
  std::uint32_t service = 0;
  std::uint8_t hop_count = 0;
  span_kind kind = span_kind::origin;
  char verdict = kVerdictNone;
  std::uint16_t annotations = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
};

// Per-thread span sink: the emitting thread (an SN, a host stack) is the
// single producer; the draining thread (the collector's owner) is the
// single consumer. Emission
// into a full ring is a counted drop, never a block — tracing must not
// create backpressure.
//
// Timestamps come from the injected clock so simnet runs produce
// deterministic virtual-time spans; a null clock falls back to now_ns()
// (steady_clock) for real deployments.
class path_recorder {
 public:
  struct config {
    std::uint64_t node = 0;           // stamped into spans and id allocation
    std::uint32_t sample_shift = 8;   // origin sampling: 1 in 2^shift
    std::size_t capacity = 1024;      // span ring slots (rounded to pow2)
    const clock* clk = nullptr;       // span timestamps; null = steady_clock
  };
  explicit path_recorder(config cfg);

  // Origin-side sampling decision (deterministic: every 2^k-th call).
  // Mid-path hops never call this: they honor the sampled bit the origin
  // stamped into the context.
  bool sample_tick() {
    return (seq_.fetch_add(1, std::memory_order_relaxed) & sample_mask_) == 0;
  }

  std::uint64_t now() const {
    if (cfg_.clk != nullptr) {
      return static_cast<std::uint64_t>(cfg_.clk->now().time_since_epoch().count());
    }
    return now_ns();
  }

  // Node-scoped unique ids (never 0). Trace ids mix the node id so
  // concurrent origins across a deployment cannot collide; both are
  // deterministic for a fixed call sequence (simnet replay).
  std::uint64_t new_trace_id();
  std::uint64_t next_span_id();

  // Producer side (single thread). A full ring counts a drop.
  void emit(path_span s);

  // Consumer side (single thread): moves up to `max` spans into `out`.
  std::size_t drain(std::vector<path_span>& out, std::size_t max = 256);

  std::uint64_t emitted() const { return emitted_.load(std::memory_order_relaxed); }
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  std::uint64_t node() const { return cfg_.node; }

 private:
  config cfg_;
  std::uint64_t sample_mask_;
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint64_t> span_seq_{0};
  std::atomic<std::uint64_t> emitted_{0};
  std::atomic<std::uint64_t> dropped_{0};
  spsc_ring<path_span> ring_;
};

}  // namespace interedge::trace

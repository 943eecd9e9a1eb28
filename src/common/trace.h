// Per-hop packet tracing (ISSUE 2; Hermes-style per-hop latency
// accounting). A tracer owns one histogram per datapath stage plus a ring
// buffer of recent sampled per-packet records. Instrumentation sites bind
// to the *current* tracer through a thread-local (scoped_tracer), so the
// ilp/core layers need no plumbed-through telemetry parameters and pay a
// single TLS load + null check when tracing is off.
//
// Cost model (overhead budget in DESIGN.md §8):
//   * batch-granularity stage spans — a handful of clock reads per batch;
//   * one relaxed fetch_add per packet for the deterministic sampler;
//   * full per-packet stage timestamps and ring captures only for sampled
//     packets (1 in 2^sample_shift, default 1/256).
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

enum class stage : std::uint8_t {
  ingress = 0,  // terminus receive batch: cache consults, verdicts, drain
  parse,        // wire-format parse + header decode
  decrypt,      // PSP open of the sealed ILP headers
  cache,        // decision-cache lookup
  emit,         // fast-path verdict apply (forward/deliver/drop)
  slowpath,     // slow-path channel drain
  service,      // service-module on_packet dispatch
};
inline constexpr std::size_t kStageCount = 7;
const char* stage_name(stage s);

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
}

// Verdict tags for sampled records.
inline constexpr char kVerdictForward = 'F';
inline constexpr char kVerdictDeliver = 'D';
inline constexpr char kVerdictDrop = 'X';
inline constexpr char kVerdictNone = '-';

// One sampled measurement: stage `st` on hop `hop` took `duration_ns`,
// nested `depth` spans deep, for sampled packet number `seq`.
struct trace_record {
  std::uint64_t seq = 0;
  std::uint64_t hop = 0;
  stage st = stage::ingress;
  std::uint8_t depth = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  char verdict = kVerdictNone;
};

class tracer {
 public:
  struct config {
    std::uint64_t hop = 0;            // node id stamped into records
    std::uint32_t sample_shift = 8;   // sample 1 in 2^shift packets
    std::size_t ring_capacity = 512;  // rounded up to a power of two
  };

  // Stage histograms are interned into `reg` as sn.stage.<name> so the
  // exposition surface covers them automatically.
  explicit tracer(metrics_registry& reg);
  tracer(metrics_registry& reg, config cfg);

  // Deterministic sampler: advances the packet sequence and reports
  // whether this packet is traced (every 2^sample_shift-th, starting at 0).
  bool sample_tick() {
    return (seq_.fetch_add(1, std::memory_order_relaxed) & sample_mask_) == 0;
  }

  // Batch form: claims `n` consecutive sequence numbers with one atomic
  // and returns the first; test each packet with sample_hit(base + i).
  std::uint64_t sample_tick_batch(std::uint64_t n) {
    return seq_.fetch_add(n, std::memory_order_relaxed);
  }
  bool sample_hit(std::uint64_t seq) const { return (seq & sample_mask_) == 0; }

  histogram& stage_hist(stage s) { return *stage_hists_[static_cast<std::size_t>(s)]; }
  void record_stage(stage s, std::uint64_t duration_ns) { stage_hist(s).record(duration_ns); }

  // Pushes a sampled per-packet record into the ring (lock-free, may
  // overwrite the oldest record under wrap).
  void capture(stage s, std::uint64_t start_ns, std::uint64_t duration_ns,
               char verdict = kVerdictNone);

  // Most-recent-first copy of the ring (bounded by capacity). Records that
  // wrapped out of the ring between reads are accounted in
  // dropped_records() and warned about (once per wrap burst) rather than
  // vanishing silently.
  std::vector<trace_record> recent(std::size_t limit = 0) const;
  // Human-readable dump of recent records, one per line.
  std::string dump(std::size_t limit = 32) const;

  std::uint64_t packets_seen() const { return seq_.load(std::memory_order_relaxed); }
  std::uint64_t sampled() const { return captures_.load(std::memory_order_relaxed); }
  // Captures that wrapped past a reader without ever appearing in a
  // recent() export (cumulative; see recent()).
  std::uint64_t dropped_records() const {
    return dropped_records_.load(std::memory_order_relaxed);
  }
  std::uint64_t hop() const { return hop_; }

 private:
  std::uint64_t hop_;
  std::uint64_t sample_mask_;
  std::array<histogram*, kStageCount> stage_hists_{};
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint64_t> captures_{0};  // ring sequence
  std::vector<trace_record> ring_;
  std::size_t ring_mask_;
  // Export-side accounting (mutable: recent() is logically const). The
  // read mark is the capture sequence the last export reached; captures
  // beyond ring capacity since then were overwritten unread.
  mutable std::atomic<std::uint64_t> read_mark_{0};
  mutable std::atomic<std::uint64_t> dropped_records_{0};
  mutable std::atomic<bool> wrap_warned_{false};
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

// Current span-stack depth on this thread (0 outside any span).
int span_depth();

// RAII stage span over the current tracer: records elapsed nanoseconds
// into the stage histogram; with `capture`, also pushes a per-packet ring
// record at the depth the span opened at. No-op when no tracer is current.
class span {
 public:
  explicit span(stage s, bool capture = false);
  ~span();
  span(const span&) = delete;
  span& operator=(const span&) = delete;

  // Tags the ring record (fast-path verdicts); ignored without `capture`.
  void set_verdict(char v) { verdict_ = v; }

 private:
  tracer* t_;
  stage stage_;
  bool capture_;
  char verdict_ = kVerdictNone;
  std::uint8_t depth_ = 0;
  std::uint64_t start_ = 0;
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

  // Origin-side sampling decision (deterministic 1/2^k, same scheme as
  // tracer::sample_tick). Mid-path hops never call this: they honor the
  // sampled bit the origin stamped into the context.
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

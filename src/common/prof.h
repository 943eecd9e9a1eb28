// Continuous profiling plane (ISSUE 10): an in-process on-CPU sampling
// profiler plus rdtsc-based per-stage cycle attribution.
//
// Sampling side. Each registered thread gets a trigger that fires SIGPROF
// at `sample_hz` of *CPU time* (not wall time — an idle thread is never
// sampled). Two trigger backends, probed at arm time:
//   * perf_event  — perf_event_open(PERF_COUNT_SW_TASK_CLOCK) per thread,
//                   overflow delivered as a thread-directed SIGPROF via
//                   F_SETOWN_EX/F_SETSIG; the handler re-arms with
//                   PERF_EVENT_IOC_REFRESH(1).
//   * timer_signal— timer_create over the thread's CPU-time clock
//                   (pthread_getcpuclockid) with SIGEV_THREAD_ID. The
//                   fallback for containers where perf_event_open is
//                   denied by seccomp or perf_event_paranoid.
// Both backends capture the stack the same way: the signal handler walks
// the frame-pointer chain from the interrupted ucontext (hence the
// -fno-omit-frame-pointer release presets) into a fixed raw_sample and
// pushes it onto the thread's SPSC sample ring. The handler is strictly
// async-signal-safe: TLS load, bounded pointer walk with stack-bounds
// validation, atomics + memcpy into preallocated ring slots, one ioctl.
// No malloc, no locks, no formatting. A full ring is a counted drop.
//
// The control thread drains the rings into an aggregated stack table
// (raw PCs; symbolization via prof_symbolize is deferred to export) and
// renders FlameGraph-collapsed folded text, JSON, and a top-N hot
// function table.
//
// Attribution side. cycle_scope{stage} is a batch-granularity RAII rdtsc
// bracket over the three datapath stages (decrypt, terminus, slow-path;
// egress seal and send run inside terminus). Scopes nest: a child's cycles are subtracted from
// its parent, so per-stage totals are self-time and sum without double
// counting. Totals land in a thread-local cycle_set (installed with
// scoped_cycle_set, mirroring trace::scoped_tracer) that the health tick
// folds into per-stage cycle-share gauges — the cheap cross-check for
// what the sampled stacks say.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace interedge::prof {

// ---- rdtsc cycle attribution -------------------------------------------

enum class cycle_stage : std::uint8_t {
  decrypt = 0,  // PSP open of sealed ILP headers (batch)
  terminus,     // verdict dispatch over the decrypted batch, egress included
  slowpath,     // slow-path channel drain + service dispatch
};
inline constexpr std::size_t kCycleStageCount = 3;
const char* cycle_stage_name(cycle_stage s);

inline std::uint64_t rdtsc() {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#elif defined(__aarch64__)
  std::uint64_t v;
  asm volatile("mrs %0, cntvct_el0" : "=r"(v));
  return v;
#else
  return 0;
#endif
}

// Per-thread stage cycle totals. Writers are the owning thread's
// cycle_scopes; the health tick reads cross-thread, so the slots are
// relaxed atomics (free on x86, and keeps tsan honest).
struct cycle_set {
  std::array<std::atomic<std::uint64_t>, kCycleStageCount> self{};

  void add(cycle_stage s, std::uint64_t cycles) {
    self[static_cast<std::size_t>(s)].fetch_add(cycles, std::memory_order_relaxed);
  }
  std::uint64_t total() const {
    std::uint64_t t = 0;
    for (const auto& v : self) t += v.load(std::memory_order_relaxed);
    return t;
  }
};

// Thread-local ambient cycle set (same pattern as trace::current()).
cycle_set* cycle_current();

class scoped_cycle_set {
 public:
  explicit scoped_cycle_set(cycle_set* s);
  ~scoped_cycle_set();
  scoped_cycle_set(const scoped_cycle_set&) = delete;
  scoped_cycle_set& operator=(const scoped_cycle_set&) = delete;

 private:
  cycle_set* prev_;
};

// RAII rdtsc bracket attributing self-time to `s` on the current thread's
// cycle_set. Nesting-aware: on close, the elapsed cycles minus any nested
// scopes' cycles are credited to this stage, and the full elapsed span is
// reported up to the parent scope as child time. ~4 ns/pair; intended at
// batch granularity only (see DESIGN.md §15 for the budget math).
class cycle_scope {
 public:
  explicit cycle_scope(cycle_stage s);
  ~cycle_scope();
  cycle_scope(const cycle_scope&) = delete;
  cycle_scope& operator=(const cycle_scope&) = delete;

 private:
  cycle_set* set_;
  cycle_scope* parent_;
  cycle_stage stage_;
  std::uint64_t start_ = 0;
  std::uint64_t child_ = 0;
};

// ---- sampling profiler -------------------------------------------------

inline constexpr std::size_t kMaxFrames = 48;
inline constexpr std::size_t kMaxThreads = 64;
inline constexpr std::size_t kThreadNameLen = 16;

// One captured stack: raw return addresses, innermost first.
struct raw_sample {
  std::uint32_t depth = 0;
  std::uintptr_t pc[kMaxFrames];
};

// Fixed-capacity SPSC ring for raw samples. Producer is the signal
// handler (push is wait-free: two atomic loads, a memcpy into a
// preallocated slot, one release store); consumer is the drain thread.
// Full ring = counted drop, never a block.
class sample_ring {
 public:
  explicit sample_ring(std::size_t slots);  // rounded up to a power of two

  bool try_push(const raw_sample& s);  // async-signal-safe
  bool try_pop(raw_sample& out);

  std::uint64_t pushed() const { return pushed_.load(std::memory_order_relaxed); }
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  std::size_t capacity() const { return mask_ + 1; }
  void reset();

 private:
  std::size_t mask_;
  std::unique_ptr<raw_sample[]> slots_;
  alignas(64) std::atomic<std::size_t> head_{0};  // producer writes
  alignas(64) std::atomic<std::size_t> tail_{0};  // consumer writes
  std::atomic<std::uint64_t> pushed_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

enum class backend : std::uint8_t {
  none = 0,      // disarmed
  perf_event,    // perf_event_open overflow signals
  timer_signal,  // timer_create over the thread CPU clock
};
const char* backend_name(backend b);

struct profiler_config {
  // Samples per second of per-thread CPU time. 0 constructs a disarmed
  // profiler (register/drain are no-ops that keep call sites branch-free).
  // Prime default so the sampler can't phase-lock with periodic work.
  std::uint32_t sample_hz = 97;
  std::size_t ring_slots = 256;    // per-thread sample ring
  std::size_t max_stacks = 2048;   // aggregated stack table cap
  bool force_timer = false;        // skip the perf_event probe (tests)
};

// Aggregated (folded) stacks: one entry per distinct (thread, PC chain).
struct folded_stack {
  std::string thread;                // registering thread's name
  std::vector<std::uintptr_t> pcs;   // innermost first, as captured
  std::uint64_t count = 0;
};

// One row of the top-N hot-function table: leaf-attributed sample counts.
struct hot_function {
  std::string name;
  std::uint64_t self = 0;   // samples with this function on top
  std::uint64_t total = 0;  // samples with it anywhere on the stack
};

// The profiler instance. One per service node (or per tool run). All
// methods except register_current_thread/unregister_current_thread are
// control-thread-side; the signal handler never touches this object.
class profiler {
 public:
  explicit profiler(profiler_config cfg);
  ~profiler();
  profiler(const profiler&) = delete;
  profiler& operator=(const profiler&) = delete;

  // Binds the calling thread to a sample ring under `name` (truncated to
  // 15 chars). If the profiler is armed, the thread's trigger starts
  // immediately; otherwise it starts at arm(). Returns false when the
  // profiler is disarmed-by-config (sample_hz == 0), the global slot pool
  // is exhausted, or the thread is already registered.
  bool register_current_thread(const char* name);
  // Must run on the registered thread (clears its TLS binding before the
  // trigger is torn down, so a late-pending SIGPROF finds a null slot).
  void unregister_current_thread();

  // Starts/stops triggers for every registered thread. arm() probes
  // perf_event on first use and falls back to the CPU-clock timer; the
  // chosen backend is sticky for the profiler's lifetime.
  bool arm();
  void disarm();
  bool armed() const { return armed_.load(std::memory_order_acquire); }
  backend active_backend() const { return backend_; }

  // Moves every ring's pending samples into the aggregated stack table.
  // Control-thread side; cheap when nothing was sampled. Returns samples
  // consumed.
  std::size_t drain();

  // FlameGraph-collapsed text: "thread;outer;…;leaf count\n" per stack,
  // root-first, symbolized. Deterministically ordered (by count desc,
  // then key). Accepts flamegraph.pl / speedscope verbatim.
  std::string folded() const;
  // {"backend":…,"samples":N,"dropped":N,"stacks":[{"thread":…,
  //  "frames":[…outermost first…],"count":N},…]} — same data as folded().
  std::string export_json(std::size_t limit = 0) const;
  // Top-N functions by leaf (self) samples.
  std::vector<hot_function> top_functions(std::size_t n) const;
  // Hot-stack table for postmortem embedding: JSON array (possibly "[]")
  // of the top-`n` stacks by count. Never blocks on sampling state; takes
  // only the profiler's own aggregation mutex.
  std::string hot_stacks_json(std::size_t n) const;

  // Aggregated raw view (tests).
  std::vector<folded_stack> stacks() const;
  std::uint64_t total_samples() const { return total_samples_.load(std::memory_order_relaxed); }
  // Ring-full drops + stack-table-cap drops, summed.
  std::uint64_t total_dropped() const;
  std::size_t registered_threads() const;

  const profiler_config& config() const { return cfg_; }

 private:
  struct table_entry {
    std::uint32_t thread_slot = 0;
    std::uint32_t depth = 0;
    std::uintptr_t pc[kMaxFrames];
    std::uint64_t count = 0;
  };

  bool start_trigger_locked(std::size_t slot_idx);
  void stop_trigger_locked(std::size_t slot_idx);
  void fold_sample_locked(std::uint32_t slot_idx, const raw_sample& s);

  profiler_config cfg_;
  backend backend_ = backend::none;
  std::atomic<bool> armed_{false};

  mutable std::mutex mu_;  // slots bookkeeping + stack table (never in handler)
  std::vector<std::uint32_t> my_slots_;  // indices into the global slot pool
  std::vector<table_entry> table_;
  std::vector<std::uint32_t> hash_index_;  // open-addressed index into table_
  std::atomic<std::uint64_t> total_samples_{0};
  std::uint64_t table_overflow_ = 0;
  std::uint64_t drained_drops_ = 0;  // ring drops folded in at unregister
};

// Renders stacks as FlameGraph-collapsed text (exposed for tests and the
// drain-side tooling; profiler::folded() uses it).
std::string render_folded(const std::vector<folded_stack>& stacks);

}  // namespace interedge::prof

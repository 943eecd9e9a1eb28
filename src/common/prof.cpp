#include "common/prof.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <sstream>

#include "common/prof_symbolize.h"

#ifdef __linux__
#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>
#if defined(__has_include)
#if __has_include(<linux/perf_event.h>)
#include <linux/perf_event.h>
#define INTEREDGE_HAVE_PERF_EVENT 1
#endif
#endif
#ifndef SIGEV_THREAD_ID
#define SIGEV_THREAD_ID 4
#endif
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif
#include <cerrno>
#endif  // __linux__

namespace interedge::prof {

const char* backend_name(backend b) {
  switch (b) {
    case backend::none: return "none";
    case backend::perf_event: return "perf_event";
    case backend::timer_signal: return "timer_signal";
  }
  return "?";
}

// ---- sample ring -------------------------------------------------------

namespace {
std::size_t pow2_at_least(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

sample_ring::sample_ring(std::size_t slots)
    : mask_(pow2_at_least(std::max<std::size_t>(slots, 2)) - 1),
      slots_(new raw_sample[mask_ + 1]) {}

bool sample_ring::try_push(const raw_sample& s) {
  std::size_t head = head_.load(std::memory_order_relaxed);
  std::size_t tail = tail_.load(std::memory_order_acquire);
  if (head - tail > mask_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  raw_sample& slot = slots_[head & mask_];
  slot.depth = s.depth;
  std::memcpy(slot.pc, s.pc, sizeof(std::uintptr_t) * s.depth);
  head_.store(head + 1, std::memory_order_release);
  pushed_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool sample_ring::try_pop(raw_sample& out) {
  std::size_t tail = tail_.load(std::memory_order_relaxed);
  std::size_t head = head_.load(std::memory_order_acquire);
  if (tail == head) return false;
  const raw_sample& slot = slots_[tail & mask_];
  out.depth = std::min<std::uint32_t>(slot.depth, kMaxFrames);
  std::memcpy(out.pc, slot.pc, sizeof(std::uintptr_t) * out.depth);
  tail_.store(tail + 1, std::memory_order_release);
  return true;
}

void sample_ring::reset() {
  tail_.store(head_.load(std::memory_order_acquire), std::memory_order_release);
  pushed_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

// ---- global thread-slot pool + signal handler --------------------------

#ifdef __linux__

namespace {

// One slot per profiled thread, claimed at registration. The pool is a
// process-global static so a SIGPROF pending across profiler teardown can
// never chase freed memory: slots (and their rings) outlive every
// profiler; `active` gates the handler off released slots.
struct thread_slot {
  std::atomic<bool> in_use{false};
  std::atomic<bool> active{false};  // trigger armed; handler gate
  sample_ring* ring = nullptr;      // allocated on first claim, reused
  std::size_t ring_slots = 0;
  char name[kThreadNameLen] = {};
  pid_t tid = 0;
  clockid_t cpu_clock{};
  std::uintptr_t stack_lo = 0;
  std::uintptr_t stack_hi = 0;
  std::atomic<int> perf_fd{-1};
  timer_t timer{};
  bool timer_armed = false;
};

thread_slot g_slots[kMaxThreads];
std::mutex g_slots_mu;  // claims/releases only; never held in the handler
thread_local thread_slot* t_slot = nullptr;

// Frame-pointer unwind from the interrupted context. Every step is
// validated — fp within [interrupted sp, stack top), pointer-aligned,
// strictly increasing — so a broken chain (leaf frame, foreign code
// without frame pointers) ends the walk instead of faulting.
void unwind_from(void* uctx, const thread_slot& slot, raw_sample& out) {
  auto* uc = static_cast<ucontext_t*>(uctx);
  std::uintptr_t pc = 0, fp = 0, sp = 0;
#if defined(__x86_64__)
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  fp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  sp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
#elif defined(__aarch64__)
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
  fp = static_cast<std::uintptr_t>(uc->uc_mcontext.regs[29]);
  sp = static_cast<std::uintptr_t>(uc->uc_mcontext.sp);
#else
  (void)uc;
#endif
  out.depth = 0;
  if (pc == 0) return;
  out.pc[out.depth++] = pc;
  std::uintptr_t hi = slot.stack_hi;
  if (hi == 0 || sp == 0) return;
  constexpr std::uintptr_t kAlign = sizeof(std::uintptr_t) - 1;
  while (out.depth < kMaxFrames) {
    if (fp < sp || fp + 2 * sizeof(std::uintptr_t) > hi || (fp & kAlign) != 0) break;
    const auto* frame = reinterpret_cast<const std::uintptr_t*>(fp);
    std::uintptr_t next_fp = frame[0];
    std::uintptr_t ret = frame[1];
    if (ret < 4096) break;  // null / near-null return: chain ended
    out.pc[out.depth++] = ret;
    if (next_fp <= fp) break;  // frames must move toward the stack base
    fp = next_fp;
  }
}

extern "C" void interedge_sigprof_handler(int, siginfo_t*, void* uctx) {
  // Async-signal-safe by construction: TLS load, bounded unwind, SPSC
  // push (atomics + memcpy into preallocated slots), one ioctl. errno is
  // preserved for the interrupted code.
  int saved_errno = errno;
  thread_slot* slot = t_slot;
  if (slot != nullptr && slot->active.load(std::memory_order_relaxed) &&
      slot->ring != nullptr) {
    raw_sample s;
    unwind_from(uctx, *slot, s);
    if (s.depth > 0) slot->ring->try_push(s);
#ifdef INTEREDGE_HAVE_PERF_EVENT
    int fd = slot->perf_fd.load(std::memory_order_relaxed);
    if (fd >= 0) ioctl(fd, PERF_EVENT_IOC_REFRESH, 1);  // re-arm one overflow
#endif
  }
  errno = saved_errno;
}

void install_handler_once() {
  static std::once_flag once;
  std::call_once(once, [] {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = interedge_sigprof_handler;
    // SA_RESTART: sampling must not surface EINTR into the datapath's
    // syscalls (that would make armed-vs-off behavior diverge).
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
  });
}

// Per-thread trigger construction (both may be called cross-thread: the
// perf fd targets `tid`, the timer targets the captured CPU clock).

#ifdef INTEREDGE_HAVE_PERF_EVENT
bool start_perf_trigger(thread_slot& slot, std::uint32_t hz) {
  struct perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = PERF_TYPE_SOFTWARE;
  attr.config = PERF_COUNT_SW_TASK_CLOCK;  // counts ns of on-CPU time
  attr.sample_period = 1000000000ull / std::max<std::uint32_t>(hz, 1);
  attr.disabled = 1;
  attr.exclude_kernel = 1;  // perf_event_paranoid=2 compatible
  attr.exclude_hv = 1;
  attr.wakeup_events = 1;
  int fd = static_cast<int>(
      syscall(SYS_perf_event_open, &attr, slot.tid, -1, -1, PERF_FLAG_FD_CLOEXEC));
  if (fd < 0) return false;
  struct f_owner_ex own;
  own.type = F_OWNER_TID;
  own.pid = slot.tid;
  if (fcntl(fd, F_SETOWN_EX, &own) != 0 || fcntl(fd, F_SETSIG, SIGPROF) != 0 ||
      fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_ASYNC) != 0) {
    close(fd);
    return false;
  }
  slot.perf_fd.store(fd, std::memory_order_release);  // handler re-arms via this
  ioctl(fd, PERF_EVENT_IOC_RESET, 0);
  ioctl(fd, PERF_EVENT_IOC_REFRESH, 1);
  return true;
}
#endif

bool start_timer_trigger(thread_slot& slot, std::uint32_t hz) {
  struct sigevent sev;
  std::memset(&sev, 0, sizeof(sev));
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = slot.tid;
  timer_t t;
  if (timer_create(slot.cpu_clock, &sev, &t) != 0) return false;
  long period_ns = 1000000000l / std::max<std::uint32_t>(hz, 1);
  struct itimerspec its;
  its.it_interval.tv_sec = period_ns / 1000000000l;
  its.it_interval.tv_nsec = period_ns % 1000000000l;
  its.it_value = its.it_interval;
  if (timer_settime(t, 0, &its, nullptr) != 0) {
    timer_delete(t);
    return false;
  }
  slot.timer = t;
  slot.timer_armed = true;
  return true;
}

void stop_trigger(thread_slot& slot) {
  slot.active.store(false, std::memory_order_release);
#ifdef INTEREDGE_HAVE_PERF_EVENT
  int fd = slot.perf_fd.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) close(fd);
#endif
  if (slot.timer_armed) {
    timer_delete(slot.timer);
    slot.timer_armed = false;
  }
}

// Probe whether perf_event_open works here (seccomp, perf_event_paranoid,
// missing kernel support all land in the fallback).
bool perf_event_available() {
#ifdef INTEREDGE_HAVE_PERF_EVENT
  struct perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = PERF_TYPE_SOFTWARE;
  attr.config = PERF_COUNT_SW_TASK_CLOCK;
  attr.sample_period = 10000000;
  attr.disabled = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  int fd = static_cast<int>(syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0));
  if (fd < 0) return false;
  close(fd);
  return true;
#else
  return false;
#endif
}

}  // namespace

#endif  // __linux__

// ---- profiler ----------------------------------------------------------

namespace {

std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed ^ 14695981039346656037ull;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

void json_escape_into(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

// Folded frames must not contain the folded format's own separators.
std::string sanitize_frame(std::string name) {
  for (char& c : name) {
    if (c == ';' || c == '\n' || c == '\r') c = ':';
  }
  return name;
}

}  // namespace

profiler::profiler(profiler_config cfg) : cfg_(cfg) {
  table_.reserve(std::min<std::size_t>(cfg_.max_stacks, 4096));
  hash_index_.assign(pow2_at_least(std::max<std::size_t>(cfg_.max_stacks * 2, 16)),
                     0xffffffffu);
}

profiler::~profiler() {
#ifdef __linux__
  disarm();
  std::lock_guard<std::mutex> pool_lock(g_slots_mu);
  std::lock_guard<std::mutex> lock(mu_);
  for (std::uint32_t idx : my_slots_) {
    // Rings stay allocated (a stale TLS binding on a thread that never
    // unregistered must never chase freed memory); the slot itself is
    // returned to the pool.
    g_slots[idx].in_use.store(false, std::memory_order_release);
  }
  my_slots_.clear();
#endif
}

#ifdef __linux__

bool profiler::register_current_thread(const char* name) {
  if (cfg_.sample_hz == 0) return false;
  if (t_slot != nullptr) return false;  // already registered
  install_handler_once();

  pid_t tid = static_cast<pid_t>(syscall(SYS_gettid));
  std::uintptr_t stack_lo = 0, stack_hi = 0;
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* addr = nullptr;
    std::size_t size = 0;
    if (pthread_attr_getstack(&attr, &addr, &size) == 0) {
      stack_lo = reinterpret_cast<std::uintptr_t>(addr);
      stack_hi = stack_lo + size;
    }
    pthread_attr_destroy(&attr);
  }
  clockid_t cpu_clock{};
  if (pthread_getcpuclockid(pthread_self(), &cpu_clock) != 0) {
    cpu_clock = CLOCK_THREAD_CPUTIME_ID;  // self-targeted fallback
  }

  std::lock_guard<std::mutex> pool_lock(g_slots_mu);
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t idx = kMaxThreads;
  for (std::size_t i = 0; i < kMaxThreads; ++i) {
    if (!g_slots[i].in_use.load(std::memory_order_acquire)) {
      idx = i;
      break;
    }
  }
  if (idx == kMaxThreads) return false;  // pool exhausted

  thread_slot& slot = g_slots[idx];
  if (slot.ring != nullptr && slot.ring_slots != cfg_.ring_slots) {
    // Previous tenant wanted a different capacity; the old tenant fully
    // unregistered (or its profiler died, stopping the trigger), so the
    // ring is quiescent and safe to replace.
    delete slot.ring;
    slot.ring = nullptr;
  }
  if (slot.ring == nullptr) {
    slot.ring = new sample_ring(cfg_.ring_slots);
    slot.ring_slots = cfg_.ring_slots;
  } else {
    slot.ring->reset();
  }
  std::snprintf(slot.name, sizeof(slot.name), "%s", name != nullptr ? name : "thread");
  slot.tid = tid;
  slot.cpu_clock = cpu_clock;
  slot.stack_lo = stack_lo;
  slot.stack_hi = stack_hi;
  slot.in_use.store(true, std::memory_order_release);

  my_slots_.push_back(static_cast<std::uint32_t>(idx));
  t_slot = &slot;

  if (armed_.load(std::memory_order_acquire)) {
    if (!start_trigger_locked(my_slots_.size() - 1)) {
      // Trigger refused (rare: fd limit, timer limit). Stay registered —
      // the thread simply yields no samples.
      slot.active.store(false, std::memory_order_release);
    }
  }
  return true;
}

void profiler::unregister_current_thread() {
  thread_slot* slot = t_slot;
  if (slot == nullptr) return;
  {
    // Ownership gate: several profilers can coexist on one thread (a sim
    // process hosts many SNs on the driving thread; only the first one's
    // register_current_thread wins the TLS slot). An unregister from a
    // profiler that does NOT own the slot must not tear down the owner's
    // trigger or free its ring.
    std::lock_guard<std::mutex> lock(mu_);
    if (std::find(my_slots_.begin(), my_slots_.end(),
                  static_cast<std::uint32_t>(slot - g_slots)) == my_slots_.end()) {
      return;
    }
  }
  // Clear the handler's gate on this thread FIRST; any SIGPROF delivered
  // from here on finds a null slot. Sequenced on the owning thread, so no
  // handler invocation can straddle the teardown below.
  t_slot = nullptr;

  std::lock_guard<std::mutex> pool_lock(g_slots_mu);
  std::lock_guard<std::mutex> lock(mu_);
  stop_trigger(*slot);
  // Fold whatever the ring still holds so short-lived threads don't lose
  // their tail samples.
  auto idx_it = std::find(my_slots_.begin(), my_slots_.end(),
                          static_cast<std::uint32_t>(slot - g_slots));
  if (idx_it != my_slots_.end()) {
    raw_sample s;
    while (slot->ring->try_pop(s)) {
      fold_sample_locked(*idx_it, s);
      total_samples_.fetch_add(1, std::memory_order_relaxed);
    }
    drained_drops_ += slot->ring->dropped();
    my_slots_.erase(idx_it);
  }
  slot->in_use.store(false, std::memory_order_release);
}

bool profiler::arm() {
  if (cfg_.sample_hz == 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  if (armed_.load(std::memory_order_acquire)) return true;
  if (backend_ == backend::none) {
    backend_ = (!cfg_.force_timer && perf_event_available()) ? backend::perf_event
                                                             : backend::timer_signal;
  }
  bool all_ok = true;
  for (std::size_t i = 0; i < my_slots_.size(); ++i) {
    all_ok = start_trigger_locked(i) && all_ok;
  }
  armed_.store(true, std::memory_order_release);
  return all_ok;
}

void profiler::disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!armed_.load(std::memory_order_acquire)) return;
  armed_.store(false, std::memory_order_release);
  for (std::uint32_t idx : my_slots_) stop_trigger(g_slots[idx]);
}

bool profiler::start_trigger_locked(std::size_t slot_idx) {
  thread_slot& slot = g_slots[my_slots_[slot_idx]];
  bool ok = false;
#ifdef INTEREDGE_HAVE_PERF_EVENT
  if (backend_ == backend::perf_event) {
    // `active` must be on before the first overflow signal can arrive.
    slot.active.store(true, std::memory_order_release);
    ok = start_perf_trigger(slot, cfg_.sample_hz);
    if (!ok) backend_ = backend::timer_signal;  // e.g. per-thread seccomp
  }
#endif
  if (!ok && backend_ == backend::timer_signal) {
    slot.active.store(true, std::memory_order_release);
    ok = start_timer_trigger(slot, cfg_.sample_hz);
  }
  if (!ok) slot.active.store(false, std::memory_order_release);
  return ok;
}

std::size_t profiler::drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  raw_sample s;
  for (std::uint32_t idx : my_slots_) {
    sample_ring* ring = g_slots[idx].ring;
    while (ring->try_pop(s)) {
      fold_sample_locked(idx, s);
      ++n;
    }
  }
  total_samples_.fetch_add(n, std::memory_order_relaxed);
  return n;
}

std::size_t profiler::registered_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return my_slots_.size();
}

std::uint64_t profiler::total_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t d = drained_drops_ + table_overflow_;
  for (std::uint32_t idx : my_slots_) d += g_slots[idx].ring->dropped();
  return d;
}

#else  // !__linux__

bool profiler::register_current_thread(const char*) { return false; }
void profiler::unregister_current_thread() {}
bool profiler::arm() { return false; }
void profiler::disarm() {}
std::size_t profiler::drain() { return 0; }
std::size_t profiler::registered_threads() const { return 0; }
std::uint64_t profiler::total_dropped() const { return table_overflow_; }
bool profiler::start_trigger_locked(std::size_t) { return false; }

#endif  // __linux__

void profiler::fold_sample_locked(std::uint32_t slot_idx, const raw_sample& s) {
  std::uint64_t h = fnv1a(s.pc, sizeof(std::uintptr_t) * s.depth, slot_idx);
  std::size_t mask = hash_index_.size() - 1;
  std::size_t pos = static_cast<std::size_t>(h) & mask;
  for (std::size_t probe = 0; probe <= mask; ++probe, pos = (pos + 1) & mask) {
    std::uint32_t id = hash_index_[pos];
    if (id == 0xffffffffu) {
      if (table_.size() >= cfg_.max_stacks) {
        ++table_overflow_;
        return;
      }
      table_entry e;
      e.thread_slot = slot_idx;
      e.depth = s.depth;
      std::memcpy(e.pc, s.pc, sizeof(std::uintptr_t) * s.depth);
      e.count = 1;
      hash_index_[pos] = static_cast<std::uint32_t>(table_.size());
      table_.push_back(e);
      return;
    }
    table_entry& e = table_[id];
    if (e.thread_slot == slot_idx && e.depth == s.depth &&
        std::memcmp(e.pc, s.pc, sizeof(std::uintptr_t) * s.depth) == 0) {
      ++e.count;
      return;
    }
  }
  ++table_overflow_;  // index full (can't happen before the table cap)
}

std::vector<folded_stack> profiler::stacks() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<folded_stack> out;
  out.reserve(table_.size());
  for (const auto& e : table_) {
    folded_stack f;
#ifdef __linux__
    f.thread = g_slots[e.thread_slot].name;
#else
    f.thread = "thread";
#endif
    f.pcs.assign(e.pc, e.pc + e.depth);
    f.count = e.count;
    out.push_back(std::move(f));
  }
  return out;
}

namespace {

// Renders one stack's frame list root-first, symbolized: the innermost
// captured frame is the precise PC, everything above is a return address.
std::vector<std::string> symbolize_stack(symbolizer& sym, const folded_stack& f) {
  std::vector<std::string> frames;
  frames.reserve(f.pcs.size() + 1);
  for (std::size_t i = f.pcs.size(); i-- > 0;) {
    frames.push_back(sanitize_frame(sym.name_of(f.pcs[i], /*return_address=*/i != 0)));
  }
  return frames;
}

}  // namespace

std::string render_folded(const std::vector<folded_stack>& stacks) {
  symbolizer sym;
  struct row {
    std::string key;
    std::uint64_t count;
  };
  std::vector<row> rows;
  rows.reserve(stacks.size());
  for (const auto& f : stacks) {
    std::string key = sanitize_frame(f.thread);
    for (const auto& fr : symbolize_stack(sym, f)) {
      key += ';';
      key += fr;
    }
    rows.push_back({std::move(key), f.count});
  }
  std::sort(rows.begin(), rows.end(), [](const row& a, const row& b) {
    return a.count != b.count ? a.count > b.count : a.key < b.key;
  });
  std::string out;
  for (const auto& r : rows) {
    out += r.key;
    out += ' ';
    out += std::to_string(r.count);
    out += '\n';
  }
  return out;
}

std::string profiler::folded() const { return render_folded(stacks()); }

std::string profiler::export_json(std::size_t limit) const {
  auto all = stacks();
  std::sort(all.begin(), all.end(), [](const folded_stack& a, const folded_stack& b) {
    return a.count > b.count;
  });
  if (limit != 0 && all.size() > limit) all.resize(limit);
  symbolizer sym;
  std::string out = "{\"backend\":\"";
  out += backend_name(backend_);
  out += "\",\"samples\":" + std::to_string(total_samples());
  out += ",\"dropped\":" + std::to_string(total_dropped());
  out += ",\"stacks\":[";
  bool first = true;
  for (const auto& f : all) {
    if (!first) out += ',';
    first = false;
    out += "{\"thread\":\"";
    json_escape_into(out, f.thread);
    out += "\",\"count\":" + std::to_string(f.count) + ",\"frames\":[";
    bool ffirst = true;
    for (const auto& fr : symbolize_stack(sym, f)) {
      if (!ffirst) out += ',';
      ffirst = false;
      out += '"';
      json_escape_into(out, fr);
      out += '"';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::vector<hot_function> profiler::top_functions(std::size_t n) const {
  auto all = stacks();
  symbolizer sym;
  std::map<std::string, hot_function> by_name;
  for (const auto& f : all) {
    std::set<std::string> seen;  // count `total` once per stack per name
    for (std::size_t i = 0; i < f.pcs.size(); ++i) {
      std::string name = sanitize_frame(sym.name_of(f.pcs[i], /*return_address=*/i != 0));
      auto& hf = by_name[name];
      hf.name = name;
      if (i == 0) hf.self += f.count;
      if (seen.insert(name).second) hf.total += f.count;
    }
  }
  std::vector<hot_function> out;
  out.reserve(by_name.size());
  for (auto& [_, hf] : by_name) out.push_back(std::move(hf));
  std::sort(out.begin(), out.end(), [](const hot_function& a, const hot_function& b) {
    if (a.self != b.self) return a.self > b.self;
    if (a.total != b.total) return a.total > b.total;
    return a.name < b.name;
  });
  if (out.size() > n) out.resize(n);
  return out;
}

std::string profiler::hot_stacks_json(std::size_t n) const {
  auto all = stacks();
  std::sort(all.begin(), all.end(), [](const folded_stack& a, const folded_stack& b) {
    return a.count > b.count;
  });
  if (all.size() > n) all.resize(n);
  symbolizer sym;
  std::string out = "[";
  bool first = true;
  for (const auto& f : all) {
    if (!first) out += ',';
    first = false;
    std::string key = sanitize_frame(f.thread);
    for (const auto& fr : symbolize_stack(sym, f)) {
      key += ';';
      key += fr;
    }
    out += "{\"stack\":\"";
    json_escape_into(out, key);
    out += "\",\"count\":" + std::to_string(f.count) + "}";
  }
  out += "]";
  return out;
}

}  // namespace interedge::prof

#include "common/trace.h"

#include <bit>
#include <sstream>

#include "common/logging.h"

namespace interedge::trace {
namespace {

thread_local tracer* g_current = nullptr;
thread_local int g_depth = 0;

std::size_t round_up_pow2(std::size_t v) {
  if (v < 2) return 2;
  return std::bit_ceil(v);
}

}  // namespace

const char* stage_name(stage s) {
  switch (s) {
    case stage::ingress: return "ingress";
    case stage::parse: return "parse";
    case stage::decrypt: return "decrypt";
    case stage::cache: return "cache";
    case stage::emit: return "emit";
    case stage::slowpath: return "slowpath";
    case stage::service: return "service";
  }
  return "?";
}

tracer::tracer(metrics_registry& reg) : tracer(reg, config()) {}

tracer::tracer(metrics_registry& reg, config cfg)
    : hop_(cfg.hop),
      sample_mask_((1ull << cfg.sample_shift) - 1),
      ring_(round_up_pow2(cfg.ring_capacity)),
      ring_mask_(ring_.size() - 1) {
  for (std::size_t i = 0; i < kStageCount; ++i) {
    stage_hists_[i] =
        &reg.get_histogram(std::string("sn.stage.") + stage_name(static_cast<stage>(i)));
  }
}

void tracer::capture(stage s, std::uint64_t start_ns, std::uint64_t duration_ns, char verdict) {
  const std::uint64_t slot = captures_.fetch_add(1, std::memory_order_relaxed);
  trace_record& r = ring_[slot & ring_mask_];
  r.seq = slot;
  r.hop = hop_;
  r.st = s;
  r.depth = static_cast<std::uint8_t>(g_depth);
  r.start_ns = start_ns;
  r.duration_ns = duration_ns;
  r.verdict = verdict;
}

std::vector<trace_record> tracer::recent(std::size_t limit) const {
  const std::uint64_t written = captures_.load(std::memory_order_relaxed);
  // Wrap accounting: captures past ring capacity since the last export
  // were overwritten before any reader saw them. Count them (they used to
  // vanish silently) and warn once per burst — the flag rearms when an
  // export finds no loss, so a steady overload doesn't spam the log.
  const std::uint64_t mark = read_mark_.exchange(written, std::memory_order_relaxed);
  const std::uint64_t unread = written - mark;
  if (unread > ring_.size()) {
    const std::uint64_t lost = unread - ring_.size();
    dropped_records_.fetch_add(lost, std::memory_order_relaxed);
    if (!wrap_warned_.exchange(true, std::memory_order_relaxed)) {
      IE_LOG(warn) << "trace" << kv("hop", hop_) << kv("dropped_records", lost)
                   << kv("ring_capacity", ring_.size());
    }
  } else {
    wrap_warned_.store(false, std::memory_order_relaxed);
  }
  std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(written, ring_.size()));
  if (limit != 0 && limit < n) n = limit;
  std::vector<trace_record> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(written - 1 - i) & ring_mask_]);
  }
  return out;
}

std::string tracer::dump(std::size_t limit) const {
  std::ostringstream os;
  for (const trace_record& r : recent(limit)) {
    os << "trace seq=" << r.seq << " hop=" << r.hop << " stage=" << stage_name(r.st)
       << " depth=" << static_cast<int>(r.depth) << " dur=" << r.duration_ns
       << "ns verdict=" << r.verdict << "\n";
  }
  return os.str();
}

tracer* current() { return g_current; }

scoped_tracer::scoped_tracer(tracer* t) : prev_(g_current) { g_current = t; }
scoped_tracer::~scoped_tracer() { g_current = prev_; }

int span_depth() { return g_depth; }

span::span(stage s, bool capture) : t_(g_current), stage_(s), capture_(capture) {
  if (t_ == nullptr) return;
  depth_ = static_cast<std::uint8_t>(g_depth);
  ++g_depth;
  start_ = now_ns();
}

span::~span() {
  if (t_ == nullptr) return;
  const std::uint64_t dur = now_ns() - start_;
  --g_depth;
  t_->record_stage(stage_, dur);
  if (capture_) t_->capture(stage_, start_, dur, verdict_);
}

// ---- cross-hop path tracing (ISSUE 5) ---------------------------------

const char* span_kind_name(span_kind k) {
  switch (k) {
    case span_kind::origin: return "origin";
    case span_kind::hop_fast: return "hop_fast";
    case span_kind::hop_slow: return "hop_slow";
    case span_kind::service: return "service";
    case span_kind::forward: return "forward";
    case span_kind::deliver: return "deliver";
    case span_kind::event: return "event";
  }
  return "?";
}

std::string annotation_names(std::uint16_t annotations) {
  static constexpr std::pair<std::uint16_t, const char*> kNames[] = {
      {kAnnoShed, "shed"},
      {kAnnoDrop, "drop"},
      {kAnnoPeerDown, "peer_down"},
      {kAnnoFailover, "failover"},
      {kAnnoRekey, "rekey"},
  };
  std::string out;
  for (const auto& [bit, name] : kNames) {
    if ((annotations & bit) == 0) continue;
    if (!out.empty()) out += ',';
    out += name;
  }
  return out;
}

namespace {

// splitmix64: cheap, deterministic, full-period id mixer.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

path_recorder::path_recorder(config cfg)
    : cfg_(cfg),
      sample_mask_((1ull << cfg.sample_shift) - 1),
      ring_(round_up_pow2(cfg.capacity)) {}

std::uint64_t path_recorder::new_trace_id() {
  const std::uint64_t n = span_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::uint64_t id = mix64(cfg_.node * 0x9e3779b97f4a7c15ull ^ n);
  return id != 0 ? id : 1;
}

std::uint64_t path_recorder::next_span_id() {
  const std::uint64_t n = span_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Node id in the top bits keeps span ids unique across a deployment
  // without coordination (node ids are small; 2^40 spans per node).
  const std::uint64_t id = (cfg_.node << 40) ^ n;
  return id != 0 ? id : 1;
}

void path_recorder::emit(path_span s) {
  if (ring_.try_push(std::move(s))) {
    emitted_.fetch_add(1, std::memory_order_relaxed);
  } else {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::size_t path_recorder::drain(std::vector<path_span>& out, std::size_t max) {
  return ring_.try_pop_batch(out, max);
}

}  // namespace interedge::trace

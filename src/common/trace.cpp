#include "common/trace.h"

#include <bit>

namespace interedge::trace {
namespace {

thread_local tracer* g_current = nullptr;
thread_local span* g_open = nullptr;  // innermost open span on this thread

std::size_t round_up_pow2(std::size_t v) {
  if (v < 2) return 2;
  return std::bit_ceil(v);
}

}  // namespace

const char* stage_name(stage s) {
  switch (s) {
    case stage::ingress: return "ingress";
    case stage::decrypt: return "decrypt";
    case stage::slowpath: return "slowpath";
    case stage::service: return "service";
  }
  return "?";
}

tracer::tracer(metrics_registry& reg) {
  for (std::size_t i = 0; i < kStageCount; ++i) {
    stage_hists_[i] =
        &reg.get_histogram(std::string("sn.stage.") + stage_name(static_cast<stage>(i)));
  }
}

tracer* current() { return g_current; }

scoped_tracer::scoped_tracer(tracer* t) : prev_(g_current) { g_current = t; }
scoped_tracer::~scoped_tracer() { g_current = prev_; }

span::span(stage s) : t_(g_current), stage_(s) {
  if (t_ == nullptr) return;
  parent_ = g_open;
  g_open = this;
  start_ = now_ns();
}

span::~span() {
  if (t_ == nullptr) return;
  const std::uint64_t elapsed = now_ns() - start_;
  g_open = parent_;
  t_->record(stage_, elapsed, elapsed >= child_ns_ ? elapsed - child_ns_ : 0);
  if (parent_ != nullptr) parent_->child_ns_ += elapsed;
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

#include "edomain/observability.h"

#include <sstream>

namespace interedge::edomain {

namespace {

constexpr std::uint16_t kErrorMask = trace::kAnnoShed | trace::kAnnoDrop;

}  // namespace

observability_plane::observability_plane(config cfg)
    : cfg_(cfg), collector_(cfg.max_traces) {
  // End-to-end latency rollup: the first time a trace holds both its
  // origin and terminal delivery, its total lands in a per-service
  // histogram — the series the latency SLOs key on. The hook fires after
  // the collector drops its lock; rollup_reg_ has its own.
  collector_.set_completion_hook([this](std::uint32_t service, std::uint64_t /*connection*/,
                                        std::uint64_t total_ns, std::uint16_t annotations) {
    const label_list labels{{"service", ilp::svc::name(service)}};
    rollup_reg_.get_histogram("edomain.path.total_ns", labels).record(total_ns);
    rollup_reg_.get_counter("edomain.path.completed", labels).add();
    if ((annotations & kErrorMask) != 0) {
      rollup_reg_.get_counter("edomain.path.errors", labels).add();
    }
  });
}

observability_plane::rollup_entry& observability_plane::entry_for(ilp::service_id service,
                                                                  ilp::peer_id node) {
  auto it = rollups_.find({service, node});
  if (it != rollups_.end()) return it->second;
  const label_list labels{{"node", std::to_string(node)},
                          {"service", ilp::svc::name(service)}};
  rollup_entry e;
  e.hop_ns = &rollup_reg_.get_histogram("edomain.hop.ns", labels);
  e.spans = &rollup_reg_.get_counter("edomain.hop.spans", labels);
  e.errors = &rollup_reg_.get_counter("edomain.hop.errors", labels);
  return rollups_.emplace(std::make_pair(service, node), e).first->second;
}

void observability_plane::ingest(ilp::peer_id node, const metrics_registry& snapshot,
                                 std::span<const trace::path_span> spans) {
  std::lock_guard lk(mu_);
  ++pushes_;
  // Replace-on-push: the snapshot is cumulative (counters are monotone),
  // so the latest one is the node's whole story.
  auto fresh = std::make_unique<metrics_registry>();
  fresh->merge_from(snapshot);
  node_metrics_[node] = std::move(fresh);
  // Rollups key on the collector's accept verdict: a replayed batch (an SN
  // restarting mid-window and re-draining, a duplicated push) is rejected
  // span-by-span as duplicates, so window aggregates never double-count.
  for (const trace::path_span& s : spans) {
    if (!collector_.ingest(s)) continue;
    if (s.trace_id == 0) continue;  // node events roll up via the collector
    if (s.kind == trace::span_kind::forward) continue;  // sub-span of its hop
    rollup_entry& e = entry_for(s.service, s.node);
    e.hop_ns->record(s.duration_ns);
    e.spans->add();
    if ((s.annotations & kErrorMask) != 0) e.errors->add();
  }
}

observability_plane::hop_rollup observability_plane::rollup(ilp::service_id service,
                                                            ilp::peer_id node) const {
  std::lock_guard lk(mu_);
  hop_rollup r;
  auto it = rollups_.find({service, node});
  if (it == rollups_.end()) return r;
  r.spans = it->second.spans->value();
  r.errors = it->second.errors->value();
  r.p50_ns = it->second.hop_ns->quantile(0.5);
  r.p99_ns = it->second.hop_ns->quantile(0.99);
  return r;
}

void observability_plane::refresh_trace_gauges_locked() {
  // Cumulative collector accounting as gauges (the plane cannot re-add to
  // a counter it doesn't own the increments of): trace loss and dedup
  // visibility for the exposition and the SLO window store.
  rollup_reg_.get_gauge("edomain.traces.spans_seen")
      .set(static_cast<std::int64_t>(collector_.spans_seen()));
  rollup_reg_.get_gauge("edomain.traces.duplicates_ignored")
      .set(static_cast<std::int64_t>(collector_.duplicates_ignored()));
  rollup_reg_.get_gauge("edomain.traces.evicted")
      .set(static_cast<std::int64_t>(collector_.evicted_traces()));
  rollup_reg_.get_gauge("edomain.traces.retained")
      .set(static_cast<std::int64_t>(collector_.trace_count()));
}

void observability_plane::merged_view_locked(metrics_registry& out) {
  refresh_trace_gauges_locked();
  if (slo_) slo_->expose(rollup_reg_);
  out.merge_from(rollup_reg_);
  for (const auto& [node, reg] : node_metrics_) out.merge_from(*reg);
}

std::string observability_plane::export_prometheus() {
  std::lock_guard lk(mu_);
  metrics_registry merged;
  merged_view_locked(merged);
  return merged.export_prometheus();
}

std::string observability_plane::export_json(std::size_t limit) {
  return collector_.export_json(limit);
}

std::string observability_plane::render_top(std::size_t limit) {
  std::ostringstream os;
  {
    std::lock_guard lk(mu_);
    os << "edomain " << cfg_.domain << " observability: " << node_metrics_.size()
       << " nodes, " << pushes_ << " pushes\n";
    os << "  service        node        spans   errors   p50(us)   p99(us)\n";
    for (const auto& [key, e] : rollups_) {
      const auto& [service, node] = key;
      char line[160];
      std::snprintf(line, sizeof(line), "  %-14s %-11llu %-7llu %-8llu %-9.1f %-9.1f\n",
                    ilp::svc::name(service),
                    static_cast<unsigned long long>(node),
                    static_cast<unsigned long long>(e.spans->value()),
                    static_cast<unsigned long long>(e.errors->value()),
                    static_cast<double>(e.hop_ns->quantile(0.5)) / 1e3,
                    static_cast<double>(e.hop_ns->quantile(0.99)) / 1e3);
      os << line;
    }
  }
  os << collector_.render_text(limit);
  return os.str();
}

// ---- SLO health surface (ISSUE 7) -------------------------------------

void observability_plane::enable_health(timeseries_store::config series,
                                        slo::burn_windows windows) {
  std::lock_guard lk(mu_);
  ts_ = std::make_unique<timeseries_store>(series);
  slo_ = std::make_unique<slo::slo_monitor>(*ts_, windows);
}

void observability_plane::add_slo(slo::slo_target target) {
  std::lock_guard lk(mu_);
  if (slo_) slo_->add_target(std::move(target));
}

void observability_plane::set_alert_hook(std::function<void(const slo::slo_alert&)> hook) {
  std::lock_guard lk(mu_);
  alert_hook_ = std::move(hook);
}

std::size_t observability_plane::health_tick(time_point now) {
  std::function<void(const slo::slo_alert&)> hook;
  {
    std::lock_guard lk(mu_);
    if (!ts_) return 0;
    metrics_registry merged;
    merged_view_locked(merged);
    ts_->tick(merged, now);
    alert_scratch_.clear();
    slo_->evaluate(now, &alert_scratch_);
    if (alert_scratch_.empty()) return 0;
    hook = alert_hook_;
  }
  // Fan out after dropping the plane lock: a hook re-entering the plane
  // (exposition, a black-box dump through an SN) must not deadlock.
  if (hook) {
    for (const slo::slo_alert& a : alert_scratch_) hook(a);
  }
  return alert_scratch_.size();
}

std::string observability_plane::export_alerts_json() const {
  std::lock_guard lk(mu_);
  return slo_ ? slo_->export_json() : std::string("{\"alerts\":[]}");
}

}  // namespace interedge::edomain

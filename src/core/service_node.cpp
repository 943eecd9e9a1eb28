#include "core/service_node.h"

#include <stdexcept>
#include <string>

#include "common/logging.h"
#include "common/serial.h"

namespace interedge::core {

slowpath_response to_response(std::uint64_t token, module_result result) {
  slowpath_response resp;
  resp.token = token;
  resp.verdict = std::move(result.verdict);
  resp.cache_inserts = std::move(result.cache_inserts);
  resp.sends = std::move(result.sends);
  return resp;
}

service_node::service_node(sn_config config, const clock& clk, send_datagram_fn send_datagram,
                           scheduler_fn scheduler, const router* route)
    : config_(config),
      clock_(clk),
      send_datagram_(std::move(send_datagram)),
      scheduler_(std::move(scheduler)),
      router_(route),
      cache_(config.cache_capacity, config.cache_hash_seed),
      tracer_(metrics_),
      path_rec_(trace::path_recorder::config{.node = config.id,
                                             .capacity = config.path_span_capacity,
                                             .clk = &clk}),
      pipes_(
          config.id,
          [this](peer_id to, bytes datagram) { send_datagram_(to, std::move(datagram)); },
          [this](peer_id from, const ilp::ilp_header& header, bytes payload) {
            terminus_->handle(packet{from, header, std::move(payload)});
          }) {
  env_ = std::make_unique<exec_env>(*this);
  channel_ = std::make_unique<inline_channel>(
      [this](slowpath_request req) { return handle_slowpath(std::move(req)); });
  terminus_ = std::make_unique<pipe_terminus>(
      cache_, *channel_,
      [this](peer_id to, const ilp::ilp_header& header, const_byte_span payload) {
        // send_span seals straight out of the terminus' payload view (which
        // may alias an ingress slab) — no owned copy on the forward path.
        pipes_.send_span(to, header, payload);
      });
  terminus_->enable_telemetry(metrics_);
  if (config_.path_span_capacity > 0) terminus_->enable_path_tracing(&path_rec_);
  pipes_.set_metrics(metrics_);
  if (config_.blackbox_capacity > 0) {
    blackbox_ = std::make_unique<flight_recorder>(
        flight_recorder::config{.capacity = config_.blackbox_capacity});
  }
  // Liveness transitions become node event spans the collector correlates
  // with in-flight traces (a failover mid-trace shows up annotated, not as
  // a dangling path) — and black-box triggers, so the flight recorder
  // freezes with the pre-fault tail intact.
  pipes_.set_peer_status_hook([this](peer_id peer, bool up) {
    if (!up) {
      emit_node_event(trace::kAnnoPeerDown, peer);
      if (blackbox_) {
        blackbox_->trigger(kTrigPeerDown, path_rec_.now(), peer);
      }
      // A dead adjacency invalidates every cached forward that names it:
      // otherwise established flows blackhole until LRU eviction while
      // the slow path would happily re-resolve around the failure.
      invalidate_next_hop(peer);
    }
  });
  m_checkpoint_taken_ = &metrics_.get_counter("sn.checkpoint.taken");
  m_checkpoint_bytes_ = &metrics_.get_counter("sn.checkpoint.bytes");
  // TTL'd entries (shed verdicts, degraded-service defaults) age out
  // against the node clock.
  cache_.set_clock(&clock_);
  terminus_->set_slowpath_policy(
      {.high_water = config_.slowpath_high_water, .shed_ttl = config_.shed_ttl});
  if (config_.keepalive_interval.count() > 0) {
    ilp::liveness_config lcfg;
    lcfg.keepalive_interval = config_.keepalive_interval;
    lcfg.miss_budget = config_.keepalive_miss_budget;
    // Node-unique jitter seed: peers of one recovered SN desynchronize.
    // An explicitly configured seed wins (root-seed plumbing).
    lcfg.jitter_seed = config_.liveness_jitter_seed != 0
                           ? config_.liveness_jitter_seed
                           : config_.id * 0x9e3779b97f4a7c15ull + 1;
    pipes_.enable_liveness(clock_, lcfg);
    start_periodic(liveness_gen_, config_.keepalive_interval, 0, [this] {
      pipes_.liveness_tick();
      poll();
    });
  }
  if (config_.profiler_hz > 0) {
    profiler_ = std::make_unique<prof::profiler>(prof::profiler_config{
        .sample_hz = config_.profiler_hz, .force_timer = config_.profiler_force_timer});
    // The constructing thread owns the event loop and runs the whole
    // datapath; bind it now and arm immediately.
    profiler_->register_current_thread("control");
    profiler_->arm();
  }
  pipes_.set_batch_deliver([this](peer_id from, std::span<ilp::opened_packet> pkts) {
    // Zero-copy dispatch: the terminus consumes views aliasing the opened
    // payloads (decrypt arena or ingress slab). Only slow-path detours copy
    // into owned packets; the fast path never duplicates a payload byte.
    view_batch_scratch_.clear();
    view_batch_scratch_.reserve(pkts.size());
    for (ilp::opened_packet& p : pkts) {
      view_batch_scratch_.push_back(packet_view{from, std::move(p.header), p.payload});
    }
    terminus_->handle_batch(std::span<packet_view>(view_batch_scratch_));
  });
}

service_node::~service_node() {
  // The destructing thread is the one that registered in the constructor
  // (the SN lifecycle contract); release its profiler slot.
  if (profiler_) profiler_->unregister_current_thread();
}

std::size_t service_node::poll() {
  trace::scoped_tracer st(&tracer_);
  const std::size_t n = terminus_->pump();
  if (n > 0) terminus_->flush_telemetry();
  return n;
}

bool service_node::wait_idle(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    poll();
    if (!terminus_->busy()) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
  }
}

void service_node::invalidate_next_hop(peer_id hop) { cache_.erase_forwards_to(hop); }

const cache_stats& service_node::shard_cache_stats(std::size_t shard) const {
  throw std::out_of_range("service_node has no shard " + std::to_string(shard));
}

const terminus_stats& service_node::shard_terminus_stats(std::size_t shard) const {
  throw std::out_of_range("service_node has no shard " + std::to_string(shard));
}

// ---- ingress entry points --------------------------------------------

void service_node::on_datagram(peer_id from, const_byte_span datagram) {
  trace::scoped_tracer st(&tracer_);
  pipes_.on_datagram(from, datagram);
}

void service_node::on_datagram_batch(peer_id from,
                                     std::span<const const_byte_span> datagrams) {
  trace::scoped_tracer st(&tracer_);
  pipes_.on_datagram_batch(from, datagrams);
}

void service_node::on_datagrams(std::span<const std::pair<peer_id, bytes>> datagrams) {
  trace::scoped_tracer st(&tracer_);
  // Feed maximal same-peer runs through the batched path; order across
  // peers is preserved because runs are flushed in arrival order.
  std::size_t i = 0;
  while (i < datagrams.size()) {
    const peer_id from = datagrams[i].first;
    std::size_t j = i;
    span_scratch_.clear();
    while (j < datagrams.size() && datagrams[j].first == from) {
      span_scratch_.emplace_back(datagrams[j].second.data(), datagrams[j].second.size());
      ++j;
    }
    pipes_.on_datagram_batch(from, span_scratch_);
    i = j;
  }
}

void service_node::on_datagram_views(std::span<std::pair<peer_id, buf::pkt_view>> datagrams) {
  trace::scoped_tracer st(&tracer_);
  // Same-peer runs through the mutable batched path: data messages are
  // decrypted in place inside their slabs, so the whole inline fast path
  // (decrypt → terminus → forward) runs without copying a payload.
  std::size_t i = 0;
  while (i < datagrams.size()) {
    const peer_id from = datagrams[i].first;
    std::size_t j = i;
    mut_span_scratch_.clear();
    while (j < datagrams.size() && datagrams[j].first == from) {
      mut_span_scratch_.push_back(datagrams[j].second.mutable_span());
      ++j;
    }
    pipes_.on_datagram_batch_mut(from, mut_span_scratch_);
    i = j;
  }
}

// ---- node services / stats -------------------------------------------

void service_node::send(peer_id to, const ilp::ilp_header& header, bytes payload) {
  pipes_.send(to, header, std::move(payload));
}

void service_node::schedule(nanoseconds delay, std::function<void()> fn) {
  scheduler_(delay, std::move(fn));
}

std::optional<peer_id> service_node::next_hop(edge_addr dest) const {
  if (!router_) return std::nullopt;
  return router_->next_hop(dest);
}

void service_node::merge_metrics_into(metrics_registry& out) const { out.merge_from(metrics_); }

std::string service_node::stats_snapshot() {
  const time_point now = clock_.now();
  double elapsed = 0;
  if (have_snapshot_) {
    elapsed = static_cast<double>((now - last_snapshot_).count()) / 1e9;
  }
  last_snapshot_ = now;
  have_snapshot_ = true;
  return stats_reporter_.delta_report(metrics_, elapsed);
}

std::string service_node::export_prometheus() { return metrics_.export_prometheus(); }

void service_node::start_periodic(loop_gen& gen, nanoseconds interval, std::uint64_t max_runs,
                                  std::function<void()> tick) {
  schedule_periodic(gen, ++gen, interval, max_runs,
                    std::make_shared<std::function<void()>>(std::move(tick)));
}

void service_node::schedule_periodic(loop_gen& gen, loop_gen armed, nanoseconds interval,
                                     std::uint64_t remaining,
                                     std::shared_ptr<std::function<void()>> tick) {
  scheduler_(interval, [this, &gen, armed, interval, remaining, tick] {
    if (gen != armed) return;
    (*tick)();
    if (remaining == 1) return;
    schedule_periodic(gen, armed, interval, remaining == 0 ? 0 : remaining - 1, tick);
  });
}

void service_node::start_stats_reporting(nanoseconds interval,
                                         std::function<void(const std::string&)> sink,
                                         std::uint64_t max_reports) {
  start_periodic(stats_gen_, interval, max_reports,
                 [this, sink = std::move(sink)] { sink(stats_snapshot()); });
}

slowpath_response service_node::handle_slowpath(slowpath_request req) {
  packet pkt;
  pkt.l3_src = req.l3_src;
  try {
    pkt.header = ilp::ilp_header::decode(req.header_bytes);
  } catch (const serial_error&) {
    IE_LOG(warn) << "service_node " << config_.id << ": undecodable slow-path header";
    return to_response(req.token, module_result::drop());
  }
  pkt.payload = std::move(req.payload);
  // Service-dispatch span for traced packets: the time a module spent on
  // this request, distinct from the hop_slow span (which also covers the
  // terminus' submit and completion). Parented on the upstream span — the
  // hop_slow span id is not allocated until the terminus completes the
  // response.
  std::uint64_t svc_start = 0;
  trace::trace_context tc{};
  if (config_.path_span_capacity > 0) {
    if (auto t = pkt.header.trace_ctx(); t && t->sampled()) {
      tc = *t;
      svc_start = path_rec_.now();
    }
  }
  slowpath_response resp = to_response(req.token, env_->dispatch(pkt));
  if (svc_start != 0) {
    path_rec_.emit(trace::path_span{
        .trace_id = tc.trace_id,
        .span_id = path_rec_.next_span_id(),
        .parent_span = tc.parent_span,
        .node = config_.id,
        .connection = pkt.header.connection,
        .service = pkt.header.service,
        .hop_count = tc.hop_count,
        .kind = trace::span_kind::service,
        .verdict = resp.verdict.kind == decision::verdict::forward    ? trace::kVerdictForward
                   : resp.verdict.kind == decision::verdict::drop     ? trace::kVerdictDrop
                                                                      : trace::kVerdictDeliver,
        .annotations = 0,
        .start_ns = svc_start,
        .duration_ns = path_rec_.now() - svc_start,
    });
  }
  return resp;
}

void service_node::emit_node_event(std::uint16_t annotations, std::uint64_t correlate) {
  if (blackbox_) {
    blackbox_->record(fr_event{.time_ns = path_rec_.now(),
                               .kind = fr_kind::lifecycle,
                               .code = annotations,
                               .a = correlate});
  }
  if (config_.path_span_capacity == 0) return;
  const std::uint64_t now = path_rec_.now();
  path_rec_.emit(trace::path_span{
      .trace_id = 0,  // node event: correlated by time, not trace id
      .span_id = path_rec_.next_span_id(),
      .parent_span = 0,
      .node = config_.id,
      .connection = correlate,
      .service = 0,
      .hop_count = 0,
      .kind = trace::span_kind::event,
      .verdict = trace::kVerdictNone,
      .annotations = annotations,
      .start_ns = now,
      .duration_ns = 0,
  });
}

std::size_t service_node::drain_path_spans(std::vector<trace::path_span>& out) {
  const std::size_t base = out.size();
  std::size_t total = 0;
  for (std::size_t n = path_rec_.drain(out); n > 0; n = path_rec_.drain(out)) total += n;
  // The drain doubles as the black box's feed: every drained span lands in
  // the ring, so a freeze dumps the recent
  // traced traffic alongside the lifecycle events (recorded at emission —
  // trace_id == 0 spans are skipped here to avoid double entry).
  if (blackbox_ != nullptr && !blackbox_->frozen()) {
    for (std::size_t k = base; k < out.size(); ++k) {
      const trace::path_span& s = out[k];
      if (s.trace_id == 0) continue;
      blackbox_->record(fr_event{
          .time_ns = s.start_ns,
          .kind = fr_kind::span,
          .code = (static_cast<std::uint32_t>(s.annotations) << 8) |
                  static_cast<std::uint8_t>(s.verdict),
          .a = s.trace_id,
          .b = s.service,
          .c = s.duration_ns,
      });
    }
  }
  return total;
}

std::string service_node::export_trace_json(std::size_t limit) {
  span_drain_scratch_.clear();
  drain_path_spans(span_drain_scratch_);
  collector_.ingest(std::span<const trace::path_span>(span_drain_scratch_));
  return collector_.export_json(limit);
}

void service_node::start_observability_push(nanoseconds interval, observe_sink sink,
                                            std::uint64_t max_pushes) {
  start_periodic(observe_gen_, interval, max_pushes, [this, sink = std::move(sink)] {
    // Saturation/loss gauges refresh first so every pushed snapshot carries
    // current slow-path lag and trace-drop accounting.
    refresh_health_gauges();
    span_drain_scratch_.clear();
    drain_path_spans(span_drain_scratch_);
    const std::span<const trace::path_span> spans(span_drain_scratch_);
    collector_.ingest(spans);  // the local dump stays current too
    sink(metrics_, spans);
  });
}

// ---- fault-tolerant lifecycle (DESIGN.md §10) -------------------------

bytes service_node::checkpoint_full() {
  writer w;
  w.u8(1);  // full-checkpoint format version
  w.blob(env_->checkpoint());
  w.blob(cache_.snapshot(clock_.now()));
  return w.take();
}

void service_node::restore_full(const_byte_span snapshot) {
  reader r(snapshot);
  const std::uint8_t version = r.u8();
  if (version != 1) throw serial_error("service_node checkpoint: unknown version");
  env_->restore(r.blob());
  cache_.restore_warm(r.blob(), clock_.now());
  // A standby restoring a peer's state is a takeover: traces that cross
  // this node around now get the failover annotation folded in, and the
  // black box freezes with whatever led up to the handoff.
  emit_node_event(trace::kAnnoFailover, config_.id);
  if (blackbox_) blackbox_->trigger(kTrigFailover, path_rec_.now(), config_.id);
}

void service_node::start_checkpointing(nanoseconds interval, std::function<void(bytes)> sink,
                                       std::uint64_t max_checkpoints) {
  start_periodic(checkpoint_gen_, interval, max_checkpoints, [this, sink = std::move(sink)] {
    bytes snap = checkpoint_full();
    m_checkpoint_taken_->add();
    m_checkpoint_bytes_->add(snap.size());
    sink(std::move(snap));
  });
}

// ---- SLO health plane (ISSUE 7, DESIGN.md §13) ------------------------

void service_node::start_health_plane(health_config cfg, std::uint64_t max_ticks) {
  health_cfg_ = std::move(cfg);
  health_ts_ = std::make_unique<timeseries_store>(health_cfg_.series);
  health_slo_ = std::make_unique<slo::slo_monitor>(*health_ts_, health_cfg_.windows);
  for (const slo::slo_target& t : health_cfg_.targets) health_slo_->add_target(t);
  if (blackbox_ && health_cfg_.blackbox_sink) {
    // The freeze hook runs on whichever thread fired the trigger; both the
    // dump and the sink must therefore be safe off the owner thread
    // (dump_json reads the ring via the seqlock protocol — it is).
    blackbox_->set_freeze_hook([this](std::uint32_t) {
      // Re-read the sink at fire time: a later start_health_plane may have
      // replaced the config (possibly with no sink) while this hook stays.
      if (health_cfg_.blackbox_sink) health_cfg_.blackbox_sink(dump_blackbox_json());
    });
  }
  start_periodic(health_gen_, health_cfg_.interval, max_ticks, [this] { health_tick(); });
}

void service_node::refresh_health_gauges() {
  const std::uint64_t spans_dropped = path_rec_.dropped();
  const std::uint64_t in_flight = terminus_->in_flight();
  metrics_.get_gauge("sn.slowpath.in_flight_total").set(static_cast<std::int64_t>(in_flight));
  metrics_.get_gauge("sn.path.spans_dropped").set(static_cast<std::int64_t>(spans_dropped));
}

void service_node::health_tick() {
  const time_point now = clock_.now();
  const std::uint64_t now_ns = static_cast<std::uint64_t>(now.time_since_epoch().count());

  refresh_health_gauges();
  // Profiler drain + hot-stack snapshot BEFORE the SLO pass: a burn-rate
  // page freeze this tick then dumps a postmortem whose
  // hot-stack table covers the samples leading up to the fault.
  profile_tick();

  // Cumulative snapshot into the sliding-window ring; the SLO pass reads
  // the windows the tick just updated.
  health_ts_->tick(metrics_, now);

  health_alert_scratch_.clear();
  health_slo_->evaluate(now, &health_alert_scratch_);
  for (const slo::slo_alert& a : health_alert_scratch_) {
    if (blackbox_) {
      blackbox_->record(fr_event{.time_ns = a.at_ns,
                                 .kind = fr_kind::alert,
                                 .code = static_cast<std::uint32_t>(a.state),
                                 .a = static_cast<std::uint64_t>(a.prev),
                                 .b = static_cast<std::uint64_t>(a.burn_fast * 1000.0)});
      if (a.state == slo::slo_state::page) blackbox_->trigger(kTrigSloPage, a.at_ns);
    }
    if (health_cfg_.alert_sink) health_cfg_.alert_sink(a);
  }
  health_slo_->expose(metrics_);

  // Shed-watermark trigger: shed verdicts applied since the last tick
  // freeze the box with the overload's lead-up in the ring.
  for (const metric_sample& s : metrics_.samples()) {
    if (s.key == "sn.slowpath.shed") {
      const auto shed_total = static_cast<std::uint64_t>(s.value);
      if (shed_total > last_shed_total_) {
        if (blackbox_) {
          blackbox_->trigger(kTrigShed, now_ns, shed_total - last_shed_total_);
        }
        last_shed_total_ = shed_total;
      }
      break;
    }
  }
}

void service_node::profile_tick() {
  if (!profiler_) return;
  profiler_->drain();
  // Render the top-N table now, on the owner thread, and publish it
  // lock-free: a freeze-path dump_blackbox_json (any thread) only loads
  // the shared_ptr — it never touches the profiler's aggregation mutex.
  constexpr std::size_t kHotStacksTopN = 10;  // postmortem hot-stack rows
  hot_stacks_snapshot_.store(
      std::make_shared<const std::string>(profiler_->hot_stacks_json(kHotStacksTopN)),
      std::memory_order_release);
  metrics_.get_gauge("sn.profile.samples").set(static_cast<std::int64_t>(profiler_->total_samples()));
  metrics_.get_gauge("sn.profile.dropped").set(static_cast<std::int64_t>(profiler_->total_dropped()));

  // Per-stage shares: self-time delta since the last tick, as percent of
  // all span self-time. The exact cross-check for the sampled stacks
  // (DESIGN.md §15).
  std::array<std::uint64_t, trace::kStageCount> cur{};
  std::uint64_t total_delta = 0;
  for (std::size_t s = 0; s < trace::kStageCount; ++s) {
    cur[s] = tracer_.self_ns(static_cast<trace::stage>(s));
    total_delta += cur[s] - last_stage_self_ns_[s];
  }
  if (total_delta > 0) {
    for (std::size_t s = 0; s < trace::kStageCount; ++s) {
      const std::uint64_t delta = cur[s] - last_stage_self_ns_[s];
      metrics_
          .get_gauge("sn.profile.stage_share",
                     {{"stage", trace::stage_name(static_cast<trace::stage>(s))}})
          .set(static_cast<std::int64_t>(100 * delta / total_delta));
    }
  }
  last_stage_self_ns_ = cur;
}

void service_node::profile_refresh() { profile_tick(); }

std::string service_node::export_profile_folded() {
  if (!profiler_) return "";
  profiler_->drain();
  return profiler_->folded();
}

std::string service_node::export_profile_json() {
  if (!profiler_) return "{}";
  profiler_->drain();
  return profiler_->export_json();
}

std::string service_node::dump_blackbox_json() const {
  std::string out = blackbox_ ? blackbox_->dump_json() : std::string("{}");
  // Splice the last-published hot-stack table into the postmortem. The
  // load is lock-free (freeze hooks run on whichever thread tripped the
  // trigger and must never block); "[]" when the profiler is disarmed or
  // hasn't ticked yet.
  std::shared_ptr<const std::string> snap = hot_stacks_snapshot_.load(std::memory_order_acquire);
  const std::string hot = (profiler_ && snap) ? *snap : std::string("[]");
  auto close = out.rfind('}');
  if (close != std::string::npos) {
    const bool empty_obj = close > 0 && out[close - 1] == '{';
    out.insert(close, (empty_obj ? "\"hot_stacks\":" : ",\"hot_stacks\":") + hot);
  }
  return out;
}

}  // namespace interedge::core

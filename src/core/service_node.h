// Service Node (SN): the commodity-cluster element of the InterEdge
// (paper §3). Assembles the pipe layer, the pipe-terminus fast path with
// its decision cache, and the common execution environment hosting the
// standardized service modules.
//
// Transport-agnostic like pipe_manager: the owner supplies datagram send
// and timer callbacks, so the same SN runs over the simulator or a real
// UDP socket.
//
// The datapath is single-threaded and runs to completion on the caller's
// thread: pipe decrypt, terminus dispatch, service modules and egress
// seal all happen inside the ingress call, over the inline slow-path
// channel. A multi-core SN is N of these, one per core (DESIGN.md §9).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/buf_pool.h"
#include "common/clock.h"
#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "common/prof.h"
#include "common/slo.h"
#include "common/timeseries.h"
#include "common/trace.h"
#include "common/trace_collector.h"
#include "core/channel.h"
#include "core/decision_cache.h"
#include "core/exec_env.h"
#include "core/pipe_terminus.h"
#include "core/router.h"
#include "ilp/pipe_manager.h"

namespace interedge::core {

struct sn_config {
  peer_id id = 0;
  std::uint16_t edomain = 0;
  std::size_t cache_capacity = 4096;
  std::uint64_t cache_hash_seed = 0;
  // Cross-hop path tracing (ISSUE 5): ring slots for the node's path span
  // recorder. 0 disables span emission entirely (packets still carry
  // any trace context they arrived with — it is ordinary sealed metadata).
  std::size_t path_span_capacity = 1024;

  // ---- robustness (DESIGN.md §10) ----
  // Pipe keepalives: 0 disables. When set, the SN arms pipe_manager
  // liveness at construction and drives liveness_tick() off its scheduler
  // every interval until stop_liveness(). Reconnect backoff keeps
  // ilp::liveness_config's defaults.
  nanoseconds keepalive_interval{0};
  std::uint32_t keepalive_miss_budget = 3;
  // Liveness keepalive-jitter seed. 0 derives a node-unique default from
  // the SN id; deployments that plumb one root seed everywhere (scenario
  // suites) set it explicitly so the jitter stream is part of the seed.
  std::uint64_t liveness_jitter_seed = 0;
  // Slow-path degradation: the in-flight high-water mark past which the
  // terminus sheds with a TTL'd default verdict (0 = legacy blocking
  // behavior).
  std::size_t slowpath_high_water = 0;
  nanoseconds shed_ttl = std::chrono::milliseconds(50);

  // ---- SLO health plane (ISSUE 7) ----
  // Black-box flight recorder ring slots (0 disables). The recorder is
  // passive until events are fed to it (span drains, lifecycle events,
  // triggers), so the default costs nothing on the packet path. Every
  // fault kind freezes it (flight_recorder::config's default mask).
  std::size_t blackbox_capacity = 1024;

  // ---- continuous profiling plane (ISSUE 10, DESIGN.md §15) ----
  // On-CPU sampling rate in Hz per thread; 0 disables the profiler
  // entirely (no signal handler, no slot claims). The prime default in
  // prof.h (97) is what deployments that arm it should use. Ring and
  // stack-table sizes keep prof::profiler_config's defaults.
  std::uint32_t profiler_hz = 0;
  // Skip the perf_event_open probe and use the CPU-clock timer backend
  // (deterministic backend choice for tests; see prof.h).
  bool profiler_force_timer = false;
};

class service_node final : public node_services {
 public:
  using send_datagram_fn = std::function<void(peer_id to, bytes datagram)>;
  using scheduler_fn = std::function<void(nanoseconds delay, std::function<void()> fn)>;

  service_node(sn_config config, const clock& clk, send_datagram_fn send_datagram,
               scheduler_fn scheduler, const router* route);
  ~service_node() override;

  // Wire this to the underlying network (simulator node handler / socket).
  void on_datagram(peer_id from, const_byte_span datagram);

  // Batched ingress from one peer: pipe decryption, terminus dispatch and
  // the slow-path drain all run once per batch instead of once per packet.
  void on_datagram_batch(peer_id from, std::span<const const_byte_span> datagrams);

  // Batched ingress from mixed sources (what a udp recv_batch or an event
  // loop hands over): consecutive runs from the same peer are fed through
  // the batched path together, preserving arrival order.
  void on_datagrams(std::span<const std::pair<peer_id, bytes>> datagrams);

  // Zero-copy ingress (ISSUE 6): datagrams arrive as refcounted slab views
  // straight from udp_endpoint::recv_batch_views. Data messages are
  // decrypted in place inside the slab (pipe_manager::on_datagram_batch_mut)
  // and the terminus consumes packet_views aliasing the slab — no
  // per-packet payload copy anywhere on the fast path. The slabs recycle
  // when the caller drops its views.
  void on_datagram_views(std::span<std::pair<peer_id, buf::pkt_view>> datagrams);

  // Applies completed slow-path responses still queued in the channel and
  // returns how many. Ingress batches already end with this drain; owners
  // with idle periods may call it from a timer.
  std::size_t poll();

  // Polls until no slow-path exchange is outstanding, or until `timeout`.
  bool wait_idle(std::chrono::milliseconds timeout = std::chrono::milliseconds(1000));

  // node_services (what the execution environment sees).
  peer_id node_id() const override { return config_.id; }
  std::uint16_t edomain() const override { return config_.edomain; }
  const clock& node_clock() const override { return clock_; }
  void send(peer_id to, const ilp::ilp_header& header, bytes payload) override;
  void schedule(nanoseconds delay, std::function<void()> fn) override;
  std::optional<peer_id> next_hop(edge_addr dest) const override;
  decision_cache& cache() override { return cache_; }
  metrics_registry& metrics() override { return metrics_; }
  // Purges every cached forward naming `hop` — liveness calls this when a
  // peer goes down so established flows re-resolve on the slow path
  // instead of blackholing into the dead adjacency until LRU eviction.
  void invalidate_next_hop(peer_id hop);

  exec_env& env() { return *env_; }
  ilp::pipe_manager& pipes() { return pipes_; }
  pipe_terminus& terminus() { return *terminus_; }
  const terminus_stats& datapath_stats() const { return terminus_->stats(); }
  trace::tracer& packet_tracer() { return tracer_; }

  // ---- cross-hop path tracing (ISSUE 5) ----

  // The node's recorder (terminus, service dispatch, node events).
  trace::path_recorder& path_recorder() { return path_rec_; }

  // Appends every span buffered in the recorder to `out`; returns how many
  // were drained. Owner-thread only (the ring is SPSC with this thread as
  // the consumer).
  std::size_t drain_path_spans(std::vector<trace::path_span>& out);

  // The node-local collector fed by export_trace_json() and the
  // observability push; mostly useful to tests and introspection tooling.
  trace::trace_collector& traces() { return collector_; }

  // Drains pending spans into the local collector and returns its JSON
  // path-trace dump (newest first, `limit` 0 = all retained traces).
  std::string export_trace_json(std::size_t limit = 0);

  // Observability push (edomain plane): every `interval` the node hands
  // its metric registry and the spans drained from its recorder to
  // `sink` (domain_core's observability plane, a test, a file writer).
  // max_pushes == 0 runs until stop_observability_push().
  using observe_sink =
      std::function<void(const metrics_registry& reg, std::span<const trace::path_span> spans)>;
  void start_observability_push(nanoseconds interval, observe_sink sink,
                                std::uint64_t max_pushes = 0);
  void stop_observability_push() { ++observe_gen_; }

  // Worker shards behind this SN: always 0, the datapath is inline. Kept
  // with the two shard accessors below for callers written against the
  // former sharded mode, which iterate k < worker_count() (so never).
  std::size_t worker_count() const { return 0; }
  // There are no shards: every `shard` is out of range and throws
  // std::out_of_range. Read datapath_stats() and cache().stats() instead.
  const cache_stats& shard_cache_stats(std::size_t shard) const;
  const terminus_stats& shard_terminus_stats(std::size_t shard) const;

  // Stats snapshot: every registered metric with per-second rates for the
  // monotone kinds, computed against the previous snapshot (the paper's
  // "operable at scale" requirement — ISSUE 2).
  std::string stats_snapshot();

  // Prometheus exposition of the same registry.
  std::string export_prometheus();

  // Merges the node's registry into `out` (merging is additive, so call
  // with a fresh registry for a point-in-time copy).
  void merge_metrics_into(metrics_registry& out) const;

  // Periodic exposition over the node's scheduler. max_reports == 0 runs
  // until stop_stats_reporting(); a bound makes it usable under the
  // run-until-quiet simulator loop.
  void start_stats_reporting(nanoseconds interval, std::function<void(const std::string&)> sink,
                             std::uint64_t max_reports = 0);
  void stop_stats_reporting() { ++stats_gen_; }

  // Establishes a long-lived pipe (inter-edomain peering, §3.2).
  void peer_with(peer_id other) { pipes_.connect(other); }

  // Rekey schedule hook.
  void rotate_keys() {
    pipes_.rotate_all();
    emit_node_event(trace::kAnnoRekey, config_.id);
  }

  // Fault-tolerance: checkpoint covers service-module state and off-path
  // storage. The decision cache is deliberately NOT checkpointed — it is
  // soft state, and correctness never depends on it (Appendix B).
  bytes checkpoint() { return env_->checkpoint(); }
  void restore(const_byte_span snapshot) { env_->restore(snapshot); }

  // ---- fault-tolerant lifecycle (DESIGN.md §10) ----

  // Stops the recurring keepalive tick armed by keepalive_interval > 0
  // (lets deterministic tests drain the simulator event queue).
  void stop_liveness() { ++liveness_gen_; }

  // Per-service shed verdict (pass or drop) applied when the slow path
  // saturates.
  void set_shed_verdict(ilp::service_id service, const decision& d) {
    terminus_->set_shed_verdict(service, d);
  }

  // Full warm-state checkpoint: the exec_env envelope (module state +
  // off-path storage) plus the decision cache's warm entries (soft state,
  // but restoring it lets a standby take over without a cold-start miss
  // storm).
  bytes checkpoint_full();
  // Restores a checkpoint_full() snapshot into this (standby) SN. Throws
  // interedge::serial_error on malformed input.
  void restore_full(const_byte_span snapshot);

  // Checkpoint scheduler: every `interval`, takes checkpoint_full() and
  // hands it to `sink` (the failover store). max_checkpoints == 0 runs
  // until stop_checkpointing(); a bound keeps the simulator's event queue
  // drainable. Metrics: sn.checkpoint.taken / sn.checkpoint.bytes.
  void start_checkpointing(nanoseconds interval, std::function<void(bytes)> sink,
                           std::uint64_t max_checkpoints = 0);
  void stop_checkpointing() { ++checkpoint_gen_; }

  // ---- SLO health plane (ISSUE 7, DESIGN.md §13) ----

  struct health_config {
    nanoseconds interval = std::chrono::milliseconds(100);
    // Sliding-window store fed from the node registry every tick.
    timeseries_store::config series;
    // Burn-rate policy + per-service targets evaluated every tick.
    slo::burn_windows windows;
    std::vector<slo::slo_target> targets;
    // Structured alert fan-out (every SLO state transition).
    std::function<void(const slo::slo_alert&)> alert_sink;
    // Receives the frozen black-box JSON dump, once per freeze.
    std::function<void(const std::string& json)> blackbox_sink;
  };

  // Arms the health tick: saturation gauges, registry snapshot into the
  // timeseries ring, SLO evaluation, black-box triggers.
  // max_ticks == 0 runs until stop_health_plane() (bound it under the
  // run-until-quiet simulator loop, like every other recurring tick).
  void start_health_plane(health_config cfg, std::uint64_t max_ticks = 0);
  void stop_health_plane() { ++health_gen_; }

  // Health-plane introspection (null before start_health_plane).
  const timeseries_store* health_series() const { return health_ts_.get(); }
  const slo::slo_monitor* health_slos() const { return health_slo_.get(); }

  // The black-box flight recorder (null when blackbox_capacity == 0).
  flight_recorder* blackbox() { return blackbox_.get(); }
  // Postmortem dump (empty JSON object when the recorder is disabled).
  // With the profiler armed, the dump carries a "hot_stacks" table — the
  // top-N snapshot last rendered by a health tick / profile_refresh(),
  // read lock-free so a freeze-path dump never blocks on profiler state.
  std::string dump_blackbox_json() const;

  // ---- continuous profiling plane (ISSUE 10, DESIGN.md §15) ----

  // Null when profiler_hz == 0. The constructing thread registers as
  // "control".
  prof::profiler* profiler() { return profiler_.get(); }

  // Drains pending samples and refreshes the postmortem hot-stack
  // snapshot — what a health tick does, callable on demand (tools, tests,
  // pre-dump). Owner-thread side; no-op without a profiler.
  void profile_refresh();

  // FlameGraph-collapsed folded stacks / profile JSON after an implicit
  // drain (empty string / "{}" without a profiler). The exposition
  // counterparts of export_prometheus for the profiling plane.
  std::string export_profile_folded();
  std::string export_profile_json();

 private:
  // Generation of one self-rescheduling periodic loop (stats, observe
  // push, liveness, checkpoint, health). start_periodic and the stop_*
  // calls bump it; a scheduled tick runs only while the generation it was
  // armed under is still current, so a stopped chain can never fire again
  // or outlive a later restart.
  using loop_gen = std::uint64_t;

  slowpath_response handle_slowpath(slowpath_request req);
  // Emits a trace_id == 0 node event span (peer-down, failover, rekey) the
  // collector time-correlates with traces crossing this node. No-op with
  // path tracing disabled.
  void emit_node_event(std::uint16_t annotations, std::uint64_t correlate);
  // Runs `tick` every `interval` until `gen` moves on, or `max_runs` times
  // (0 = unbounded).
  void start_periodic(loop_gen& gen, nanoseconds interval, std::uint64_t max_runs,
                      std::function<void()> tick);
  void schedule_periodic(loop_gen& gen, loop_gen armed, nanoseconds interval,
                         std::uint64_t remaining, std::shared_ptr<std::function<void()>> tick);
  void health_tick();
  // Point-in-time saturation/loss gauges (slow-path lag, path-span drop
  // accounting) refreshed before any snapshot leaves the node.
  void refresh_health_gauges();
  // Profiler drain + hot-stack snapshot + per-stage share gauges, folded
  // into every health tick before the registry snapshot is taken.
  void profile_tick();

  sn_config config_;
  const clock& clock_;
  send_datagram_fn send_datagram_;
  scheduler_fn scheduler_;
  const router* router_;

  decision_cache cache_;
  metrics_registry metrics_;
  trace::tracer tracer_;
  trace::path_recorder path_rec_;
  trace::trace_collector collector_;
  stats_reporter stats_reporter_;
  bool have_snapshot_ = false;
  loop_gen stats_gen_ = 0;
  loop_gen liveness_gen_ = 0;
  loop_gen checkpoint_gen_ = 0;
  loop_gen observe_gen_ = 0;
  loop_gen health_gen_ = 0;
  counter* m_checkpoint_taken_ = nullptr;
  counter* m_checkpoint_bytes_ = nullptr;
  time_point last_snapshot_{};
  std::unique_ptr<exec_env> env_;
  std::unique_ptr<inline_channel> channel_;
  std::unique_ptr<pipe_terminus> terminus_;
  ilp::pipe_manager pipes_;

  // ---- SLO health plane state (ISSUE 7) ----
  std::unique_ptr<flight_recorder> blackbox_;
  std::unique_ptr<timeseries_store> health_ts_;
  std::unique_ptr<slo::slo_monitor> health_slo_;
  health_config health_cfg_;
  std::uint64_t last_shed_total_ = 0;  // shed-watermark trigger edge detector
  std::vector<slo::slo_alert> health_alert_scratch_;

  // ---- continuous profiling plane state (ISSUE 10) ----
  std::unique_ptr<prof::profiler> profiler_;
  // Rendered top-N hot-stack JSON, refreshed by profile_tick(). The
  // freeze-path postmortem dump loads it lock-free — rendering (which
  // takes the profiler mutex) never happens on a freeze path.
  std::atomic<std::shared_ptr<const std::string>> hot_stacks_snapshot_;
  // Per-stage self-time baselines for the share gauges.
  std::array<std::uint64_t, trace::kStageCount> last_stage_self_ns_{};

  // Batch-path scratch, reused across calls.
  std::vector<trace::path_span> span_drain_scratch_;
  std::vector<packet_view> view_batch_scratch_;
  std::vector<const_byte_span> span_scratch_;
  std::vector<byte_span> mut_span_scratch_;
};

// Bridges a module_result into the channel response format. Shared with the
// bench harness, which runs exec_env behind threaded channels.
slowpath_response to_response(std::uint64_t token, module_result result);

}  // namespace interedge::core

// Datapath stage timing: stage histograms interned into the
// registry, span nesting through the thread-local current tracer, and the
// per-stage self-time totals that feed the profiler's share gauges.
#include "common/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace interedge::trace {
namespace {

// Burns at least `us` microseconds of wall time, so a span around it
// measures a nonzero elapsed time on any clock resolution.
void spin_us(std::uint64_t us) {
  const std::uint64_t until = now_ns() + us * 1000;
  volatile std::uint64_t acc = 1;
  while (now_ns() < until) acc = acc * 6364136223846793005ull + 1;
}

TEST(Tracer, StageHistogramsAreInternedIntoRegistry) {
  metrics_registry reg;
  tracer t(reg);
  const auto families = reg.family_names();
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const std::string name = std::string("sn.stage.") + stage_name(static_cast<stage>(i));
    EXPECT_NE(std::find(families.begin(), families.end(), name), families.end())
        << "missing " << name;
  }
  t.record(stage::decrypt, 1500, 1500);
  EXPECT_EQ(reg.get_histogram("sn.stage.decrypt").count(), 1u);
  EXPECT_EQ(&t.stage_hist(stage::decrypt), &reg.get_histogram("sn.stage.decrypt"));
  EXPECT_EQ(t.self_ns(stage::decrypt), 1500u);
}

TEST(Span, InertWithoutCurrentTracer) {
  // No scoped_tracer installed: spans are no-ops (one TLS load each), and
  // an untraced span is not a parent that later spans report into.
  ASSERT_EQ(current(), nullptr);
  metrics_registry reg;
  tracer t(reg);
  {
    span untraced(stage::ingress);
    scoped_tracer install(&t);
    { span inner(stage::decrypt); }
  }
  EXPECT_EQ(current(), nullptr);
  EXPECT_EQ(t.stage_hist(stage::ingress).count(), 0u);
  EXPECT_EQ(t.stage_hist(stage::decrypt).count(), 1u);
  EXPECT_EQ(t.self_ns(stage::ingress), 0u);
}

TEST(Span, NestingRecordsEachStageOnClose) {
  metrics_registry reg;
  tracer t(reg);
  scoped_tracer install(&t);
  {
    span outer(stage::ingress);
    { span inner(stage::decrypt); }
    EXPECT_EQ(t.stage_hist(stage::decrypt).count(), 1u);  // inner closed already
    EXPECT_EQ(t.stage_hist(stage::ingress).count(), 0u);  // outer still open
  }
  EXPECT_EQ(t.stage_hist(stage::ingress).count(), 1u);
}

TEST(Span, BothStagesCredited) {
  metrics_registry reg;
  tracer t(reg);
  {
    scoped_tracer install(&t);
    ASSERT_EQ(current(), &t);
    span outer(stage::ingress);
    spin_us(200);
    {
      span inner(stage::decrypt);
      spin_us(200);
    }
  }
  EXPECT_EQ(current(), nullptr);
  EXPECT_GT(t.self_ns(stage::ingress), 0u);
  EXPECT_GT(t.self_ns(stage::decrypt), 0u);
}

TEST(Span, NestedSelfTimeSumsToOuterInclusiveTime) {
  // Self-time semantics: the outer span is credited its elapsed time
  // minus the inner span's, so the two self-times add up to exactly the
  // outer span's inclusive time (its histogram sample) — a double-counting
  // implementation would exceed it by the whole inner span.
  metrics_registry reg;
  tracer t(reg);
  {
    scoped_tracer install(&t);
    span outer(stage::slowpath);
    spin_us(100);
    {
      span inner(stage::service);
      spin_us(1000);
    }
  }
  const std::uint64_t outer_inclusive = t.stage_hist(stage::slowpath).sum();
  const std::uint64_t inner_inclusive = t.stage_hist(stage::service).sum();
  EXPECT_EQ(t.self_ns(stage::slowpath) + t.self_ns(stage::service), outer_inclusive);
  EXPECT_EQ(t.self_ns(stage::service), inner_inclusive);
  EXPECT_LT(t.self_ns(stage::slowpath), outer_inclusive);
  EXPECT_GE(inner_inclusive, 1'000'000u);
}

TEST(Span, SiblingsUnderOneParentAreEachSubtractedOnce) {
  metrics_registry reg;
  tracer t(reg);
  {
    scoped_tracer install(&t);
    span outer(stage::ingress);
    { span a(stage::slowpath); spin_us(100); }
    { span b(stage::service); spin_us(100); }
  }
  std::uint64_t self_total = 0;
  for (std::size_t i = 0; i < kStageCount; ++i) self_total += t.self_ns(static_cast<stage>(i));
  EXPECT_EQ(self_total, t.stage_hist(stage::ingress).sum());
}

// ---- cross-hop trace context (ISSUE 5) --------------------------------

TEST(TraceContext, EncodeDecodeRoundTrip) {
  trace_context ctx;
  ctx.trace_id = 0xabcdef0123456789ull;
  ctx.parent_span = 0x1122334455667788ull;
  ctx.hop_count = 3;
  ctx.flags = kTraceCtxSampled;
  const bytes wire = ctx.encode();
  ASSERT_EQ(wire.size(), kTraceCtxSize);
  EXPECT_EQ(wire[0], kTraceCtxVersion);
  const auto back = trace_context::decode(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, ctx);
  EXPECT_TRUE(back->sampled());
}

TEST(TraceContext, ShortBufferAndUnknownVersionRejected) {
  trace_context ctx;
  ctx.trace_id = 7;
  bytes wire = ctx.encode();
  // Short input: a truncated TLV must read as "untraced", not garbage.
  EXPECT_FALSE(trace_context::decode(const_byte_span(wire.data(), wire.size() - 1)).has_value());
  // Unknown version: an un-upgraded peer's view of a future layout.
  wire[0] = kTraceCtxVersion + 1;
  EXPECT_FALSE(trace_context::decode(wire).has_value());
}

TEST(TraceContext, TrailingBytesTolerated) {
  trace_context ctx;
  ctx.trace_id = 42;
  ctx.hop_count = 2;
  bytes wire = ctx.encode();
  wire.push_back(0xaa);  // future minor revision appends a field
  const auto back = trace_context::decode(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->trace_id, 42u);
  EXPECT_EQ(back->hop_count, 2);
}

// ---- path_recorder ----------------------------------------------------

TEST(PathRecorder, OriginSamplerIsDeterministic) {
  path_recorder rec({.node = 1, .sample_shift = 2});
  std::vector<bool> hits;
  for (int i = 0; i < 8; ++i) hits.push_back(rec.sample_tick());
  const std::vector<bool> expected = {true, false, false, false, true, false, false, false};
  EXPECT_EQ(hits, expected);

  path_recorder every({.node = 1, .sample_shift = 0});
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(every.sample_tick());
}

TEST(PathRecorder, IdsAreDeterministicPerNodeAndDistinctAcrossNodes) {
  path_recorder a1({.node = 5}), a2({.node = 5}), b({.node = 6});
  // Same node, same call sequence: identical ids (simnet replay).
  EXPECT_EQ(a1.new_trace_id(), a2.new_trace_id());
  EXPECT_EQ(a1.next_span_id(), a2.next_span_id());
  // Different nodes never collide at the same sequence position.
  path_recorder c({.node = 5});
  EXPECT_NE(c.new_trace_id(), b.new_trace_id());
  EXPECT_NE(c.next_span_id(), b.next_span_id());
  // Ids are never 0 (0 means "node event" / "no parent").
  EXPECT_NE(a1.new_trace_id(), 0u);
  EXPECT_NE(a1.next_span_id(), 0u);
}

TEST(PathRecorder, EmitDrainPreservesOrderAndCountsFullRingDrops) {
  path_recorder rec({.node = 3, .capacity = 4});
  for (std::uint64_t i = 1; i <= 20; ++i) {
    path_span s;
    s.trace_id = 9;
    s.span_id = i;
    rec.emit(s);
  }
  EXPECT_EQ(rec.emitted() + rec.dropped(), 20u);
  EXPECT_GT(rec.dropped(), 0u);  // tracing never blocks: full ring = drop
  std::vector<path_span> out;
  while (rec.drain(out) > 0) {
  }
  ASSERT_EQ(out.size(), rec.emitted());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].span_id, i + 1);  // FIFO
  }
}

TEST(PathRecorder, InjectedClockDrivesTimestamps) {
  manual_clock clk;
  clk.advance(std::chrono::nanoseconds(12345));
  path_recorder rec({.node = 2, .clk = &clk});
  EXPECT_EQ(rec.now(), 12345u);
  clk.advance(std::chrono::nanoseconds(55));
  EXPECT_EQ(rec.now(), 12400u);
}

TEST(ScopedTracer, RestoresPreviousTracer) {
  metrics_registry reg;
  tracer a(reg), b(reg);
  EXPECT_EQ(current(), nullptr);
  {
    scoped_tracer sa(&a);
    EXPECT_EQ(current(), &a);
    {
      scoped_tracer sb(&b);
      EXPECT_EQ(current(), &b);
    }
    EXPECT_EQ(current(), &a);
  }
  EXPECT_EQ(current(), nullptr);
}

}  // namespace
}  // namespace interedge::trace

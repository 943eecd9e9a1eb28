// Path-trace reassembly (ISSUE 5): hop grouping and wire-gap attribution,
// idempotent intake under duplication, bounded-table eviction, event
// correlation, and — for the sanitizer CI — concurrent ingest vs assembly.
#include "common/trace_collector.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace interedge::trace {
namespace {

path_span make_span(std::uint64_t trace_id, std::uint64_t span_id, std::uint64_t node,
                    std::uint8_t hop, span_kind kind, std::uint64_t start_ns,
                    std::uint64_t duration_ns, std::uint16_t annotations = 0) {
  path_span s;
  s.trace_id = trace_id;
  s.span_id = span_id;
  s.node = node;
  s.hop_count = hop;
  s.kind = kind;
  s.start_ns = start_ns;
  s.duration_ns = duration_ns;
  s.annotations = annotations;
  s.service = 1;
  s.connection = 77;
  return s;
}

// host(10) -> SN(2) -> SN(3) -> host(11), spans arriving out of order the
// way independent per-node drains deliver them.
std::vector<path_span> three_hop_trace(std::uint64_t id) {
  return {
      make_span(id, 31, 3, 2, span_kind::hop_fast, 3000, 200),
      make_span(id, 11, 10, 0, span_kind::origin, 0, 500),
      make_span(id, 41, 11, 3, span_kind::deliver, 4000, 100),
      make_span(id, 21, 2, 1, span_kind::hop_fast, 1000, 300),
      make_span(id, 22, 2, 1, span_kind::forward, 1100, 50),
  };
}

TEST(TraceCollector, ReassemblesHopsInOrderWithWireGaps) {
  trace_collector col;
  for (const path_span& s : three_hop_trace(9)) col.ingest(s);
  const auto t = col.assemble(9);
  ASSERT_TRUE(t.has_value());
  EXPECT_TRUE(t->complete);
  EXPECT_EQ(t->service, 1u);
  EXPECT_EQ(t->connection, 77u);
  EXPECT_EQ(t->total_ns, 4100u);  // origin start 0 -> deliver end 4100

  ASSERT_EQ(t->hops.size(), 4u);
  const std::vector<std::uint64_t> nodes = {10, 2, 3, 11};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(t->hops[i].node, nodes[i]);
    EXPECT_EQ(t->hops[i].hop_count, i);
  }
  // Hop 1 holds the fast-path span (1000..1300) and its forward sub-span
  // (1100..1150): first start 1000, last end 1300.
  EXPECT_EQ(t->hops[1].spans.size(), 2u);
  EXPECT_EQ(t->hops[1].hop_ns, 300u);
  // Queue + wire time between hops: origin ends 500, hop 1 starts 1000.
  EXPECT_EQ(t->hops[0].wire_gap_ns, 0u);
  EXPECT_EQ(t->hops[1].wire_gap_ns, 500u);
  EXPECT_EQ(t->hops[2].wire_gap_ns, 1700u);  // 3000 - 1300
  EXPECT_EQ(t->hops[3].wire_gap_ns, 800u);   // 4000 - 3200
}

TEST(TraceCollector, MissingDeliverMeansIncomplete) {
  trace_collector col;
  auto spans = three_hop_trace(5);
  spans.erase(spans.begin() + 2);  // drop the deliver span
  col.ingest(std::span<const path_span>(spans));
  const auto t = col.assemble(5);
  ASSERT_TRUE(t.has_value());
  EXPECT_FALSE(t->complete);
  EXPECT_EQ(t->total_ns, 0u);
}

TEST(TraceCollector, DuplicateSpanIdsNeverDoubleCount) {
  trace_collector col;
  const auto spans = three_hop_trace(7);
  col.ingest(std::span<const path_span>(spans));
  // A replayed batch AND a single duplicated emission.
  col.ingest(std::span<const path_span>(spans));
  col.ingest(spans[0]);
  EXPECT_EQ(col.duplicates_ignored(), spans.size() + 1);
  const auto t = col.assemble(7);
  ASSERT_TRUE(t.has_value());
  std::size_t total = 0;
  for (const hop_breakdown& hb : t->hops) total += hb.spans.size();
  EXPECT_EQ(total, spans.size());
  EXPECT_EQ(t->hops[1].hop_ns, 300u);  // unchanged by the replays
}

TEST(TraceCollector, BoundedTableEvictsOldestTrace) {
  trace_collector col(2);
  col.ingest(make_span(1, 1, 10, 0, span_kind::origin, 0, 10));
  col.ingest(make_span(2, 2, 10, 0, span_kind::origin, 100, 10));
  col.ingest(make_span(3, 3, 10, 0, span_kind::origin, 200, 10));
  EXPECT_EQ(col.trace_count(), 2u);
  EXPECT_EQ(col.evicted_traces(), 1u);
  EXPECT_FALSE(col.assemble(1).has_value());
  EXPECT_TRUE(col.assemble(3).has_value());
}

TEST(TraceCollector, EventsAnnotateOnPathTracesInsideWindow) {
  trace_collector col;
  for (const path_span& s : three_hop_trace(9)) col.ingest(s);
  // Failover at on-path node 3 inside the window: folds in.
  col.ingest(make_span(0, 101, 3, 0, span_kind::event, 3500, 0, kAnnoFailover));
  // Peer-down at node 99 (off-path): ignored.
  col.ingest(make_span(0, 102, 99, 0, span_kind::event, 3500, 0, kAnnoPeerDown));
  // Rekey at node 2 but far outside the window (+10s): ignored.
  col.ingest(make_span(0, 103, 2, 0, span_kind::event, 14'100'000'000ull, 0, kAnnoRekey));
  const auto t = col.assemble(9);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->annotations, kAnnoFailover);
}

TEST(TraceCollector, ExportJsonCarriesHopsAndAccounting) {
  trace_collector col;
  for (const path_span& s : three_hop_trace(9)) col.ingest(s);
  col.ingest(make_span(0, 101, 3, 0, span_kind::event, 3500, 0, kAnnoFailover));
  const std::string out = col.export_json();
  EXPECT_NE(out.find("\"trace_id\":9"), std::string::npos);
  EXPECT_NE(out.find("\"complete\":true"), std::string::npos);
  EXPECT_NE(out.find("\"kind\":\"origin\""), std::string::npos);
  EXPECT_NE(out.find("\"kind\":\"deliver\""), std::string::npos);
  EXPECT_NE(out.find("\"wire_gap_ns\":500"), std::string::npos);
  EXPECT_NE(out.find("\"annotations\":\"failover\""), std::string::npos);
  EXPECT_NE(out.find("\"spans_seen\":6"), std::string::npos);
  const std::string text = col.render_text();
  EXPECT_NE(text.find("complete"), std::string::npos);
  EXPECT_NE(text.find("wire+queue=500ns"), std::string::npos);
}

// Sanitizer target: several producers' drains and the observability push
// tick ingest concurrently while an operator assembles. tsan must see clean
// locking; the final counts must be exact.
TEST(TraceCollector, ConcurrentIngestAndAssembleIsClean) {
  trace_collector col(4096);
  constexpr int kThreads = 4;
  constexpr int kTracesPerThread = 64;
  std::vector<std::thread> producers;
  for (int th = 0; th < kThreads; ++th) {
    producers.emplace_back([&col, th] {
      for (int i = 0; i < kTracesPerThread; ++i) {
        const std::uint64_t id = static_cast<std::uint64_t>(th) * 1000 + i + 1;
        for (const path_span& s : three_hop_trace(id)) col.ingest(s);
      }
    });
  }
  std::thread reader([&col] {
    for (int i = 0; i < 50; ++i) {
      const auto all = col.assemble_all();
      for (const path_trace& t : all) EXPECT_NE(t.trace_id, 0u);
      col.export_json(8);
    }
  });
  for (auto& t : producers) t.join();
  reader.join();

  EXPECT_EQ(col.trace_count(), static_cast<std::size_t>(kThreads) * kTracesPerThread);
  EXPECT_EQ(col.spans_seen(), static_cast<std::uint64_t>(kThreads) * kTracesPerThread * 5);
  for (int th = 0; th < kThreads; ++th) {
    const auto t = col.assemble(static_cast<std::uint64_t>(th) * 1000 + 1);
    ASSERT_TRUE(t.has_value());
    EXPECT_TRUE(t->complete);
  }
}

}  // namespace
}  // namespace interedge::trace

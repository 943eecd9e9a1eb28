#include "common/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace interedge {
namespace {

TEST(Counter, AddAndReset) {
  counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, ConcurrentAddsAreLossless) {
  counter c;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Histogram, SmallValuesExact) {
  histogram h;
  for (std::uint64_t v = 0; v < 16; ++v) h.record(v);
  EXPECT_EQ(h.count(), 16u);
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.max(), 15u);
}

TEST(Histogram, QuantileWithinRelativeError) {
  histogram h;
  for (std::uint64_t v = 1; v <= 100000; ++v) h.record(v);
  const std::uint64_t p50 = h.quantile(0.5);
  const std::uint64_t p99 = h.quantile(0.99);
  EXPECT_NEAR(static_cast<double>(p50), 50000.0, 50000.0 * 0.07);
  EXPECT_NEAR(static_cast<double>(p99), 99000.0, 99000.0 * 0.07);
}

TEST(Histogram, MeanIsExact) {
  histogram h;
  h.record(10);
  h.record(20);
  h.record(30);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(Histogram, EmptyQuantileIsZero) {
  histogram h;
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, ResetClearsEverything) {
  histogram h;
  h.record(1000);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(Histogram, LargeValuesDoNotOverflowBuckets) {
  histogram h;
  h.record(0xffffffffffffffffull);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), 0xffffffffffffffffull);
}

TEST(MetricsRegistry, NamedAccessReturnsSameObject) {
  metrics_registry reg;
  reg.get_counter("packets").add(5);
  EXPECT_EQ(reg.get_counter("packets").value(), 5u);
  reg.get_histogram("latency").record(100);
  EXPECT_EQ(reg.get_histogram("latency").count(), 1u);
}

TEST(MetricsRegistry, ReportContainsNames) {
  metrics_registry reg;
  reg.get_counter("rx_packets").add(3);
  const std::string report = reg.report();
  EXPECT_NE(report.find("rx_packets = 3"), std::string::npos);
}

TEST(Gauge, SetAddSubReset) {
  gauge g;
  EXPECT_EQ(g.value(), 0);
  g.set(10);
  g.add(5);
  g.sub(20);
  EXPECT_EQ(g.value(), -5);  // signed: dips below zero don't wrap
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(ShardedCounter, FoldsAllStripes) {
  sharded_counter c;
  c.add();
  c.add(9);
  EXPECT_EQ(c.value(), 10u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ShardedCounter, ConcurrentAddsAreLossless) {
  sharded_counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Histogram, ConcurrentRecordsKeepCountAndQuantileSane) {
  histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) {
        h.record(static_cast<std::uint64_t>(i % 1000) + 1);
        // Quantile readers race the writers; the scan must never answer
        // from an empty bucket (the seed bug returned max() here).
        const std::uint64_t q = h.quantile(0.99);
        ASSERT_LE(q, 1100u);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.max(), 1000u);
}

TEST(MetricsRegistry, InterningIsIdempotent) {
  metrics_registry reg;
  const metric_id a = reg.intern(metric_kind::counter, "sn.rx.pkts");
  const metric_id b = reg.intern(metric_kind::counter, "sn.rx.pkts");
  EXPECT_EQ(a, b);
  EXPECT_EQ(&reg.counter_at(a), &reg.get_counter("sn.rx.pkts"));
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, KindsDoNotAlias) {
  metrics_registry reg;
  const metric_id c = reg.intern(metric_kind::counter, "latency");
  const metric_id h = reg.intern(metric_kind::histogram, "latency");
  EXPECT_NE(c, h);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistry, LabelsDistinguishSeries) {
  metrics_registry reg;
  counter& odns = reg.get_counter("sn.rx.pkts", {{"service", "odns"}});
  counter& vpn = reg.get_counter("sn.rx.pkts", {{"service", "vpn"}});
  counter& bare = reg.get_counter("sn.rx.pkts");
  EXPECT_NE(&odns, &vpn);
  EXPECT_NE(&odns, &bare);
  odns.add(2);
  EXPECT_EQ(reg.get_counter("sn.rx.pkts", {{"service", "odns"}}).value(), 2u);
  EXPECT_EQ(vpn.value(), 0u);
  // All three series share one family name.
  const auto families = reg.family_names();
  EXPECT_EQ(families, std::vector<std::string>{"sn.rx.pkts"});
  EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricsRegistry, RenderMetricKey) {
  EXPECT_EQ(render_metric_key("sn.rx.pkts", {}), "sn.rx.pkts");
  EXPECT_EQ(render_metric_key("sn.rx.pkts", {{"service", "odns"}}),
            "sn.rx.pkts{service=\"odns\"}");
  EXPECT_EQ(render_metric_key("x", {{"a", "1"}, {"b", "2"}}), "x{a=\"1\",b=\"2\"}");
}

TEST(MetricsRegistry, ReportIsDeterministicAcrossRegistrationOrder) {
  metrics_registry fwd, rev;
  fwd.get_counter("b.count").add(1);
  fwd.get_gauge("a.depth").set(7);
  fwd.get_histogram("c.lat").record(100);
  rev.get_histogram("c.lat").record(100);
  rev.get_gauge("a.depth").set(7);
  rev.get_counter("b.count").add(1);
  EXPECT_EQ(fwd.report(), rev.report());
  EXPECT_NE(fwd.report().find("a.depth = 7 (gauge)"), std::string::npos);
  EXPECT_NE(fwd.report().find("b.count = 1"), std::string::npos);
  EXPECT_NE(fwd.report().find("c.lat: count=1"), std::string::npos);
  // Scalars come before histograms regardless of name order.
  EXPECT_LT(fwd.report().find("b.count"), fwd.report().find("c.lat"));
}

TEST(MetricsRegistry, ConcurrentInterningYieldsOneSeries) {
  metrics_registry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < kPerThread; ++i) {
        reg.get_counter("shared.hits").add();
        reg.get_counter("private." + std::to_string(t)).add();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.size(), 1u + kThreads);
  EXPECT_EQ(reg.get_counter("shared.hits").value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistry, ExportPrometheusShape) {
  metrics_registry reg;
  reg.get_counter("sn.rx.pkts", {{"service", "odns"}}).add(4);
  reg.get_gauge("sn.slowpath.in_flight").set(2);
  reg.get_histogram("sn.stage.decrypt").record(150);
  const std::string out = reg.export_prometheus();
  // Dotted names sanitize to underscores; one TYPE line per family.
  EXPECT_NE(out.find("# TYPE sn_rx_pkts counter"), std::string::npos);
  EXPECT_NE(out.find("sn_rx_pkts{service=\"odns\"} 4"), std::string::npos);
  EXPECT_NE(out.find("# TYPE sn_slowpath_in_flight gauge"), std::string::npos);
  EXPECT_NE(out.find("sn_slowpath_in_flight 2"), std::string::npos);
  EXPECT_NE(out.find("# TYPE sn_stage_decrypt summary"), std::string::npos);
  EXPECT_NE(out.find("sn_stage_decrypt{quantile=\"0.99\"}"), std::string::npos);
  EXPECT_NE(out.find("sn_stage_decrypt_count 1"), std::string::npos);
  // No dotted metric name leaks through unsanitized (label/quantile
  // values may legitimately contain dots).
  EXPECT_EQ(out.find("sn.rx.pkts"), std::string::npos);
  EXPECT_EQ(out.find("sn.stage.decrypt"), std::string::npos);
}

TEST(MetricsRegistry, ExportPrometheusEscapesLabelValues) {
  // Regression (ISSUE 5 satellite): backslash, double-quote and newline in
  // a label VALUE must escape as \\, \" and \n — previously they leaked
  // through raw and produced malformed exposition text.
  metrics_registry reg;
  reg.get_counter("sn.rx.pkts", {{"service", "a\\b\"c\nd"}}).add(1);
  const std::string out = reg.export_prometheus();
  EXPECT_NE(out.find("sn_rx_pkts{service=\"a\\\\b\\\"c\\nd\"} 1"), std::string::npos);
  // No raw newline may survive inside the braces: every '\n' in the output
  // must terminate a complete exposition line, not split a label value.
  for (std::size_t pos = out.find('\n'); pos != std::string::npos && pos + 1 < out.size();
       pos = out.find('\n', pos + 1)) {
    EXPECT_TRUE(out[pos + 1] == '#' || out[pos + 1] == 's') << "line split at " << pos;
  }
}

TEST(MetricsRegistry, ExportJsonShape) {
  metrics_registry reg;
  reg.get_counter("sn.rx.pkts", {{"service", "odns"}}).add(4);
  reg.get_histogram("sn.stage.decrypt").record(10);
  const std::string out = reg.export_json();
  EXPECT_NE(out.find("{\"metrics\":["), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"sn.rx.pkts\""), std::string::npos);
  EXPECT_NE(out.find("\"labels\":{\"service\":\"odns\"}"), std::string::npos);
  EXPECT_NE(out.find("\"value\":4"), std::string::npos);
  EXPECT_NE(out.find("\"kind\":\"histogram\""), std::string::npos);
  EXPECT_NE(out.find("\"count\":1"), std::string::npos);
}

TEST(StatsReporter, DeltaReportComputesRates) {
  metrics_registry reg;
  counter& c = reg.get_counter("sn.rx.pkts");
  reg.get_gauge("sn.slowpath.in_flight").set(3);
  stats_reporter rep;
  c.add(10);
  rep.delta_report(reg, 0.0);  // baseline snapshot
  c.add(100);
  const std::string out = rep.delta_report(reg, 2.0);
  EXPECT_NE(out.find("sn.rx.pkts = 110 (50/s)"), std::string::npos);
  EXPECT_NE(out.find("sn.slowpath.in_flight = 3 (gauge)"), std::string::npos);
}

}  // namespace
}  // namespace interedge

// Whole-system observability (ISSUE 2): after real traffic through a
// deployment, the SN exposition surface must parse as Prometheus text,
// cover every registered metric family, show populated per-stage
// histograms, and the periodic stats hook must emit rate reports over the
// node's own scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/service_node.h"
#include "deploy/deployment.h"
#include "deploy/standard_services.h"

namespace interedge {
namespace {

using namespace std::chrono_literals;

// Splits exposition text into lines.
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    out.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

// One edomain, two SNs, two hosts exchanging delivery traffic — the hosts
// sit on *different* SNs so §3.2 direct connectivity doesn't bypass the
// SN datapath we're observing; sn_id is the sender's first hop.
struct traffic_fixture {
  deploy::deployment net;
  core::peer_id sn_id;
  host::host_stack* alice;
  host::host_stack* bob;
  int delivered = 0;

  traffic_fixture() {
    const auto dom = net.add_edomain();
    sn_id = net.add_sn(dom);
    const auto sn_b = net.add_sn(dom);
    alice = &net.add_host(dom, sn_id);
    bob = &net.add_host(dom, sn_b);
    net.interconnect();
    deploy::deploy_standard_services(net);
    bob->set_default_handler([this](const ilp::ilp_header&, bytes) { ++delivered; });
    for (int i = 0; i < 20; ++i) {
      alice->send_to(bob->addr(), ilp::svc::delivery, to_bytes("ping"));
    }
    net.run();
  }
};

TEST(Observability, PrometheusExportParsesAndCoversEveryFamily) {
  traffic_fixture f;
  ASSERT_GT(f.delivered, 0);
  core::service_node& sn = f.net.sn(f.sn_id);
  const std::string text = sn.metrics().export_prometheus();
  ASSERT_FALSE(text.empty());

  // Every line is either "# TYPE <name> <type>" or "<series> <number>".
  for (const std::string& line : lines_of(text)) {
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string rest = line.substr(7);
      const std::size_t sp = rest.find(' ');
      ASSERT_NE(sp, std::string::npos) << line;
      const std::string type = rest.substr(sp + 1);
      EXPECT_TRUE(type == "counter" || type == "gauge" || type == "summary") << line;
      continue;
    }
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    const std::string series = line.substr(0, sp);
    const std::string value = line.substr(sp + 1);
    // Series: sanitized name, optional {labels}.
    for (char c : series.substr(0, series.find('{'))) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':')
          << "bad metric char in: " << line;
    }
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    EXPECT_EQ(*end, '\0') << "non-numeric value in: " << line;
  }

  // Coverage: every family the registry knows appears as a TYPE line.
  for (const std::string& family : sn.metrics().family_names()) {
    std::string prom = family;
    for (char& c : prom) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != ':') c = '_';
    }
    EXPECT_NE(text.find("# TYPE " + prom + " "), std::string::npos)
        << "family not exported: " << family;
  }
}

TEST(Observability, DatapathCountersAndStageHistogramsPopulate) {
  traffic_fixture f;
  core::service_node& sn = f.net.sn(f.sn_id);
  const auto samples = sn.metrics().samples();
  const auto value_of = [&](const std::string& key) {
    const auto it = std::find_if(samples.begin(), samples.end(),
                                 [&](const metric_sample& s) { return s.key == key; });
    return it == samples.end() ? -1.0 : it->value;
  };
  // The hosts' packets traversed the SN: per-service rx counted, slow
  // path consulted at least once (cold cache), then forwarded onward.
  EXPECT_GT(value_of("sn.rx.pkts{service=\"delivery\"}"), 0.0);
  EXPECT_GT(value_of("sn.slowpath.pkts"), 0.0);
  EXPECT_GT(value_of("sn.tx.forwarded"), 0.0);
  // Every packet is opened inside a decrypt span and dispatched inside an
  // ingress span, and every slow-path dispatch runs inside a service span.
  // A histogram's sample value is its count.
  EXPECT_GT(value_of("sn.stage.ingress"), 0.0);
  EXPECT_GT(value_of("sn.stage.decrypt"), 0.0);
  EXPECT_GT(sn.packet_tracer().stage_hist(trace::stage::service).count(), 0u);
  // And the service dispatch family exists for the deployed module.
  const auto families = sn.metrics().family_names();
  EXPECT_NE(std::find(families.begin(), families.end(), "sn.slowpath.dispatch"),
            families.end());
}

TEST(Observability, PeriodicStatsReportingEmitsRates) {
  traffic_fixture f;
  core::service_node& sn = f.net.sn(f.sn_id);
  std::vector<std::string> reports;
  sn.start_stats_reporting(1ms, [&reports](const std::string& r) { reports.push_back(r); },
                           /*max_reports=*/3);
  f.net.run();  // runs until the bounded report schedule drains
  ASSERT_EQ(reports.size(), 3u);
  for (const std::string& r : reports) {
    EXPECT_NE(r.find("sn.rx.delivered"), std::string::npos);
    EXPECT_NE(r.find("/s)"), std::string::npos);
  }
  // Quiesced between snapshots, so later deltas are zero-rate.
  EXPECT_NE(reports[2].find("sn.rx.delivered = "), std::string::npos);
  EXPECT_NE(reports[2].find(" (0/s)"), std::string::npos);
}

TEST(Observability, ManualSnapshotTracksDeltas) {
  traffic_fixture f;
  core::service_node& sn = f.net.sn(f.sn_id);
  const std::string first = sn.stats_snapshot();
  EXPECT_NE(first.find("sn.rx.delivered"), std::string::npos);
  // More traffic, then a second snapshot: the delta shows as a rate.
  for (int i = 0; i < 5; ++i) {
    f.alice->send_to(f.bob->addr(), ilp::svc::delivery, to_bytes("more"));
  }
  f.net.run();
  const std::string second = sn.stats_snapshot();
  EXPECT_NE(second.find("sn.rx.delivered"), std::string::npos);
  EXPECT_NE(second.find("/s)"), std::string::npos);
}

}  // namespace
}  // namespace interedge

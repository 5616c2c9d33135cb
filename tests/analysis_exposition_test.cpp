// Prometheus-style exposition + the metric-naming convention lock.
//
// The exact-format tests are deliberately brittle: the exposition text is
// an external interface (scrape configs, dashboards, alert rules), so any
// change to mangling, label folding or sample layout must show up here.
#include <gtest/gtest.h>

#include <regex>
#include <set>
#include <string>

#include "analysis/exposition.hpp"
#include "analysis/metrics.hpp"
#include "common/logging.hpp"
#include "core/context.hpp"
#include "testbed/pair.hpp"

namespace xrdma {
namespace {

using analysis::MetricsRegistry;
using analysis::prometheus_name;
using analysis::prometheus_render;

std::size_t count_substr(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(PrometheusName, ManglesDotsAndFoldsPeerInfix) {
  EXPECT_EQ(prometheus_name("chan.msgs_tx"), "xrdma_chan_msgs_tx");
  EXPECT_EQ(prometheus_name("ctx.worst_poll_gap_us"),
            "xrdma_ctx_worst_poll_gap_us");
  // The per-peer infix collapses into one family name; the node id moves
  // into a label at render time.
  EXPECT_EQ(prometheus_name("health.peer.3.phi"), "xrdma_health_peer_phi");
  EXPECT_EQ(prometheus_name("health.peer.17.rtt_p99_us"),
            "xrdma_health_peer_rtt_p99_us");
  // No digits after ".peer." -> not the per-peer form; mangled literally.
  EXPECT_EQ(prometheus_name("a.peer.x.b"), "xrdma_a_peer_x_b");
}

TEST(PrometheusRender, ExactFormatLock) {
  MetricsRegistry reg;
  reg.counter("overload.tx_shed") = 3;
  reg.gauge("health.peer.1.phi") = 0.25;
  reg.gauge("health.peer.2.phi") = 1.5;
  reg.histogram("ctx.rpc_latency");  // empty: all-zero summary

  // Families render in sorted order; per-peer gauges share one # TYPE
  // header; a summary closes with its _count. Locked character-for-
  // character — this text is an external scrape interface.
  const std::string expected =
      "# TYPE xrdma_ctx_rpc_latency summary\n"
      "xrdma_ctx_rpc_latency{quantile=\"0.5\"} 0\n"
      "xrdma_ctx_rpc_latency{quantile=\"0.9\"} 0\n"
      "xrdma_ctx_rpc_latency{quantile=\"0.99\"} 0\n"
      "xrdma_ctx_rpc_latency{quantile=\"1\"} 0\n"
      "xrdma_ctx_rpc_latency_count 0\n"
      "# TYPE xrdma_health_peer_phi gauge\n"
      "xrdma_health_peer_phi{peer=\"1\"} 0.25\n"
      "xrdma_health_peer_phi{peer=\"2\"} 1.5\n"
      "# TYPE xrdma_overload_tx_shed counter\n"
      "xrdma_overload_tx_shed 3\n";
  EXPECT_EQ(prometheus_render(reg), expected);
}

TEST(PrometheusRender, PopulatedSummaryQuantilesAreOrderedAndCounted) {
  MetricsRegistry reg;
  auto& h = reg.histogram("ctx.rpc_latency");
  for (int i = 1; i <= 100; ++i) h.record(i * 1000);
  const std::string out = prometheus_render(reg);
  EXPECT_EQ(count_substr(out, "# TYPE xrdma_ctx_rpc_latency summary"), 1u);
  EXPECT_NE(out.find("xrdma_ctx_rpc_latency_count 100\n"), std::string::npos)
      << out;
  // quantile="1" must report the histogram's true max, not a bucket mid.
  EXPECT_NE(out.find(strfmt("xrdma_ctx_rpc_latency{quantile=\"1\"} %lld\n",
                            static_cast<long long>(h.max()))),
            std::string::npos)
      << out;
}

/// Eight 512 B sends over a pair that never polls.
void traffic(testbed::Pair& t) {
  ASSERT_TRUE(t.connect());
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(t.client_ch->send_msg(Buffer::make(512)), Errc::ok);
  }
  t.run(millis(20));
}

TEST(PrometheusRender, FullContextRegistryRendersEveryMetricOnce) {
  testbed::Pair t;
  traffic(t);
  analysis::ContextMetrics metrics(t.client);
  const std::string out = prometheus_render(metrics.registry());

  EXPECT_EQ(count_substr(out, "# TYPE xrdma_chan_msgs_tx counter"), 1u);
  EXPECT_NE(out.find("xrdma_chan_msgs_tx 8\n"), std::string::npos);
  // All eight per-peer gauge families fold under one header each, with the
  // node id as a label.
  EXPECT_EQ(count_substr(out, "# TYPE xrdma_health_peer_state gauge"), 1u);
  EXPECT_NE(out.find("xrdma_health_peer_state{peer=\"1\"} "),
            std::string::npos);
  // Renamed planes are exposed under their new homes only.
  EXPECT_NE(out.find("xrdma_recovery_started "), std::string::npos);
  EXPECT_NE(out.find("xrdma_overload_tx_shed "), std::string::npos);
  EXPECT_EQ(out.find("xrdma_chan_recoveries_started"), std::string::npos);
  EXPECT_EQ(out.find("xrdma_chan_tx_shed"), std::string::npos);
  // The watchdog satellite: the trip counter is part of the exposition.
  EXPECT_NE(out.find("xrdma_ctx_watchdog_trips "), std::string::npos);
}

TEST(MetricNaming, EveryContextMetricFollowsThePlaneDotNameConvention) {
  testbed::Pair t;
  traffic(t);
  analysis::ContextMetrics metrics(t.client);

  const std::set<std::string> planes = {"chan",     "ctx",    "recovery",
                                        "overload", "mem",    "health",
                                        "trace",    "integrity"};
  // `<plane>.<name>` or `<plane>.peer.<node>.<name>`; names lowercase
  // [a-z0-9_] (documented in analysis/metrics.hpp).
  const std::regex flat(R"(^([a-z]+)\.[a-z][a-z0-9_]*$)");
  const std::regex per_peer(R"(^([a-z]+)\.peer\.[0-9]+\.[a-z][a-z0-9_]*$)");
  const auto names = metrics.registry().names();
  ASSERT_FALSE(names.empty());
  for (const std::string& name : names) {
    std::smatch m;
    const bool ok = std::regex_match(name, m, flat) ||
                    std::regex_match(name, m, per_peer);
    ASSERT_TRUE(ok) << "metric name breaks the convention: " << name;
    EXPECT_TRUE(planes.count(m[1])) << "unknown plane in metric: " << name;
  }
}

}  // namespace
}  // namespace xrdma

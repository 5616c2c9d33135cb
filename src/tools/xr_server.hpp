// XR-Server: the centralized monitor daemon of Fig. 6.
//
// Every X-RDMA application runs a monitor thread that periodically pushes
// a stats snapshot (traffic counters, QP count, memory cache, RNIC health
// indexes) to a central XR-Server over the TCP management network. The
// server keeps the cluster view the dashboards and XR-Ping/XR-Stat
// aggregations are built from, and flags nodes that stop reporting.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/metrics.hpp"
#include "common/registration.hpp"
#include "core/context.hpp"
#include "sim/timer.hpp"
#include "tcpsim/tcp.hpp"
#include "testbed/cluster.hpp"

namespace xrdma::tools {

/// One node's periodic report (fixed-layout wire struct).
struct NodeReport {
  net::NodeId node = net::kInvalidNode;
  std::uint64_t seq = 0;          // report sequence number
  Nanos sent_at = 0;              // sender sim time
  std::uint32_t qp_count = 0;
  std::uint32_t channel_count = 0;
  std::uint64_t bytes_tx = 0;     // cumulative payload counters
  std::uint64_t bytes_rx = 0;
  std::uint64_t msgs_tx = 0;
  std::uint64_t msgs_rx = 0;
  std::uint64_t rnr_naks = 0;
  std::uint64_t cnps_rx = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t qp_errors = 0;
  std::uint64_t mem_occupied = 0;
  std::uint64_t mem_in_use = 0;
  std::uint64_t slow_polls = 0;
};

/// The central daemon: accepts reporter connections and keeps per-node
/// state plus derived rates.
class XrServer {
 public:
  struct NodeView {
    NodeReport last;
    Nanos last_seen = -1;
    std::uint64_t reports = 0;
    double tx_gbps = 0;  // derived from consecutive reports
    double rx_gbps = 0;
  };

  XrServer(testbed::Host& host, std::uint16_t port);
  XrServer(const XrServer&) = delete;
  XrServer& operator=(const XrServer&) = delete;

  std::size_t nodes_reporting() const { return nodes_.size(); }
  /// nullptr when the node never reported.
  const NodeView* node(net::NodeId id) const;

  /// Nodes whose last report is older than `max_age` — the "machine went
  /// dark" alarm of the monitoring system.
  std::vector<net::NodeId> stale_nodes(Nanos max_age) const;

  /// Cluster totals across the latest reports.
  NodeReport cluster_totals() const;

  /// Dashboard rendering (one row per node).
  std::string render() const;

 private:
  void on_report(const NodeReport& report);

  sim::Engine& engine_;
  std::map<net::NodeId, NodeView> nodes_;
  Registration listener_;
};

/// The per-application reporter ("X-RDMA Adm/Monitor thread" in Fig. 6):
/// samples one context and streams reports to the XR-Server.
class StatsReporter {
 public:
  StatsReporter(core::Context& ctx, testbed::Host& host,
                net::NodeId server_node, std::uint16_t server_port,
                Nanos period = millis(10));
  ~StatsReporter() { if (conn_) conn_->release(); }
  StatsReporter(const StatsReporter&) = delete;
  StatsReporter& operator=(const StatsReporter&) = delete;

  void start();
  void stop();

 private:
  NodeReport sample();
  void push();

  core::Context& ctx_;
  tcpsim::TcpStack& tcp_;
  net::NodeId server_node_;
  std::uint16_t server_port_;
  tcpsim::TcpConn* conn_ = nullptr;
  Registration dial_;  // set while a dial is out
  std::uint64_t seq_ = 0;
  sim::PeriodicTimer timer_;
};

/// Scrape endpoint: serves the Prometheus text exposition of one context's
/// MetricsRegistry over the management network. Any bytes on a fresh
/// connection count as the request (an HTTP GET line in practice); the
/// endpoint answers with a minimal HTTP/1.0 response and closes.
class MetricsEndpoint {
 public:
  MetricsEndpoint(core::Context& ctx, testbed::Host& host,
                  std::uint16_t port);
  MetricsEndpoint(const MetricsEndpoint&) = delete;
  MetricsEndpoint& operator=(const MetricsEndpoint&) = delete;

  /// The exposition body as served right now (refreshes the bridge).
  std::string text();

  std::uint64_t scrapes() const { return scrapes_; }

 private:
  analysis::ContextMetrics metrics_;
  std::uint64_t scrapes_ = 0;
  Registration listener_;
};

/// One shot scrape from `host` against a MetricsEndpoint: connects, sends a
/// GET, hands the response body (headers stripped) or the connection's
/// error to `done`. The handle owns the dial only.
Registration scrape_metrics(testbed::Host& host, net::NodeId server,
                            std::uint16_t port,
                            std::function<void(Result<std::string>)> done);

}  // namespace xrdma::tools

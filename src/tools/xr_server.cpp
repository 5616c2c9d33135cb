#include "tools/xr_server.hpp"

#include <cstdlib>
#include <cstring>

#include "analysis/exposition.hpp"
#include "common/logging.hpp"
#include "testbed/cluster.hpp"

namespace xrdma::tools {

namespace {
constexpr std::size_t kReportBytes = sizeof(NodeReport);
}

XrServer::XrServer(testbed::Host& host, std::uint16_t port)
    : engine_(host.rnic().engine()) {
  listener_ = host.tcp().listen(port, [this](tcpsim::TcpConn& conn) {
    // Per-connection reassembly buffer for the fixed-size report frames.
    auto buf = std::make_shared<std::vector<std::uint8_t>>();
    conn.set_on_error([&conn](Errc) { conn.release(); });
    conn.set_on_data([this, buf](Buffer chunk) {
      const std::size_t old = buf->size();
      buf->resize(old + chunk.size());
      if (chunk.data()) std::memcpy(buf->data() + old, chunk.data(), chunk.size());
      std::size_t off = 0;
      while (buf->size() - off >= kReportBytes) {
        NodeReport report;
        std::memcpy(&report, buf->data() + off, kReportBytes);
        off += kReportBytes;
        on_report(report);
      }
      buf->erase(buf->begin(), buf->begin() + static_cast<std::ptrdiff_t>(off));
    });
  });
}

void XrServer::on_report(const NodeReport& report) {
  NodeView& view = nodes_[report.node];
  if (view.reports > 0 && report.sent_at > view.last.sent_at) {
    const double dt = static_cast<double>(report.sent_at - view.last.sent_at);
    view.tx_gbps =
        static_cast<double>(report.bytes_tx - view.last.bytes_tx) * 8.0 / dt;
    view.rx_gbps =
        static_cast<double>(report.bytes_rx - view.last.bytes_rx) * 8.0 / dt;
  }
  view.last = report;
  view.last_seen = engine_.now();
  ++view.reports;
}

const XrServer::NodeView* XrServer::node(net::NodeId id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : &it->second;
}

std::vector<net::NodeId> XrServer::stale_nodes(Nanos max_age) const {
  std::vector<net::NodeId> out;
  const Nanos now = engine_.now();
  for (const auto& [id, view] : nodes_) {
    if (now - view.last_seen > max_age) out.push_back(id);
  }
  return out;
}

NodeReport XrServer::cluster_totals() const {
  NodeReport total;
  for (const auto& [id, view] : nodes_) {
    total.qp_count += view.last.qp_count;
    total.channel_count += view.last.channel_count;
    total.bytes_tx += view.last.bytes_tx;
    total.bytes_rx += view.last.bytes_rx;
    total.msgs_tx += view.last.msgs_tx;
    total.msgs_rx += view.last.msgs_rx;
    total.rnr_naks += view.last.rnr_naks;
    total.cnps_rx += view.last.cnps_rx;
    total.retransmits += view.last.retransmits;
    total.qp_errors += view.last.qp_errors;
    total.mem_occupied += view.last.mem_occupied;
    total.mem_in_use += view.last.mem_in_use;
    total.slow_polls += view.last.slow_polls;
  }
  return total;
}

std::string XrServer::render() const {
  std::string out = strfmt(
      "%-5s %-8s %-6s %-6s %9s %9s %7s %6s %6s %9s\n", "node", "reports",
      "qps", "chans", "tx_gbps", "rx_gbps", "rnr", "cnp", "retx", "mem_MB");
  for (const auto& [id, view] : nodes_) {
    out += strfmt("%-5u %-8llu %-6u %-6u %9.2f %9.2f %7llu %6llu %6llu %9.1f\n",
                  id, static_cast<unsigned long long>(view.reports),
                  view.last.qp_count, view.last.channel_count, view.tx_gbps,
                  view.rx_gbps,
                  static_cast<unsigned long long>(view.last.rnr_naks),
                  static_cast<unsigned long long>(view.last.cnps_rx),
                  static_cast<unsigned long long>(view.last.retransmits),
                  static_cast<double>(view.last.mem_occupied) / 1e6);
  }
  return out;
}

// ---------------------------------------------------------------------------

StatsReporter::StatsReporter(core::Context& ctx, testbed::Host& host,
                             net::NodeId server_node,
                             std::uint16_t server_port, Nanos period)
    : ctx_(ctx),
      tcp_(host.tcp()),
      server_node_(server_node),
      server_port_(server_port),
      timer_(ctx.engine(), period, [this] { push(); }) {}

void StatsReporter::start() { timer_.start(); }
void StatsReporter::stop() { timer_.stop(); }

NodeReport StatsReporter::sample() {
  NodeReport r;
  r.node = ctx_.node();
  r.seq = seq_;
  r.sent_at = ctx_.engine().now();
  r.qp_count = static_cast<std::uint32_t>(ctx_.nic().num_qps());
  r.channel_count = static_cast<std::uint32_t>(ctx_.num_channels());
  const core::ChannelStats chan = ctx_.channel_stats();
  r.bytes_tx = chan.bytes_tx;
  r.bytes_rx = chan.bytes_rx;
  r.msgs_tx = chan.msgs_tx;
  r.msgs_rx = chan.msgs_rx;
  const auto& ns = ctx_.nic().stats();
  r.rnr_naks = ns.rnr_naks_sent;
  r.cnps_rx = ns.cnps_received;
  r.retransmits = ns.retransmitted_packets;
  r.qp_errors = ns.qp_errors;
  r.mem_occupied = ctx_.ctrl_cache().stats().occupied_bytes +
                   ctx_.data_cache().stats().occupied_bytes;
  r.mem_in_use = ctx_.ctrl_cache().stats().in_use_bytes +
                 ctx_.data_cache().stats().in_use_bytes;
  r.slow_polls = ctx_.stats().slow_polls;
  return r;
}

void StatsReporter::push() {
  if (!conn_ || !conn_->open()) {
    if (conn_) conn_->release();
    conn_ = nullptr;
    if (!dial_) {
      dial_ = tcp_.connect(server_node_, server_port_,
                           [this](Result<tcpsim::TcpConn*> r) {
                             dial_.reset();
                             if (r.ok()) conn_ = r.value();
                           });
    }
    return;  // report skipped until the management connection is up
  }
  const NodeReport report = sample();
  ++seq_;
  Buffer wire = Buffer::make(sizeof(NodeReport));
  std::memcpy(wire.data(), &report, sizeof(NodeReport));
  conn_->send(std::move(wire));
}

// ---------------------------------------------------------------------------

MetricsEndpoint::MetricsEndpoint(core::Context& ctx, testbed::Host& host,
                                 std::uint16_t port)
    : metrics_(ctx) {
  listener_ = host.tcp().listen(port, [this](tcpsim::TcpConn& conn) {
    // One response per connection, then close (HTTP/1.0 semantics). The
    // scraper's FIN ends the connection here; dropping listener_ aborts it
    // first if the endpoint goes away.
    conn.set_on_error([&conn](Errc) { conn.release(); });
    conn.set_on_data([this, &conn](Buffer) {
      const std::string body = text();
      ++scrapes_;
      const std::string head = strfmt(
          "HTTP/1.0 200 OK\r\n"
          "Content-Type: text/plain; version=0.0.4\r\n"
          "Content-Length: %zu\r\n\r\n",
          body.size());
      Buffer wire = Buffer::make(head.size() + body.size());
      std::memcpy(wire.data(), head.data(), head.size());
      std::memcpy(wire.data() + head.size(), body.data(), body.size());
      conn.send(std::move(wire));
      // The scraper closes once the length-framed body is complete: in
      // this stream model a FIN departs immediately and would race the
      // still-queued response segments.
    });
  });
}

std::string MetricsEndpoint::text() {
  return analysis::prometheus_render(metrics_.registry());
}

Registration scrape_metrics(testbed::Host& host, net::NodeId server,
                            std::uint16_t port,
                            std::function<void(Result<std::string>)> done) {
  return host.tcp().connect(
      server, port,
      [done = std::move(done)](Result<tcpsim::TcpConn*> r) {
        if (!r.ok()) {
          done(r.error());
          return;
        }
        tcpsim::TcpConn* conn = r.value();
        conn->set_on_error([done, conn](Errc err) {
          done(err);
          conn->release();
        });
        auto acc = std::make_shared<std::string>();
        conn->set_on_data([done, acc, conn](Buffer chunk) {
          if (chunk.data()) {
            acc->append(reinterpret_cast<const char*>(chunk.data()),
                        chunk.size());
          }
          // The response is length-framed; deliver once the advertised
          // body has fully arrived.
          const auto hdr_end = acc->find("\r\n\r\n");
          if (hdr_end == std::string::npos) return;
          const auto cl = acc->find("Content-Length: ");
          if (cl == std::string::npos || cl > hdr_end) return;
          const std::size_t len = static_cast<std::size_t>(
              std::strtoull(acc->c_str() + cl + 16, nullptr, 10));
          const std::size_t body_off = hdr_end + 4;
          if (acc->size() - body_off < len) return;
          done(acc->substr(body_off, len));
          acc->clear();
          conn->release();
        });
        conn->send(Buffer::from_string("GET /metrics HTTP/1.0\r\n\r\n"));
      });
}

}  // namespace xrdma::tools

#include "testbed/cluster.hpp"

#include "rnic/wire.hpp"

namespace xrdma::testbed {

Host::Host(sim::Engine& engine, net::Endpoint& endpoint,
           tcpsim::TcpNetwork& tcp_net, const rnic::RnicConfig& rnic_cfg,
           const tcpsim::TcpConfig& tcp_cfg)
    : endpoint_(endpoint),
      rnic_(engine, endpoint, rnic_cfg),
      tcp_(engine, endpoint, tcp_net, tcp_cfg) {
  endpoint_.set_rx([this](net::Packet&& pkt) {
    // Demux by payload type: the fabric is protocol-agnostic.
    if (dynamic_cast<const rnic::RnicPacket*>(pkt.payload.get())) {
      rnic_.on_packet(std::move(pkt));
    } else if (dynamic_cast<const tcpsim::TcpSegment*>(pkt.payload.get())) {
      tcp_.on_packet(std::move(pkt));
    }
  });
  endpoint_.set_tx_unpaused_handler([this] {
    rnic_.on_tx_unpaused();
    tcp_.on_tx_unpaused();
  });
}

Cluster::Cluster(ClusterConfig config)
    : fabric_(engine_, config.fabric),
      cm_(engine_, config.cm) {
  // The RNIC's pacing must agree with the host link speed.
  config.rnic.line_rate_gbps = config.fabric.host_link_gbps;
  hosts_.reserve(static_cast<std::size_t>(fabric_.num_hosts()));
  for (int i = 0; i < fabric_.num_hosts(); ++i) {
    hosts_.push_back(std::make_unique<Host>(
        engine_, fabric_.endpoint(static_cast<net::NodeId>(i)), tcp_network_,
        config.rnic, config.tcp));
  }
}

}  // namespace xrdma::testbed

// Testbed wiring: a Host bundles one fabric endpoint with an RNIC model and
// a TCP stack (demuxing ingress between them); a Cluster builds the fabric
// plus one Host per node and the shared control planes (rdma_cm service,
// TCP handshake network). Every test, example and bench starts from one of
// these.
#pragma once

#include <memory>
#include <vector>

#include "net/fabric.hpp"
#include "rnic/rnic.hpp"
#include "sim/engine.hpp"
#include "tcpsim/tcp.hpp"
#include "verbs/cm.hpp"
#include "verbs/verbs.hpp"

namespace xrdma::testbed {

class Host {
 public:
  Host(sim::Engine& engine, net::Endpoint& endpoint,
       tcpsim::TcpNetwork& tcp_net, const rnic::RnicConfig& rnic_cfg,
       const tcpsim::TcpConfig& tcp_cfg);

  net::NodeId node() const { return endpoint_.node(); }
  rnic::Rnic& rnic() { return rnic_; }
  tcpsim::TcpStack& tcp() { return tcp_; }
  net::Endpoint& endpoint() { return endpoint_; }

  /// Crash / revive the machine: both stacks go silent.
  void set_alive(bool alive) {
    rnic_.set_alive(alive);
    tcp_.set_alive(alive);
  }

 private:
  net::Endpoint& endpoint_;
  rnic::Rnic rnic_;
  tcpsim::TcpStack tcp_;
};

struct ClusterConfig {
  net::ClosConfig fabric = net::ClosConfig::pair();
  rnic::RnicConfig rnic;
  tcpsim::TcpConfig tcp;
  verbs::cm::CmCosts cm;

  /// Scenario shorthand: an n-host single-rack cluster with defaults
  /// everywhere else — the shape X-Check and the multi-node tests want.
  static ClusterConfig rack(int hosts) {
    ClusterConfig cfg;
    cfg.fabric = net::ClosConfig::rack(hosts);
    return cfg;
  }
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config = {});

  sim::Engine& engine() { return engine_; }
  net::Fabric& fabric() { return fabric_; }
  verbs::cm::CmService& cm() { return cm_; }

  int num_hosts() const { return fabric_.num_hosts(); }
  Host& host(net::NodeId id) { return *hosts_.at(id); }
  rnic::Rnic& rnic(net::NodeId id) { return host(id).rnic(); }

  /// Convenience: run the simulation.
  void run_for(Nanos d) { engine_.run_for(d); }
  void run() { engine_.run(); }

 private:
  sim::Engine engine_;
  net::Fabric fabric_;
  verbs::cm::CmService cm_;
  tcpsim::TcpNetwork tcp_network_;
  std::vector<std::unique_ptr<Host>> hosts_;
};

}  // namespace xrdma::testbed

// Discrete-event clos fabric with ECN (RED marking) and PFC.
//
// Mirrors the paper's deployment substrate (§II-B): hosts -> ToR -> leaf ->
// spine, RoCEv2-style lossless class protected by PFC, ECN marks feeding
// DCQCN at the RNICs. Congestion behaviour (queue growth, CNP rates, pause
// frames) emerges from these mechanisms rather than being scripted.
//
// Degenerate configurations (1 pod / 1 ToR) collapse to a single-switch
// testbed for microbenchmarks.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "net/packet.hpp"
#include "sim/engine.hpp"

namespace xrdma::net {

struct ClosConfig {
  int pods = 1;
  int tors_per_pod = 1;
  int leaves_per_pod = 2;
  int spines = 2;
  int hosts_per_tor = 4;

  double host_link_gbps = 25.0;   // ConnectX4-Lx single port (paper)
  double tor_leaf_gbps = 100.0;
  double leaf_spine_gbps = 100.0;
  Nanos link_delay = nanos(250);     // per hop propagation
  Nanos switch_latency = nanos(400); // per switch forwarding latency

  // Per egress port, per class buffer limit (drop beyond it, even lossless:
  // counted as the "queue drop counter" the monitor watches).
  std::uint64_t buffer_bytes = 2u << 20;

  // RED/ECN marking on the lossless class (DCQCN's signal).
  std::uint64_t ecn_kmin = 100 * 1024;
  std::uint64_t ecn_kmax = 400 * 1024;
  double ecn_pmax = 0.2;

  // PFC thresholds on per-ingress-port accounting of lossless bytes.
  std::uint64_t pfc_xoff = 600 * 1024;
  std::uint64_t pfc_xon = 300 * 1024;

  std::uint64_t seed = 1;

  int num_hosts() const { return pods * tors_per_pod * hosts_per_tor; }

  /// Two hosts on one switch: the microbenchmark testbed.
  static ClosConfig pair() {
    ClosConfig c;
    c.pods = 1;
    c.tors_per_pod = 1;
    c.leaves_per_pod = 0;
    c.spines = 0;
    c.hosts_per_tor = 2;
    return c;
  }

  /// Single rack of n hosts under one ToR.
  static ClosConfig rack(int n) {
    ClosConfig c;
    c.pods = 1;
    c.tors_per_pod = 1;
    c.leaves_per_pod = 0;
    c.spines = 0;
    c.hosts_per_tor = n;
    return c;
  }
};

struct PortStats {
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t drops = 0;
  std::uint64_t ecn_marks = 0;
  std::uint64_t pause_frames_sent = 0;
  Nanos paused_time = 0;  // cumulative time this port's egress was paused
  std::uint64_t max_queue_bytes = 0;
};

struct FabricStats {
  std::uint64_t drops = 0;
  std::uint64_t ecn_marks = 0;
  std::uint64_t pause_frames = 0;
  Nanos host_tx_pause_time = 0;  // sum over host-facing directions
};

class Fabric;

/// A host's attachment point. The RNIC / TCP stack sends and receives here.
class Endpoint {
 public:
  using RxHandler = std::function<void(Packet&&)>;

  NodeId node() const { return node_; }
  void set_rx(RxHandler h) { rx_ = std::move(h); }

  /// Hand a packet to the NIC port for serialization onto the host link.
  void send(Packet&& p);

  /// Bytes currently queued for transmission on the host port (per class).
  /// The RNIC uses this for pacing visibility.
  std::uint64_t tx_queue_bytes(TrafficClass c) const;
  bool tx_paused(TrafficClass c) const;

  const PortStats& tx_stats() const;

  /// Invoked when a PFC pause on the host's egress lifts, so the NIC can
  /// resume feeding the port.
  void set_tx_unpaused_handler(std::function<void()> h) {
    tx_unpaused_ = std::move(h);
  }

 private:
  friend class Fabric;
  Fabric* fabric_ = nullptr;
  NodeId node_ = kInvalidNode;
  int port_ = -1;  // index into Fabric::ports_
  RxHandler rx_;
  std::function<void()> tx_unpaused_;
};

class Fabric {
 public:
  Fabric(sim::Engine& engine, ClosConfig config);
  ~Fabric();
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  int num_hosts() const { return config_.num_hosts(); }
  Endpoint& endpoint(NodeId host);
  const ClosConfig& config() const { return config_; }
  sim::Engine& engine() { return engine_; }

  FabricStats stats() const;
  /// Stats of the switch egress queue feeding the given host (the incast
  /// hotspot in the Fig. 10 experiments).
  const PortStats& host_ingress_port_stats(NodeId host) const;

 private:
  friend class Endpoint;

  struct Port;
  struct Device;

  void connect(int a, int b, double gbps, Nanos delay);
  int new_port(Device* dev, double gbps, Nanos delay);
  void enqueue(int port_index, Packet&& pkt, int ingress_port);
  void maybe_start_tx(int port_index);
  void deliver(int port_index, Packet&& pkt);
  void receive(Device* dev, int in_port, Packet&& pkt);
  int route(const Device& sw, const Packet& pkt);
  void set_pause(int port_index, TrafficClass c, bool paused);
  void account_ingress(int ingress_port, TrafficClass c, std::int64_t delta);

  sim::Engine& engine_;
  ClosConfig config_;
  Rng rng_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::vector<std::unique_ptr<Port>> ports_;
  std::vector<Endpoint> endpoints_;
};

}  // namespace xrdma::net

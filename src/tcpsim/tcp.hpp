// Simplified kernel TCP model over the same fabric.
//
// Exists for three of the paper's comparisons: (1) connection establishment
// ~100 us vs ~4 ms for rdma_cm (§III issue 3), (2) the keepAlive semantics
// X-RDMA ports to RDMA (§V-A), and (3) the Mock component's live fallback
// from RDMA to TCP (§VI-C). It is a reliable in-order byte stream with a
// fixed window, go-back-N retransmission, per-operation kernel overheads,
// and optional keepalive probes — deliberately not a full TCP (no cwnd
// dynamics); it rides the lossy traffic class.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "common/bytes.hpp"
#include "common/registration.hpp"
#include "common/status.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/timer.hpp"

namespace xrdma::tcpsim {

struct TcpConfig {
  std::uint32_t mss = 1460;
  std::uint32_t header_bytes = 66;
  Nanos kernel_tx_overhead = micros(2);  // syscall + copy per send() call
  Nanos kernel_rx_overhead = micros(2);  // softirq + copy per delivery
  Nanos handshake_delay = micros(100);   // 3-way handshake, kernel included
  std::uint64_t window_bytes = 256 * 1024;
  Nanos rto = millis(2);
};

struct TcpSegment : net::PayloadBase {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint64_t seq = 0;
  std::uint64_t ack = 0;
  Buffer data;
  bool ack_only = false;
  bool keepalive = false;
  bool fin = false;
};

class TcpStack;

class TcpConn {
 public:
  using DataHandler = std::function<void(Buffer)>;
  using ErrorHandler = std::function<void(Errc)>;

  net::NodeId peer_node() const { return peer_node_; }
  bool open() const { return open_; }

  /// Queue bytes onto the stream. Delivery order matches call order.
  Errc send(Buffer data);

  void set_on_data(DataHandler h) { on_data_ = std::move(h); }
  void set_on_error(ErrorHandler h) { on_error_ = std::move(h); }

  /// TCP keepalive (SO_KEEPALIVE): probe after `interval` idle; declare the
  /// peer dead if nothing is heard for `timeout` after the probe.
  void set_keepalive(Nanos interval, Nanos timeout);

  void close();

  /// The holder is done with this connection: close it if still open, and
  /// have the stack erase it once the current event returns, so no handler
  /// runs on a freed conn. Call it once; the pointer is dead after that
  /// event.
  void release();

  std::uint64_t bytes_delivered() const { return rcv_nxt_; }

 private:
  friend class TcpStack;
  TcpConn(TcpStack& stack, std::uint16_t local_port, net::NodeId peer_node,
          std::uint16_t peer_port);

  void pump();
  void on_segment(const TcpSegment& seg);
  void send_ack();
  void retransmit();
  void fail(Errc err);
  /// Close, then tell the holder Errc::cancelled (its listener went away).
  void abort();
  void keepalive_fired();

  TcpStack& stack_;
  std::uint16_t local_port_;
  net::NodeId peer_node_;
  std::uint16_t peer_port_;
  bool accepted_ = false;  // made by a listener, not by connect()
  bool open_ = true;

  // Send side.
  std::deque<std::uint8_t> send_buf_;  // unsent bytes
  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  std::deque<std::pair<std::uint64_t, Buffer>> inflight_;  // (seq, data)
  Nanos tx_ready_at_ = 0;  // kernel overhead pacing
  std::unique_ptr<sim::DeadlineTimer> pace_timer_;
  std::unique_ptr<sim::DeadlineTimer> rto_timer_;

  // Receive side.
  std::uint64_t rcv_nxt_ = 0;

  // Keepalive.
  Nanos ka_interval_ = 0;
  Nanos ka_timeout_ = 0;
  Nanos last_rx_ = 0;
  bool ka_probe_outstanding_ = false;
  std::unique_ptr<sim::DeadlineTimer> ka_timer_;

  DataHandler on_data_;
  ErrorHandler on_error_;
};

/// Per-host TCP endpoint. Data segments traverse the fabric (lossy class);
/// the handshake is modelled as a fixed-cost out-of-band exchange through
/// TcpNetwork, mirroring how verbs::cm models rdma_cm.
class TcpNetwork;

class TcpStack {
 public:
  TcpStack(sim::Engine& engine, net::Endpoint& endpoint, TcpNetwork& network,
           TcpConfig config = {});
  TcpStack(const TcpStack&) = delete;
  TcpStack& operator=(const TcpStack&) = delete;

  net::NodeId node() const { return endpoint_.node(); }
  sim::Engine& engine() { return engine_; }
  const TcpConfig& config() const { return config_; }

  using AcceptHandler = std::function<void(TcpConn&)>;
  /// One listener per port. Destroying the handle stops accepting and, as a
  /// process exit would, aborts every connection it accepted that is still
  /// open: the conn sends FIN, then its error handler sees Errc::cancelled.
  Registration listen(std::uint16_t port, AcceptHandler on_accept);
  /// Destroying the handle before the handshake completes cancels the dial:
  /// no conn is made at either end and `cb` never runs.
  Registration connect(net::NodeId dst, std::uint16_t port,
                       std::function<void(Result<TcpConn*>)> cb);

  /// Host packet demux entry points (wired by testbed::Host).
  void on_packet(net::Packet&& pkt);
  void on_tx_unpaused() {}

  void set_alive(bool alive) { alive_ = alive; }
  bool alive() const { return alive_; }

  /// Connections the stack holds; a released one leaves with the next event.
  std::size_t conn_count() const { return conns_.size(); }

 private:
  friend class TcpConn;
  friend class TcpNetwork;

  void send_segment(TcpConn& conn, std::shared_ptr<TcpSegment> seg);
  TcpConn* make_conn(std::uint16_t local_port, net::NodeId peer,
                     std::uint16_t peer_port);
  /// Erases `conn` in an event of its own (see TcpConn::release).
  void drop_conn(TcpConn* conn);

  sim::Engine& engine_;
  net::Endpoint& endpoint_;
  TcpNetwork& network_;
  TcpConfig config_;
  bool alive_ = true;
  std::uint16_t next_ephemeral_ = 50000;
  std::map<std::uint16_t, AcceptHandler> listeners_;
  // (local_port, peer_node, peer_port) -> conn
  std::map<std::tuple<std::uint16_t, net::NodeId, std::uint16_t>,
           std::unique_ptr<TcpConn>>
      conns_;
};

class TcpNetwork {
 public:
  void add(TcpStack* stack) { stacks_[stack->node()] = stack; }
  TcpStack* find(net::NodeId node) const {
    auto it = stacks_.find(node);
    return it == stacks_.end() ? nullptr : it->second;
  }

 private:
  std::map<net::NodeId, TcpStack*> stacks_;
};

}  // namespace xrdma::tcpsim

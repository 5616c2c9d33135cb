#include "tcpsim/tcp.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <tuple>

namespace xrdma::tcpsim {

// ---------------------------------------------------------------------------
// TcpStack

TcpStack::TcpStack(sim::Engine& engine, net::Endpoint& endpoint,
                   TcpNetwork& network, TcpConfig config)
    : engine_(engine), endpoint_(endpoint), network_(network),
      config_(config) {
  network_.add(this);
}

Registration TcpStack::listen(std::uint16_t port, AcceptHandler on_accept) {
  [[maybe_unused]] const bool fresh =
      listeners_.emplace(port, std::move(on_accept)).second;
  assert(fresh && "one listener per port");
  return Registration([this, port] {
    listeners_.erase(port);
    // An aborted conn's handler may release it, which erases it only in a
    // later event, so the walk is safe.
    for (auto& [key, conn] : conns_) {
      if (conn->accepted_ && conn->local_port_ == port) conn->abort();
    }
  });
}

TcpConn* TcpStack::make_conn(std::uint16_t local_port, net::NodeId peer,
                             std::uint16_t peer_port) {
  auto conn = std::unique_ptr<TcpConn>(
      new TcpConn(*this, local_port, peer, peer_port));
  TcpConn* raw = conn.get();
  conns_[{local_port, peer, peer_port}] = std::move(conn);
  return raw;
}

void TcpStack::drop_conn(TcpConn* conn) {
  const auto key =
      std::make_tuple(conn->local_port_, conn->peer_node_, conn->peer_port_);
  engine_.schedule_after(0, [this, key, conn] {
    auto it = conns_.find(key);
    if (it != conns_.end() && it->second.get() == conn) conns_.erase(it);
  });
}

Registration TcpStack::connect(net::NodeId dst, std::uint16_t port,
                               std::function<void(Result<TcpConn*>)> cb) {
  const std::uint16_t local_port = next_ephemeral_++;
  sim::Engine::EventId dial = engine_.schedule_after(
      config_.handshake_delay,
      [this, dst, port, local_port, cb = std::move(cb)] {
        TcpStack* peer = network_.find(dst);
        if (!peer || !peer->alive_) {
          cb(Errc::connection_refused);
          return;
        }
        auto it = peer->listeners_.find(port);
        if (it == peer->listeners_.end()) {
          cb(Errc::connection_refused);
          return;
        }
        TcpConn* server_side = peer->make_conn(port, node(), local_port);
        server_side->accepted_ = true;
        TcpConn* client_side = make_conn(local_port, dst, port);
        it->second(*server_side);
        cb(client_side);
      });
  // Cancelling a fired event is a no-op, so a late reset is harmless.
  return Registration(
      [&engine = engine_, dial]() mutable { engine.cancel(dial); });
}

void TcpStack::send_segment(TcpConn& conn, std::shared_ptr<TcpSegment> seg) {
  if (!alive_) return;
  net::Packet pkt;
  pkt.src = node();
  pkt.dst = conn.peer_node_;
  pkt.wire_bytes =
      config_.header_bytes + static_cast<std::uint32_t>(seg->data.size());
  pkt.tclass = net::TrafficClass::lossy;
  pkt.ecn_capable = false;
  pkt.flow = (static_cast<std::uint64_t>(conn.local_port_) << 16) ^
             conn.peer_port_ ^ (static_cast<std::uint64_t>(node()) << 32);
  pkt.payload = std::move(seg);
  endpoint_.send(std::move(pkt));
}

void TcpStack::on_packet(net::Packet&& pkt) {
  if (!alive_) return;
  auto seg = std::static_pointer_cast<const TcpSegment>(pkt.payload);
  const net::NodeId src = pkt.src;
  engine_.schedule_after(config_.kernel_rx_overhead, [this, seg, src] {
    if (!alive_) return;
    auto it = conns_.find({seg->dst_port, src, seg->src_port});
    if (it == conns_.end()) return;  // no such connection: RST-equivalent drop
    it->second->on_segment(*seg);
  });
}

// ---------------------------------------------------------------------------
// TcpConn

TcpConn::TcpConn(TcpStack& stack, std::uint16_t local_port,
                 net::NodeId peer_node, std::uint16_t peer_port)
    : stack_(stack), local_port_(local_port), peer_node_(peer_node),
      peer_port_(peer_port) {
  pace_timer_ = std::make_unique<sim::DeadlineTimer>(stack_.engine(),
                                                     [this] { pump(); });
  rto_timer_ = std::make_unique<sim::DeadlineTimer>(
      stack_.engine(), [this] { retransmit(); });
  last_rx_ = stack_.engine().now();
}

Errc TcpConn::send(Buffer data) {
  if (!open_) return Errc::channel_closed;
  if (data.is_synthetic()) {
    // The stream model needs real bytes; synthesize zeros.
    data = Buffer::make(data.size());
  }
  for (std::size_t i = 0; i < data.size(); ++i) {
    send_buf_.push_back(data.data() ? data.data()[i] : 0);
  }
  tx_ready_at_ = std::max(tx_ready_at_, stack_.engine().now()) +
                 stack_.config().kernel_tx_overhead;
  pump();
  return Errc::ok;
}

void TcpConn::pump() {
  if (!open_) return;
  const Nanos now = stack_.engine().now();
  if (tx_ready_at_ > now) {
    pace_timer_->arm_after(tx_ready_at_ - now);
    return;
  }
  const auto& cfg = stack_.config();
  while (!send_buf_.empty() &&
         snd_nxt_ - snd_una_ + cfg.mss <= cfg.window_bytes) {
    const std::uint32_t n = static_cast<std::uint32_t>(
        std::min<std::size_t>(cfg.mss, send_buf_.size()));
    Buffer chunk = Buffer::make(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      chunk.data()[i] = send_buf_.front();
      send_buf_.pop_front();
    }
    auto seg = std::make_shared<TcpSegment>();
    seg->src_port = local_port_;
    seg->dst_port = peer_port_;
    seg->seq = snd_nxt_;
    seg->ack = rcv_nxt_;
    seg->data = chunk;
    inflight_.emplace_back(snd_nxt_, chunk);
    snd_nxt_ += n;
    stack_.send_segment(*this, std::move(seg));
  }
  if (!inflight_.empty()) rto_timer_->arm_after(cfg.rto);
}

void TcpConn::send_ack() {
  auto seg = std::make_shared<TcpSegment>();
  seg->src_port = local_port_;
  seg->dst_port = peer_port_;
  seg->seq = snd_nxt_;
  seg->ack = rcv_nxt_;
  seg->ack_only = true;
  stack_.send_segment(*this, std::move(seg));
}

void TcpConn::on_segment(const TcpSegment& seg) {
  if (!open_) return;
  last_rx_ = stack_.engine().now();
  ka_probe_outstanding_ = false;
  if (ka_interval_ > 0) ka_timer_->arm_after(ka_interval_);

  // Ack processing.
  if (seg.ack > snd_una_) {
    snd_una_ = std::min(seg.ack, snd_nxt_);
    while (!inflight_.empty() &&
           inflight_.front().first + inflight_.front().second.size() <=
               snd_una_) {
      inflight_.pop_front();
    }
    if (inflight_.empty()) {
      rto_timer_->cancel();
    } else {
      rto_timer_->arm_after(stack_.config().rto);
    }
    pump();
  }

  if (seg.fin) {
    fail(Errc::connection_reset);
    return;
  }
  if (seg.keepalive) {
    send_ack();
    return;
  }
  if (seg.ack_only) return;

  // Data processing: accept only the next in-order segment (go-back-N).
  if (seg.seq != rcv_nxt_) {
    send_ack();  // duplicate ack signals the gap
    return;
  }
  rcv_nxt_ += seg.data.size();
  send_ack();
  if (on_data_) on_data_(seg.data);
}

void TcpConn::retransmit() {
  if (!open_ || inflight_.empty()) return;
  for (auto& [seq, data] : inflight_) {
    auto seg = std::make_shared<TcpSegment>();
    seg->src_port = local_port_;
    seg->dst_port = peer_port_;
    seg->seq = seq;
    seg->ack = rcv_nxt_;
    seg->data = data;
    stack_.send_segment(*this, std::move(seg));
  }
  rto_timer_->arm_after(stack_.config().rto);
}

void TcpConn::set_keepalive(Nanos interval, Nanos timeout) {
  ka_interval_ = interval;
  ka_timeout_ = timeout;
  if (!ka_timer_) {
    ka_timer_ = std::make_unique<sim::DeadlineTimer>(
        stack_.engine(), [this] { keepalive_fired(); });
  }
  if (interval > 0) ka_timer_->arm_after(interval);
}

void TcpConn::keepalive_fired() {
  if (!open_) return;
  const Nanos now = stack_.engine().now();
  if (ka_probe_outstanding_ && now - last_rx_ >= ka_timeout_) {
    fail(Errc::peer_dead);
    return;
  }
  auto seg = std::make_shared<TcpSegment>();
  seg->src_port = local_port_;
  seg->dst_port = peer_port_;
  seg->seq = snd_nxt_;
  seg->ack = rcv_nxt_;
  seg->keepalive = true;
  stack_.send_segment(*this, std::move(seg));
  ka_probe_outstanding_ = true;
  ka_timer_->arm_after(std::min(ka_interval_, ka_timeout_));
}

void TcpConn::fail(Errc err) {
  if (!open_) return;
  open_ = false;
  pace_timer_->cancel();
  rto_timer_->cancel();
  if (ka_timer_) ka_timer_->cancel();
  if (on_error_) on_error_(err);
}

void TcpConn::abort() {
  if (!open_) return;
  close();
  if (on_error_) on_error_(Errc::cancelled);
}

void TcpConn::close() {
  if (!open_) return;
  auto seg = std::make_shared<TcpSegment>();
  seg->src_port = local_port_;
  seg->dst_port = peer_port_;
  seg->seq = snd_nxt_;
  seg->ack = rcv_nxt_;
  seg->fin = true;
  stack_.send_segment(*this, std::move(seg));
  open_ = false;
  pace_timer_->cancel();
  rto_timer_->cancel();
  if (ka_timer_) ka_timer_->cancel();
}

void TcpConn::release() {
  close();
  stack_.drop_conn(this);
}

}  // namespace xrdma::tcpsim

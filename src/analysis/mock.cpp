#include "analysis/mock.hpp"

#include <cstring>
#include <map>
#include <deque>

namespace xrdma::analysis {

namespace {
constexpr std::uint32_t kMockMagic = 0x584d4f43;  // "XMOC"

struct Bridge;
/// Active fallback bridges by channel, so restore_rdma can find and close
/// the stream (which flips the peer back too). Simulation is
/// single-threaded; a plain map suffices.
std::map<core::Channel*, std::shared_ptr<Bridge>>& bridge_registry() {
  static std::map<core::Channel*, std::shared_ptr<Bridge>> reg;
  return reg;
}

/// Per-connection stream state: reassembles length-prefixed frames and
/// bridges them into the channel.
struct Bridge : std::enable_shared_from_this<Bridge> {
  tcpsim::TcpConn* conn = nullptr;
  core::Channel* channel = nullptr;
  std::deque<std::uint8_t> rxbuf;
  bool handshaken = false;  // server side: waiting for the id frame

  void attach_channel(core::Channel& ch) {
    channel = &ch;
    auto self = shared_from_this();
    bridge_registry()[&ch] = self;
    ch.set_tx_override([self](Buffer wire) -> Errc {
      if (!self->conn || !self->conn->open()) return Errc::connection_reset;
      Buffer framed = Buffer::make(4 + wire.size());
      const std::uint32_t len = static_cast<std::uint32_t>(wire.size());
      std::memcpy(framed.data(), &len, 4);
      if (wire.data()) {
        std::memcpy(framed.data() + 4, wire.data(), wire.size());
      }
      return self->conn->send(std::move(framed));
    });
    // A recovering channel resumes here (window replay + RDMA probing); an
    // established one (manual switch) treats this as a no-op.
    ch.on_fallback_attached();
  }

  void detach() {
    if (channel) {
      channel->set_tx_override(nullptr);
      bridge_registry().erase(channel);
    }
    if (conn && conn->open()) conn->close();
    channel = nullptr;
  }

  void on_data(const Buffer& chunk) {
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      rxbuf.push_back(chunk.data() ? chunk.data()[i] : 0);
    }
    pump();
  }

  void pump() {
    while (rxbuf.size() >= 4) {
      std::uint8_t lenb[4];
      for (int i = 0; i < 4; ++i) lenb[i] = rxbuf[static_cast<std::size_t>(i)];
      std::uint32_t len = 0;
      std::memcpy(&len, lenb, 4);
      if (rxbuf.size() < 4 + len) return;
      std::vector<std::uint8_t> frame(len);
      rxbuf.erase(rxbuf.begin(), rxbuf.begin() + 4);
      for (std::uint32_t i = 0; i < len; ++i) {
        frame[i] = rxbuf.front();
        rxbuf.pop_front();
      }
      handle_frame(frame.data(), len);
    }
  }

  virtual void handle_frame(const std::uint8_t* data, std::uint32_t len) {
    if (channel) channel->on_alt_rx(data, len);
  }

  virtual ~Bridge() = default;
};

struct ServerBridge : Bridge {
  core::Context* ctx = nullptr;

  void handle_frame(const std::uint8_t* data, std::uint32_t len) override {
    if (!handshaken) {
      handshaken = true;
      if (len < 12) return;
      std::uint32_t magic = 0;
      std::uint64_t token = 0;
      std::memcpy(&magic, data, 4);
      std::memcpy(&token, data + 4, 8);
      if (magic != kMockMagic) return;
      core::Channel* ch = ctx->channel_by_token(token);
      // Accept recovering channels too: fallback escalation usually finds
      // this side mid-recovery (its QP died with the peer's).
      if (ch && (ch->state() == core::Channel::State::established ||
                 ch->state() == core::Channel::State::recovering)) {
        attach_channel(*ch);
      }
      return;
    }
    Bridge::handle_frame(data, len);
  }
};

void wire_conn(std::shared_ptr<Bridge> bridge, tcpsim::TcpConn& conn) {
  bridge->conn = &conn;
  conn.set_on_data([bridge](Buffer chunk) { bridge->on_data(chunk); });
  conn.set_on_error([bridge](Errc) {
    // Stream died or was closed. The channel decides what that means: a
    // deliberate restore reverts to RDMA, an unsolicited loss with no QP
    // re-enters recovery.
    if (bridge->channel) {
      bridge_registry().erase(bridge->channel);
      bridge->channel->on_fallback_lost();
    }
    bridge->channel = nullptr;
  });
}

}  // namespace

MockFallback::MockFallback(core::Context& ctx, tcpsim::TcpStack& tcp,
                           std::uint16_t port)
    : ctx_(ctx) {
  // The restore hook lets a channel here tear its stream down (a received
  // FIN, a failure) even when this context never called enable_auto.
  ctx.set_fallback_restore([](core::Channel& ch) { restore_rdma(ch); });
  tcp.listen(port, [this](tcpsim::TcpConn& conn) {
    auto bridge = std::make_shared<ServerBridge>();
    bridge->ctx = &ctx_;
    wire_conn(bridge, conn);
  });
}

void MockFallback::switch_to_tcp(core::Channel& ch, tcpsim::TcpStack& tcp,
                                 std::uint16_t peer_port,
                                 std::function<void(Errc)> done) {
  tcp.connect(ch.peer_node(), peer_port,
              [&ch, done = std::move(done)](Result<tcpsim::TcpConn*> r) {
                if (!r.ok()) {
                  if (done) done(r.error());
                  return;
                }
                auto bridge = std::make_shared<Bridge>();
                wire_conn(bridge, *r.value());
                // Identify ourselves by the connection token — the channel
                // identity that survives QP replacement, so fallback works
                // even after the QPs are gone.
                Buffer hello = Buffer::make(4 + 12);
                const std::uint32_t frame_len = 12;
                std::memcpy(hello.data(), &frame_len, 4);
                std::memcpy(hello.data() + 4, &kMockMagic, 4);
                const std::uint64_t token = ch.conn_token();
                std::memcpy(hello.data() + 8, &token, 8);
                r.value()->send(std::move(hello));
                bridge->attach_channel(ch);
                if (done) done(Errc::ok);
              });
}

void MockFallback::restore_rdma(core::Channel& ch) {
  auto it = bridge_registry().find(&ch);
  if (it != bridge_registry().end()) {
    auto bridge = it->second;  // keep alive across detach's erase
    bridge->detach();          // closes the stream; the peer reverts on error
  } else {
    ch.set_tx_override(nullptr);
  }
}

void MockFallback::enable_auto(core::Context& ctx, tcpsim::TcpStack& tcp,
                               std::uint16_t peer_port) {
  ctx.set_fallback_provider(
      [&tcp, peer_port](core::Channel& ch, std::function<void(Errc)> done) {
        switch_to_tcp(ch, tcp, peer_port, std::move(done));
      });
  ctx.set_fallback_restore([](core::Channel& ch) { restore_rdma(ch); });
}

}  // namespace xrdma::analysis

#include "analysis/mock.hpp"

#include <cstring>
#include <vector>

namespace xrdma::analysis {

namespace {
constexpr std::uint32_t kMockMagic = 0x584d4f43;  // "XMOC"

/// One end of a fallback stream: frames the channel's wire messages onto
/// the TCP connection (4-byte length prefix) and reassembles the peer's.
/// The connection's handlers keep it alive; the channel holds it while
/// attached. The server end first waits for the hello frame naming its
/// channel by connection token.
struct Bridge : core::AltStream, std::enable_shared_from_this<Bridge> {
  tcpsim::TcpConn* conn = nullptr;
  core::Channel* channel = nullptr;  // set while attached; cleared by close
  core::Context* awaiting_hello = nullptr;  // server end, before the hello
  std::vector<std::uint8_t> rxbuf;
  std::size_t rxoff = 0;  // first byte of rxbuf not yet framed

  void send(Buffer wire) override {
    const std::uint32_t len = static_cast<std::uint32_t>(wire.size());
    Buffer framed = Buffer::make(4 + len);
    std::memcpy(framed.data(), &len, 4);
    std::memcpy(framed.data() + 4, wire.data(), len);
    conn->send(std::move(framed));  // a closed connection drops it
  }

  void close() override {
    channel = nullptr;
    conn->close();  // no local loss notice; the peer's end sees a FIN
  }

  void on_data(const Buffer& chunk) {
    rxbuf.insert(rxbuf.end(), chunk.data(), chunk.data() + chunk.size());
    // Both lengths are in hand before a frame is taken, and the check
    // subtracts instead of adding, so no prefix value can wrap it.
    while (rxbuf.size() - rxoff >= 4) {
      std::uint32_t len = 0;
      std::memcpy(&len, rxbuf.data() + rxoff, 4);
      if (rxbuf.size() - rxoff - 4 < len) break;
      rxoff += 4 + static_cast<std::size_t>(len);
      handle_frame(rxbuf.data() + rxoff - len, len);
    }
    rxbuf.erase(rxbuf.begin(),
                rxbuf.begin() + static_cast<std::ptrdiff_t>(rxoff));
    rxoff = 0;
  }

  void handle_frame(const std::uint8_t* data, std::uint32_t len) {
    if (channel) {
      channel->on_alt_rx(data, len);
      return;
    }
    core::Context* ctx = awaiting_hello;
    if (!ctx) return;
    awaiting_hello = nullptr;
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
      attach(*ch);
    }
  }

  void attach(core::Channel& ch) {
    channel = &ch;
    ch.attach_stream(shared_from_this());
  }
};

std::shared_ptr<Bridge> make_bridge(tcpsim::TcpConn& conn) {
  auto bridge = std::make_shared<Bridge>();
  bridge->conn = &conn;
  conn.set_on_data([bridge](Buffer chunk) { bridge->on_data(chunk); });
  conn.set_on_error([bridge](Errc) {
    // Stream died or the peer closed it. The channel decides what that
    // means: an unsolicited loss with no QP re-enters recovery.
    if (core::Channel* ch = bridge->channel) {
      bridge->channel = nullptr;
      ch->on_stream_lost(*bridge);
    }
  });
  return bridge;
}

}  // namespace

MockFallback::MockFallback(core::Context& ctx, tcpsim::TcpStack& tcp,
                           std::uint16_t port)
    : ctx_(ctx) {
  tcp.listen(port, [this](tcpsim::TcpConn& conn) {
    make_bridge(conn)->awaiting_hello = &ctx_;
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
                auto bridge = make_bridge(*r.value());
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
                bridge->attach(ch);
                if (done) done(Errc::ok);
              });
}

void MockFallback::restore_rdma(core::Channel& ch) { ch.leave_fallback(); }

void MockFallback::enable_auto(core::Context& ctx, tcpsim::TcpStack& tcp,
                               std::uint16_t peer_port) {
  ctx.set_fallback_provider(
      [&tcp, peer_port](core::Channel& ch, std::function<void(Errc)> done) {
        switch_to_tcp(ch, tcp, peer_port, std::move(done));
      });
}

}  // namespace xrdma::analysis

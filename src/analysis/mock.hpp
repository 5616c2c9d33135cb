// Mock (§VI-C): live fallback of an X-RDMA channel onto kernel TCP.
//
// For rare RDMA anomalies (protocol stack collapse, pathological incast)
// the paper temporarily reroutes a channel's traffic over TCP without the
// application noticing. Here: the server side listens on a TCP port; the
// client side connects, identifies which channel it is speaking for (by
// the connection token, which survives QP loss), and both ends attach the
// stream to their channel (core::AltStream) so encoded messages travel it
// as length-prefixed frames while the seq-ack protocol above stays
// untouched. The channel holds its stream and is the one that closes it;
// restore_rdma() asks it to, which switches both ends back.
//
// enable_auto() wires this into channel recovery: once a channel exhausts
// its QP-resume budget it escalates here automatically, and the channel
// leaves the stream itself when the background RDMA probe succeeds.
#pragma once

#include <functional>
#include <memory>

#include "core/context.hpp"
#include "tcpsim/tcp.hpp"

namespace xrdma::analysis {

class MockFallback {
 public:
  /// Server side: accept TCP fallback connections for channels owned by
  /// `ctx`. Keep the object alive while fallback may occur.
  MockFallback(core::Context& ctx, tcpsim::TcpStack& tcp, std::uint16_t port);

  /// Client side: switch `ch` onto TCP toward the peer's fallback port.
  /// `done` fires once both ends have flipped.
  static void switch_to_tcp(core::Channel& ch, tcpsim::TcpStack& tcp,
                            std::uint16_t peer_port,
                            std::function<void(Errc)> done);

  /// Switch a mocked channel back to its RDMA QP (either side; the stream
  /// is closed, which flips the peer too).
  static void restore_rdma(core::Channel& ch);

  /// Install automatic escalation on `ctx`: channels that exhaust their
  /// recovery budget switch onto TCP toward `peer_port` (the peer must run
  /// a MockFallback server there), and leave it once RDMA heals.
  static void enable_auto(core::Context& ctx, tcpsim::TcpStack& tcp,
                          std::uint16_t peer_port);

 private:
  core::Context& ctx_;
};

}  // namespace xrdma::analysis

// A connected pair: two X-RDMA contexts on a two-host cluster, brought up
// with the Fig. 5 workflow (listen, connect, poll). Every test and bench
// that needs one channel starts from this, so how a pair comes up is
// decided here. Header-only; the library itself never includes it.
#pragma once

#include <cstdint>
#include <initializer_list>

#include "core/context.hpp"
#include "testbed/cluster.hpp"

namespace xrdma::testbed {

/// `server` runs on host 1 and `client` on host 0. Each caller picks the
/// order of poll start and dial: `establish()` dials first, while a caller
/// with fast keepalive configs calls `start_polling()` before it, because an
/// unpolled CQ reads as peer silence.
struct Pair {
  Cluster cluster;
  core::Context server;
  core::Context client;
  core::Channel* server_ch = nullptr;
  core::Channel* client_ch = nullptr;
  Errc connect_rc = Errc::ok;  // the dial's outcome, once it has one

  explicit Pair(core::Config cfg = {}, ClusterConfig ccfg = {})
      : Pair(cfg, cfg, ccfg) {}
  Pair(core::Config server_cfg, core::Config client_cfg,
       ClusterConfig ccfg = {})
      : cluster(ccfg),
        server(cluster.rnic(1), cluster.cm(), server_cfg),
        client(cluster.rnic(0), cluster.cm(), client_cfg) {}

  /// Listen on `port`, dial it from the client and run `settle`. True iff
  /// both ends then hold a channel.
  bool connect(std::uint16_t port = 7000, Nanos settle = millis(20)) {
    server.listen(port, [this](core::Channel& ch) { server_ch = &ch; });
    client.connect(1, port, [this](Result<core::Channel*> r) {
      connect_rc = r.error();
      if (r) client_ch = r.value();
    });
    run(settle);
    return client_ch != nullptr && server_ch != nullptr;
  }

  /// Busy-poll both ends, server first. A running loop is left alone.
  void start_polling() {
    for (core::Context* ctx : {&server, &client}) {
      if (ctx->polling_loop_running()) continue;
      ctx->config().poll_mode = core::PollMode::busy;
      ctx->start_polling_loop();
    }
  }

  /// `connect`, then `start_polling`.
  bool establish(std::uint16_t port = 7000, Nanos settle = millis(20)) {
    const bool up = connect(port, settle);
    start_polling();
    return up;
  }

  void run(Nanos d) { cluster.engine().run_for(d); }

  /// Run in steps until `pred` holds (or `limit` elapses). Keeps busy-poll
  /// event volume bounded: never simulate long past completion.
  template <typename Pred>
  bool run_until(Pred pred, Nanos limit, Nanos step = millis(1)) {
    const Nanos end = cluster.engine().now() + limit;
    while (!pred() && cluster.engine().now() < end) run(step);
    return pred();
  }
};

}  // namespace xrdma::testbed

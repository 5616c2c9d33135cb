#include "apps/xdb.hpp"

#include <cstring>

namespace xrdma::apps {

namespace {
// Request payload: 1 byte opcode ('R' read page / 'W' log write).
constexpr std::uint8_t kOpRead = 'R';
constexpr std::uint8_t kOpWrite = 'W';
}  // namespace

XdbServer::XdbServer(testbed::Cluster& cluster, net::NodeId node,
                     XdbConfig cfg)
    : cfg_(cfg), ctx_(cluster.rnic(node), cluster.cm(), cfg.xrdma) {
  ctx_.listen(cfg_.port, [this](core::Channel& ch) {
    ch.set_on_msg([this](core::Channel& c, core::Msg&& m) {
      if (!m.is_rpc_req || m.payload.empty()) return;
      const std::uint8_t op = m.payload.data() ? m.payload.data()[0] : kOpRead;
      if (op == kOpRead) {
        ++reads_;
        c.reply(m.rpc_id, Buffer::synthetic(cfg_.page_size));
      } else {
        ++writes_;
        c.reply(m.rpc_id, Buffer::make(8));  // commit LSN
      }
    });
  });
  ctx_.start_polling_loop();
}

XdbClient::XdbClient(testbed::Cluster& cluster, net::NodeId node,
                     net::NodeId server, XdbConfig cfg)
    : cfg_(cfg), ctx_(cluster.rnic(node), cluster.cm(), cfg.xrdma),
      server_(server) {
  ctx_.start_polling_loop();
}

void XdbClient::start(std::function<void()> ready) {
  ctx_.connect(server_, cfg_.port,
               [this, ready = std::move(ready)](Result<core::Channel*> r) {
                 if (!r.ok()) return;
                 channel_ = r.value();
                 running_ = true;
                 for (int i = 0; i < cfg_.concurrency; ++i) run_txn();
                 if (ready) ready();
               });
}

void XdbClient::run_txn() {
  if (!running_ || !channel_ || !channel_->usable()) return;
  const Nanos started = ctx_.engine().now();

  Buffer read_req = Buffer::make(16);
  read_req.data()[0] = kOpRead;
  channel_->call(std::move(read_req), [this, started](Result<core::Msg> r) {
    if (!r.ok()) {
      ++aborted_;
      run_txn();
      return;
    }
    // Read done; append the redo log record.
    Buffer write_req = Buffer::make(cfg_.log_write_size);
    write_req.data()[0] = kOpWrite;
    channel_->call(std::move(write_req),
                   [this, started](Result<core::Msg> w) {
                     if (w.ok()) {
                       ++committed_;
                       latency_.record(ctx_.engine().now() - started);
                     } else {
                       ++aborted_;
                     }
                     run_txn();
                   });
  });
}

}  // namespace xrdma::apps

#include "apps/pangu.hpp"

#include <memory>

namespace xrdma::apps {

ChunkServer::ChunkServer(testbed::Cluster& cluster, net::NodeId node,
                         PanguConfig cfg)
    : ctx_(cluster.rnic(node), cluster.cm(), cfg.xrdma) {
  ctx_.listen(cfg.chunk_port, [this](core::Channel& ch) {
    ch.set_on_msg([this](core::Channel& c, core::Msg&& m) {
      if (!m.is_rpc_req) return;
      ++writes_handled_;
      // Persisting the chunk is outside the reproduction's scope; the ack
      // is what the replication protocol needs.
      c.reply(m.rpc_id, Buffer::make(8));
    });
  });
  ctx_.start_polling_loop();
}

BlockServer::BlockServer(testbed::Cluster& cluster, net::NodeId node,
                         std::vector<net::NodeId> chunk_nodes, PanguConfig cfg)
    : cfg_(cfg),
      ctx_(cluster.rnic(node), cluster.cm(), cfg.xrdma),
      chunk_nodes_(std::move(chunk_nodes)),
      rng_(0x9a6b ^ node) {
  ctx_.start_polling_loop();
}

void BlockServer::start(std::function<void()> ready) {
  auto remaining = std::make_shared<int>(static_cast<int>(chunk_nodes_.size()));
  if (*remaining == 0) {
    if (ready) ready();
    return;
  }
  for (const net::NodeId chunk : chunk_nodes_) {
    ctx_.connect(chunk, cfg_.chunk_port,
                 [this, remaining, ready](Result<core::Channel*> r) {
                   if (r.ok()) channels_.push_back(r.value());
                   if (--*remaining == 0 && ready) ready();
                 });
  }
}

void BlockServer::rolling_reconnect(std::function<void()> done) {
  // New-generation connections come up first (this is when the QP number
  // ramps in Fig. 11a); the old generation is closed only after every
  // replacement is live, so the write path never loses replica targets.
  struct Upgrade {
    std::vector<core::Channel*> fresh;
    std::size_t remaining;
    std::function<void()> done;
  };
  auto up = std::make_shared<Upgrade>();
  up->remaining = channels_.size();
  up->done = std::move(done);
  if (up->remaining == 0) {
    if (up->done) up->done();
    return;
  }
  up->fresh.resize(channels_.size(), nullptr);
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    const net::NodeId node = channels_[i]->peer_node();
    ctx_.connect(node, cfg_.chunk_port,
                 [this, up, i](Result<core::Channel*> r) {
                   if (r.ok()) up->fresh[i] = r.value();
                   if (--up->remaining > 0) return;
                   for (std::size_t j = 0; j < channels_.size(); ++j) {
                     if (!up->fresh[j]) continue;
                     core::Channel* old = channels_[j];
                     channels_[j] = up->fresh[j];
                     old->close();
                   }
                   if (up->done) up->done();
                 });
  }
}

void BlockServer::write(std::uint32_t size,
                        std::function<void(Errc, Nanos)> done) {
  const int replicas =
      std::min<int>(cfg_.replicas, static_cast<int>(channels_.size()));
  if (replicas == 0) {
    done(Errc::unavailable, 0);
    return;
  }
  struct WriteState {
    int remaining;
    Errc first_error = Errc::ok;
    Nanos started;
    std::function<void(Errc, Nanos)> done;
  };
  auto state = std::make_shared<WriteState>();
  state->remaining = replicas;
  state->started = ctx_.engine().now();
  state->done = std::move(done);

  // Pick `replicas` distinct chunk servers starting at a random offset
  // (round-robin placement like production chunk allocation).
  const std::size_t base = rng_.next_below(channels_.size());
  for (int i = 0; i < replicas; ++i) {
    core::Channel* ch = channels_[(base + static_cast<std::size_t>(i)) %
                                  channels_.size()];
    const Errc rc = ch->call(
        Buffer::synthetic(size),
        [this, state](Result<core::Msg> r) {
          if (!r.ok() && state->first_error == Errc::ok) {
            state->first_error = r.error();
          }
          if (--state->remaining == 0) {
            state->done(state->first_error,
                        ctx_.engine().now() - state->started);
          }
        },
        millis(500));
    if (rc != Errc::ok) {
      if (state->first_error == Errc::ok) state->first_error = rc;
      if (--state->remaining == 0) {
        state->done(state->first_error, ctx_.engine().now() - state->started);
      }
    }
  }
}

EssdFrontend::EssdFrontend(BlockServer& block, EssdConfig cfg)
    : block_(block), cfg_(cfg), rng_(cfg.seed) {}

void EssdFrontend::start() {
  if (running_) return;
  running_ = true;
  tick();
}

void EssdFrontend::stop() { running_ = false; }

void EssdFrontend::tick() {
  if (!running_) return;
  ++issued_;
  block_.write(cfg_.write_size, [this](Errc rc, Nanos latency) {
    if (rc == Errc::ok) {
      ++completed_;
      latency_.record(latency);
      const Nanos now = block_.ctx().engine().now();
      op_meter_.add(now, 1);
      byte_meter_.add(now, cfg_.write_size);
    } else {
      ++errors_;
    }
  });
  // Open-loop Poisson arrivals at the target IOPS.
  const double mean_gap_ns = 1e9 / cfg_.target_iops;
  const Nanos gap =
      std::max<Nanos>(1, static_cast<Nanos>(rng_.exponential(mean_gap_ns)));
  block_.ctx().engine().schedule_after(gap, [this] { tick(); });
}

double EssdFrontend::iops_now() {
  // RateMeter tracks "bytes"; here each op adds 1, so bytes/sec == ops/sec.
  return op_meter_.bytes_per_sec(block_.ctx().engine().now());
}

double EssdFrontend::goodput_gbps_now() {
  return byte_meter_.gbps(block_.ctx().engine().now());
}

}  // namespace xrdma::apps

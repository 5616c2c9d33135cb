// Mini-Pangu: the distributed-storage substrate the paper's production
// workloads run on (§II-C).
//
// Pangu has two components per machine: block servers receive data from
// the front-end (ESSD virtual machines) and distribute 2-3 copies to
// chunk servers on different machines over full-mesh RDMA. Here:
//   - ChunkServer: accepts replica-write RPCs over X-RDMA and acks them;
//   - BlockServer: connects to every chunk server (the full mesh), and for
//     each front-end write picks `replicas` distinct chunk servers,
//     replicates the payload in parallel, and completes the write when all
//     replicas ack;
//   - EssdFrontend: an open-loop writer modelling the VM side, issuing
//     writes at a target IOPS with a configurable payload size (the paper
//     uses 128 KB for the Fig. 8 experiment).
//
// This reproduces the incast-prone traffic pattern behind Figs. 3/8/11/12.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/histogram.hpp"
#include "common/rate.hpp"
#include "common/rng.hpp"
#include "core/context.hpp"
#include "testbed/cluster.hpp"

namespace xrdma::apps {

struct PanguConfig {
  std::uint16_t chunk_port = 8100;
  int replicas = 3;
  core::Config xrdma;  // middleware configuration for every server
};

class ChunkServer {
 public:
  ChunkServer(testbed::Cluster& cluster, net::NodeId node, PanguConfig cfg);

  core::Context& ctx() { return ctx_; }
  net::NodeId node() const { return ctx_.node(); }
  std::uint64_t writes_handled() const { return writes_handled_; }

 private:
  core::Context ctx_;
  std::uint64_t writes_handled_ = 0;
};

class BlockServer {
 public:
  BlockServer(testbed::Cluster& cluster, net::NodeId node,
              std::vector<net::NodeId> chunk_nodes, PanguConfig cfg);

  /// Establish the full mesh to all chunk servers; `ready` fires when
  /// every connection is up (or failed — check connected_chunks()).
  void start(std::function<void()> ready);

  /// Replicate one `size`-byte write to `replicas` distinct chunk servers;
  /// `done` receives the end-to-end latency (or the first error).
  void write(std::uint32_t size,
             std::function<void(Errc, Nanos latency)> done);

  core::Context& ctx() { return ctx_; }
  std::size_t connected_chunks() const { return channels_.size(); }

  /// Online upgrade (Fig. 11): one chunk connection at a time, establish
  /// the replacement first, swap it in, then close the old channel — the
  /// front-end traffic never loses a replica target.
  void rolling_reconnect(std::function<void()> done);

 private:
  PanguConfig cfg_;
  core::Context ctx_;
  std::vector<net::NodeId> chunk_nodes_;
  std::vector<core::Channel*> channels_;
  Rng rng_;
};

struct EssdConfig {
  double target_iops = 3000;
  std::uint32_t write_size = 128 * 1024;
  std::uint64_t seed = 13;
};

class EssdFrontend {
 public:
  EssdFrontend(BlockServer& block, EssdConfig cfg);

  void start();
  void stop();

  std::uint64_t issued() const { return issued_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t errors() const { return errors_; }
  const Histogram& latency() const { return latency_; }
  /// Completion rate over the recent window (Fig. 8's IOPS series).
  double iops_now();
  double goodput_gbps_now();

 private:
  void tick();

  BlockServer& block_;
  EssdConfig cfg_;
  Rng rng_;
  bool running_ = false;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t errors_ = 0;
  Histogram latency_;
  RateMeter op_meter_{millis(50)};
  RateMeter byte_meter_{millis(50)};
};

}  // namespace xrdma::apps

// Shared rigs for the gtest suites: a connected pair whose `establish()`
// fails the test when the channel does not come up, and a mini-Pangu
// deployment (one block server, N chunk servers).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "apps/pangu.hpp"
#include "testbed/pair.hpp"

namespace xrdma::test {

struct Pair : testbed::Pair {
  using testbed::Pair::Pair;

  void establish(std::uint16_t port = 7000) {
    ASSERT_TRUE(testbed::Pair::establish(port))
        << "connect: " << errc_name(connect_rc);
  }
};

/// A block server on host 0 with a full mesh to chunk servers on hosts
/// 1..chunk_count, run for 50 ms so the mesh is up.
struct PanguRig {
  testbed::Cluster cluster;
  std::vector<std::unique_ptr<apps::ChunkServer>> chunks;
  std::unique_ptr<apps::BlockServer> block;
  bool ready = false;

  explicit PanguRig(int chunk_count = 4, apps::PanguConfig cfg = {})
      : cluster(testbed::ClusterConfig::rack(chunk_count + 1)) {
    std::vector<net::NodeId> chunk_nodes;
    for (int i = 1; i <= chunk_count; ++i) {
      chunks.push_back(std::make_unique<apps::ChunkServer>(
          cluster, static_cast<net::NodeId>(i), cfg));
      chunk_nodes.push_back(static_cast<net::NodeId>(i));
    }
    block = std::make_unique<apps::BlockServer>(cluster, 0, chunk_nodes, cfg);
    block->start([this] { ready = true; });
    cluster.engine().run_for(millis(50));
  }
};

}  // namespace xrdma::test

// Application layer: mini-Pangu replication, ESSD front-end, X-DB
// transactions — including failure behaviour (chunk server crash).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "apps/pangu.hpp"
#include "apps/xdb.hpp"
#include "pair.hpp"

namespace xrdma::apps {
namespace {

using test::PanguRig;

TEST(Pangu, BlockServerEstablishesFullMesh) {
  PanguRig rig(4);
  EXPECT_TRUE(rig.ready);
  EXPECT_EQ(rig.block->connected_chunks(), 4u);
}

TEST(Pangu, WriteReplicatesToThreeChunkServers) {
  PanguRig rig(4);
  Errc rc = Errc::internal;
  Nanos latency = 0;
  rig.block->write(128 * 1024, [&](Errc e, Nanos l) {
    rc = e;
    latency = l;
  });
  rig.cluster.engine().run_for(millis(20));
  EXPECT_EQ(rc, Errc::ok);
  EXPECT_GT(latency, micros(10));   // 3x 128 KB replication isn't free
  EXPECT_LT(latency, millis(5));
  std::uint64_t total = 0;
  for (auto& c : rig.chunks) total += c->writes_handled();
  EXPECT_EQ(total, 3u);  // exactly `replicas` copies
}

TEST(Pangu, ManyWritesSpreadAcrossChunkServers) {
  PanguRig rig(6);
  int completed = 0;
  for (int i = 0; i < 60; ++i) {
    rig.block->write(32 * 1024, [&](Errc e, Nanos) {
      if (e == Errc::ok) ++completed;
    });
  }
  rig.cluster.engine().run_for(millis(100));
  EXPECT_EQ(completed, 60);
  // Placement is randomized round-robin: every chunk server gets a share.
  for (auto& c : rig.chunks) EXPECT_GT(c->writes_handled(), 0u);
}

TEST(Pangu, ChunkServerCrashFailsAffectedWritesOnly) {
  PanguConfig cfg;
  cfg.xrdma.keepalive_intv = millis(2);
  PanguRig rig(4, cfg);
  rig.cluster.host(2).set_alive(false);  // one chunk server dies
  rig.cluster.engine().run_for(millis(300));  // keepalive reaps the channel

  int ok = 0, failed = 0;
  for (int i = 0; i < 40; ++i) {
    rig.block->write(16 * 1024, [&](Errc e, Nanos) {
      (e == Errc::ok ? ok : failed) += 1;
    });
  }
  rig.cluster.engine().run_for(millis(200));
  EXPECT_EQ(ok + failed, 40);
  // The dead channel was released, so most writes route around the crash;
  // none may hang forever.
  EXPECT_GT(ok, 0);
}

TEST(Essd, FrontendSustainsTargetIops) {
  PanguRig rig(4);
  EssdConfig ecfg;
  ecfg.target_iops = 5000;
  ecfg.write_size = 32 * 1024;
  EssdFrontend essd(*rig.block, ecfg);
  essd.start();
  rig.cluster.engine().run_for(millis(300));
  essd.stop();
  rig.cluster.engine().run_for(millis(50));
  // 5 KIOPS over 300 ms -> ~1500 issued; most complete.
  EXPECT_GT(essd.completed(), 1000u);
  EXPECT_EQ(essd.errors(), 0u);
  EXPECT_LT(essd.latency().percentile(99), millis(5));
}

TEST(Xdb, TransactionsCommitWithBoundedLatency) {
  testbed::ClusterConfig ccfg;
  ccfg.fabric = net::ClosConfig::rack(2);
  testbed::Cluster cluster(ccfg);
  XdbConfig cfg;
  cfg.concurrency = 4;
  XdbServer server(cluster, 1, cfg);
  XdbClient client(cluster, 0, 1, cfg);
  bool ready = false;
  client.start([&] { ready = true; });
  cluster.engine().run_for(millis(200));
  EXPECT_TRUE(ready);
  client.stop();
  EXPECT_GT(client.committed(), 100u);
  EXPECT_EQ(client.aborted(), 0u);
  // In-flight transactions may have read but not yet written.
  EXPECT_GE(server.reads(), server.writes());
  EXPECT_LE(server.reads() - server.writes(),
            static_cast<std::uint64_t>(cfg.concurrency));
  EXPECT_LT(client.txn_latency().percentile(99), millis(1));
}

}  // namespace
}  // namespace xrdma::apps

// Application-layer extras: the online-upgrade path, X-DB concurrency
// scaling, ESSD under replication-factor variants, and monitor-driven
// observation of the apps.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "analysis/monitor.hpp"
#include "apps/pangu.hpp"
#include "apps/xdb.hpp"
#include "pair.hpp"

namespace xrdma::apps {
namespace {

using test::PanguRig;

TEST(PanguUpgrade, RollingReconnectKeepsWritePathLive) {
  PanguRig rig(4);
  // Continuous writes during the upgrade window.
  int ok = 0, failed = 0;
  bool writing = true;
  std::function<void()> next_write = [&] {
    if (!writing) return;
    rig.block->write(16 * 1024, [&](Errc e, Nanos) {
      (e == Errc::ok ? ok : failed) += 1;
      rig.cluster.engine().schedule_after(micros(200), next_write);
    });
  };
  next_write();

  bool upgraded = false;
  rig.cluster.engine().run_for(millis(20));
  rig.block->rolling_reconnect([&] { upgraded = true; });
  rig.cluster.engine().run_for(millis(100));
  writing = false;
  rig.cluster.engine().run_for(millis(20));

  EXPECT_TRUE(upgraded);
  EXPECT_EQ(rig.block->connected_chunks(), 4u);
  EXPECT_GT(ok, 100);
  EXPECT_EQ(failed, 0);  // no write failed across the upgrade
  // Every post-upgrade channel is fresh and usable.
  for (core::Channel* ch : rig.block->ctx().channels()) {
    if (ch->usable()) {
      EXPECT_EQ(ch->context().node(), 0u);
    }
  }
  // Old QPs were recycled, not leaked.
  EXPECT_GE(rig.block->ctx().qp_cache().size(), 4u);
}

TEST(PanguUpgrade, ReconnectOnEmptyMeshCompletesImmediately) {
  testbed::ClusterConfig c;
  c.fabric = net::ClosConfig::rack(2);
  testbed::Cluster cluster(c);
  BlockServer block(cluster, 0, {}, {});
  bool done = false;
  block.rolling_reconnect([&] { done = true; });
  EXPECT_TRUE(done);
}

TEST(PanguReplication, ReplicaCountFollowsConfig) {
  for (const int replicas : {1, 2, 3}) {
    PanguConfig cfg;
    cfg.replicas = replicas;
    PanguRig rig(4, cfg);
    rig.block->write(8 * 1024, [](Errc, Nanos) {});
    rig.cluster.engine().run_for(millis(20));
    std::uint64_t total = 0;
    for (auto& ch : rig.chunks) total += ch->writes_handled();
    EXPECT_EQ(total, static_cast<std::uint64_t>(replicas)) << replicas;
  }
}

TEST(PanguReplication, FewerChunksThanReplicasStillWrites) {
  PanguConfig cfg;
  cfg.replicas = 3;
  PanguRig rig(2, cfg);  // only two targets
  Errc rc = Errc::internal;
  rig.block->write(4096, [&](Errc e, Nanos) { rc = e; });
  rig.cluster.engine().run_for(millis(20));
  EXPECT_EQ(rc, Errc::ok);
  std::uint64_t total = 0;
  for (auto& ch : rig.chunks) total += ch->writes_handled();
  EXPECT_EQ(total, 2u);  // degraded to the available targets
}

class XdbConcurrency : public ::testing::TestWithParam<int> {};

TEST_P(XdbConcurrency, ThroughputScalesWithMultiprogramming) {
  const int mp = GetParam();
  testbed::ClusterConfig ccfg;
  ccfg.fabric = net::ClosConfig::rack(2);
  testbed::Cluster cluster(ccfg);
  XdbConfig cfg;
  cfg.concurrency = mp;
  XdbServer server(cluster, 1, cfg);
  XdbClient client(cluster, 0, 1, cfg);
  client.start(nullptr);
  cluster.engine().run_for(millis(150));
  client.stop();
  EXPECT_GT(client.committed(), static_cast<std::uint64_t>(40 * mp));
  EXPECT_EQ(client.aborted(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Levels, XdbConcurrency, ::testing::Values(1, 4, 16));

TEST(XdbFailure, ServerCrashAbortsInFlightTransactions) {
  testbed::ClusterConfig ccfg;
  ccfg.fabric = net::ClosConfig::rack(2);
  testbed::Cluster cluster(ccfg);
  XdbConfig cfg;
  cfg.concurrency = 4;
  cfg.xrdma.keepalive_intv = millis(2);
  XdbServer server(cluster, 1, cfg);
  XdbClient client(cluster, 0, 1, cfg);
  client.start(nullptr);
  cluster.engine().run_for(millis(50));
  const std::uint64_t committed_before_crash = client.committed();
  EXPECT_GT(committed_before_crash, 0u);
  cluster.host(1).set_alive(false);
  cluster.engine().run_for(millis(300));
  EXPECT_GT(client.aborted(), 0u);  // in-flight work failed, didn't hang
}

TEST(MonitorIntegration, TracksPanguSeriesLive) {
  PanguRig rig(3);
  EssdConfig ecfg;
  ecfg.target_iops = 2000;
  ecfg.write_size = 16 * 1024;
  EssdFrontend essd(*rig.block, ecfg);
  analysis::Monitor monitor(rig.cluster.engine(), millis(10));
  monitor.track("iops", [&] { return essd.iops_now(); });
  monitor.track("chunk_writes", [&] {
    double total = 0;
    for (auto& c : rig.chunks) {
      total += static_cast<double>(c->writes_handled());
    }
    return total;
  });
  monitor.start();
  essd.start();
  rig.cluster.engine().run_for(millis(200));
  essd.stop();
  monitor.stop();
  const auto& iops = monitor.series("iops");
  ASSERT_GT(iops.samples.size(), 10u);
  EXPECT_NEAR(iops.last(), 2000, 800);  // near the target at steady state
  // chunk_writes is a monotone counter series.
  const auto& cw = monitor.series("chunk_writes").samples;
  for (std::size_t i = 1; i < cw.size(); ++i) {
    EXPECT_GE(cw[i].value, cw[i - 1].value);
  }
  EXPECT_NE(monitor.table().find("iops"), std::string::npos);
}

}  // namespace
}  // namespace xrdma::apps

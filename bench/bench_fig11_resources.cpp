// Figure 11: resource management during online operation.
//
//  (a)+(b) an online upgrade (rolling reconnect of the block server's full
//  mesh) ramps the QP number without hurting IOPS or causing jitter;
//  (c) the memory cache's occupied capacity tracks the in-use bytes (and
//  hence the offered bandwidth) through a load swell and decay, growing on
//  demand and shrinking when idle.
#include <memory>

#include "analysis/monitor.hpp"
#include "apps/pangu.hpp"
#include "bench/bench_util.hpp"

using namespace xrdma;
using namespace xrdma::bench;

int main() {
  print_header("Fig. 11a/b — online upgrade: QP count vs IOPS");
  {
    constexpr int kChunks = 6;
    testbed::ClusterConfig ccfg;
    ccfg.fabric = net::ClosConfig::rack(kChunks + 1);
    testbed::Cluster cluster(ccfg);
    apps::PanguConfig pcfg;
    pcfg.xrdma.memcache_real_memory = false;
    std::vector<std::unique_ptr<apps::ChunkServer>> chunks;
    std::vector<net::NodeId> chunk_nodes;
    for (int i = 1; i <= kChunks; ++i) {
      chunks.push_back(std::make_unique<apps::ChunkServer>(
          cluster, static_cast<net::NodeId>(i), pcfg));
      chunk_nodes.push_back(static_cast<net::NodeId>(i));
    }
    apps::BlockServer block(cluster, 0, chunk_nodes, pcfg);
    block.start(nullptr);
    cluster.engine().run_for(millis(50));

    apps::EssdConfig ecfg;
    ecfg.target_iops = 4000;
    ecfg.write_size = 32 * 1024;
    apps::EssdFrontend essd(block, ecfg);

    analysis::Monitor monitor(cluster.engine(), millis(20));
    monitor.track("qp_num", [&] {
      return static_cast<double>(cluster.rnic(0).num_qps());
    });
    monitor.track("kiops", [&] { return essd.iops_now() / 1000.0; });
    monitor.track("p99_us",
                  [&] { return to_micros(essd.latency().percentile(99)); });
    monitor.start();
    essd.start();

    cluster.engine().run_for(millis(150));
    // The upgrade: every chunk connection replaced one by one.
    bool upgraded = false;
    block.rolling_reconnect([&] { upgraded = true; });
    cluster.engine().run_for(millis(250));
    essd.stop();
    monitor.stop();

    std::printf("%s", monitor.table().c_str());
    const auto& kiops = monitor.series("kiops");
    // Jitter check: IOPS before vs after the upgrade window.
    double before = 0, after = 0;
    int nb = 0, na = 0;
    for (const auto& s : kiops.samples) {
      if (s.at < millis(150) && s.at > millis(100)) {
        before += s.value;
        ++nb;
      }
      if (s.at > millis(250)) {
        after += s.value;
        ++na;
      }
    }
    std::printf("\nupgrade completed: %s\n", upgraded ? "yes" : "NO");
    std::printf("IOPS before=%.2fK after=%.2fK (paper: upgrade does not harm "
                "performance)\n",
                nb ? before / nb : 0, na ? after / na : 0);
    std::printf("QP count peak=%g (old QPs recycle into the cache)\n",
                monitor.series("qp_num").max());
  }

  print_header("Fig. 11c — memory cache occupancy tracks bandwidth");
  {
    core::Config cfg;
    cfg.memcache_shrink_period = millis(20);
    testbed::Pair pair(cfg);
    pair.establish(7000, millis(30));
    pair.server_ch->set_on_msg([](core::Channel&, core::Msg&&) {});

    // Offered load: ramp up, hold, decay (three phases of large messages).
    auto offered = std::make_shared<double>(1.0);  // Gbps
    Rng rng(5);
    sim::PeriodicTimer driver(pair.cluster.engine(), micros(500), [&] {
      // Poisson-ish: send enough 256 KB messages to match the offered rate.
      const double bytes_per_tick = *offered * 1e9 / 8.0 * 500e-6;
      int msgs = static_cast<int>(bytes_per_tick / (256.0 * 1024.0) + 0.5);
      for (int i = 0; i < msgs; ++i) {
        pair.client_ch->send_msg(Buffer::synthetic(256 * 1024));
      }
    });
    driver.start();

    analysis::Monitor monitor(pair.cluster.engine(), millis(10));
    std::uint64_t last_bytes = 0;
    monitor.track("bandwidth_gbps", [&] {
      const std::uint64_t now = pair.cluster.rnic(1).stats().rx_bytes;
      const double gbps =
          static_cast<double>(now - last_bytes) * 8.0 / millis(10);
      last_bytes = now;
      return gbps;
    });
    monitor.track("occupy_mb", [&] {
      return static_cast<double>(
                 pair.client.data_cache().stats().occupied_bytes) /
             1e6;
    });
    monitor.track("in_use_mb", [&] {
      return static_cast<double>(pair.client.data_cache().stats().in_use_bytes) /
             1e6;
    });
    monitor.start();

    pair.run(millis(60));
    *offered = 30.0;  // swell past the 25G link: queues + windows fill
    pair.run(millis(100));
    *offered = 0.5;  // decay
    pair.run(millis(120));
    driver.stop();
    monitor.stop();

    std::printf("%s", monitor.table().c_str());
    const auto& occ = monitor.series("occupy_mb");
    std::printf("\noccupy: peak=%.1fMB final=%.1fMB (grows with load, "
                "shrinks when idle — Fig. 11c)\n",
                occ.max(), occ.last());
  }
  return 0;
}

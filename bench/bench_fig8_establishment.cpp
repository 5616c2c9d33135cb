// §VII-C + Fig. 8: connection establishment.
//
//  (a) single-connection establishment time, rdma_cm full path vs QP-cache
//      reuse (paper: 3946 us -> 2451 us, -38%) vs TCP (~100 us);
//  (b) a 4096-connection storm with bounded concurrency (paper: ~3 s with
//      the cache vs ~10 s with plain rdma_cm);
//  (c) Fig. 8 proper: ESSD aggregate IOPS ramping to steady state within
//      ~2 s of a cluster restart (128 KB payloads).
#include <memory>

#include <sys/resource.h>

#include "analysis/monitor.hpp"
#include "apps/pangu.hpp"
#include "bench/bench_util.hpp"

using namespace xrdma;
using namespace xrdma::bench;

namespace {

/// Time one CM-level connect, optionally warming the QP cache first.
Nanos measure_connect(bool use_cached_qp) {
  testbed::Cluster cluster;
  core::Context server(cluster.rnic(1), cluster.cm());
  core::Context client(cluster.rnic(0), cluster.cm());
  server.listen(7000, [](core::Channel&) {});

  if (use_cached_qp) {
    // Open and gracefully close once so both caches hold a recycled QP.
    core::Channel* warm = nullptr;
    client.connect(1, 7000, [&](Result<core::Channel*> r) { warm = r.value(); });
    cluster.engine().run_for(millis(20));
    warm->close();
    server.start_polling_loop();
    client.start_polling_loop();
    cluster.engine().run_for(millis(10));
    server.stop_polling_loop();
    client.stop_polling_loop();
  }

  const Nanos start = cluster.engine().now();
  Nanos established = -1;
  client.connect(1, 7000, [&](Result<core::Channel*> r) {
    if (r.ok()) established = cluster.engine().now() - start;
  });
  cluster.engine().run_for(millis(50));
  return established;
}

Nanos measure_tcp_connect() {
  testbed::Cluster cluster;
  cluster.host(1).tcp().listen(80, [](tcpsim::TcpConn&) {});
  const Nanos start = cluster.engine().now();
  Nanos established = -1;
  cluster.host(0).tcp().connect(1, 80, [&](Result<tcpsim::TcpConn*> r) {
    if (r.ok()) established = cluster.engine().now() - start;
  });
  cluster.engine().run_for(millis(5));
  return established;
}

/// Host clock: this process's CPU time and minor page faults so far.
struct HostUsage {
  double user_s = 0;
  double sys_s = 0;
  long minor_faults = 0;
};

HostUsage host_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime), ru.ru_minflt};
}

/// Prints what one storm cost the host, on a line marked as host clock.
void print_host_usage(const char* what, const HostUsage& before,
                      const HostUsage& after) {
  std::printf("[host clock] %s: user %.2f s, sys %.2f s, %ld minor faults\n",
              what, after.user_s - before.user_s, after.sys_s - before.sys_s,
              after.minor_faults - before.minor_faults);
}

/// Connection storm: `total` connects from one context with `parallel`
/// outstanding at a time; returns the makespan.
Nanos measure_storm(int total, int parallel, bool warm_cache) {
  testbed::ClusterConfig ccfg;
  ccfg.fabric = net::ClosConfig::rack(2);
  core::Config cfg;
  cfg.qp_cache_capacity = static_cast<std::size_t>(total) + 8;
  cfg.window_depth = 8;  // keep 4096 channels' bounce memory modest
  cfg.keepalive_intv = seconds(10);  // irrelevant here; avoid probe noise
  testbed::Cluster cluster(ccfg);
  core::Context server(cluster.rnic(1), cluster.cm(), cfg);
  core::Context client(cluster.rnic(0), cluster.cm(), cfg);
  server.listen(7000, [](core::Channel&) {});

  std::vector<core::Channel*> channels;
  if (warm_cache) {
    // Previous generation of connections, closed: the caches are hot.
    int open = 0;
    for (int i = 0; i < total; ++i) {
      client.connect(1, 7000, [&](Result<core::Channel*> r) {
        if (r.ok()) channels.push_back(r.value());
        ++open;
      });
    }
    while (open < total) cluster.engine().run_for(millis(50));
    server.start_polling_loop();
    client.start_polling_loop();
    for (auto* ch : channels) ch->close();
    cluster.engine().run_for(millis(100));
    server.stop_polling_loop();
    client.stop_polling_loop();
    channels.clear();
  }

  server.start_polling_loop();
  client.start_polling_loop();
  const Nanos start = cluster.engine().now();
  Nanos finish = start;
  int done = 0, issued = 0;
  std::function<void()> issue = [&] {
    if (issued >= total) return;
    ++issued;
    client.connect(1, 7000, [&](Result<core::Channel*> r) {
      (void)r;
      if (++done == total) finish = cluster.engine().now();
      issue();
    });
  };
  for (int i = 0; i < parallel; ++i) issue();
  while (done < total) cluster.engine().run_for(millis(100));
  return finish - start;
}

}  // namespace

int main() {
  print_header("§VII-C (a): single connection establishment");
  const Nanos full = measure_connect(false);
  const Nanos cached = measure_connect(true);
  const Nanos tcp = measure_tcp_connect();
  std::printf("rdma_cm full path:   %8.0f us   (paper: 3946)\n", to_micros(full));
  std::printf("with QP cache:       %8.0f us   (paper: 2451)\n", to_micros(cached));
  std::printf("saving:              %8.1f %%   (paper: 38%%)\n",
              100.0 * static_cast<double>(full - cached) /
                  static_cast<double>(full));
  std::printf("kernel TCP:          %8.0f us   (paper: ~100)\n", to_micros(tcp));

  print_header("§VII-C (b): 4096-connection storm (16-way concurrent)");
  const int kConns = 4096;
  const HostUsage at_start = host_usage();
  const Nanos storm_cold = measure_storm(kConns, 16, false);
  const HostUsage after_cold = host_usage();
  const Nanos storm_warm = measure_storm(kConns, 16, true);
  const HostUsage after_warm = host_usage();
  std::printf("plain rdma_cm:       %8.2f s    (paper: ~10 s)\n",
              to_seconds(storm_cold));
  std::printf("with QP cache:       %8.2f s    (paper: ~3 s)\n",
              to_seconds(storm_warm));
  print_host_usage("plain rdma_cm storm", at_start, after_cold);
  print_host_usage("QP cache storm (two generations)", after_cold, after_warm);

  print_header("Fig. 8: ESSD aggregate IOPS after restart (128 KB payload)");
  constexpr int kChunks = 7;
  testbed::ClusterConfig ccfg;
  ccfg.fabric = net::ClosConfig::rack(kChunks + 1);
  testbed::Cluster cluster(ccfg);
  apps::PanguConfig pcfg;
  pcfg.xrdma.memcache_real_memory = false;  // synthetic payloads: timing only
  std::vector<std::unique_ptr<apps::ChunkServer>> chunks;
  std::vector<net::NodeId> chunk_nodes;
  for (int i = 1; i <= kChunks; ++i) {
    chunks.push_back(std::make_unique<apps::ChunkServer>(
        cluster, static_cast<net::NodeId>(i), pcfg));
    chunk_nodes.push_back(static_cast<net::NodeId>(i));
  }
  apps::BlockServer block(cluster, 0, chunk_nodes, pcfg);
  apps::EssdConfig ecfg;
  ecfg.target_iops = 6000;
  ecfg.write_size = 128 * 1024;
  apps::EssdFrontend essd(block, ecfg);

  analysis::Monitor monitor(cluster.engine(), millis(50));
  monitor.track("essd_kiops", [&] { return essd.iops_now() / 1000.0; });
  monitor.track("goodput_gbps", [&] { return essd.goodput_gbps_now(); });
  monitor.start();

  // "Restart": connections are established while the front-end already
  // pushes load, like the 64-machine cluster returning to steady state.
  block.start([&] { /* mesh up */ });
  essd.start();
  cluster.engine().run_for(seconds(2));
  essd.stop();
  monitor.stop();

  std::printf("%s", monitor.table().c_str());
  const auto& kiops = monitor.series("essd_kiops");
  Nanos steady_at = -1;
  for (const auto& s : kiops.samples) {
    if (s.value >= 0.9 * ecfg.target_iops / 1000.0) {
      steady_at = s.at;
      break;
    }
  }
  std::printf("\nsteady state (>=90%% of %.0f KIOPS) reached at t=%.2f s "
              "(paper: < 2 s)\n",
              ecfg.target_iops / 1000.0, to_seconds(steady_at));
  std::printf("write p99 latency: %.0f us\n",
              to_micros(essd.latency().percentile(99)));
  return 0;
}

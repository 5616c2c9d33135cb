// Table II: bug classes and the analysis-framework mechanism that tracks
// each one. Every row is demonstrated live: the bug is injected, the
// corresponding tool detects it, and the evidence is printed.
//
//   heavy incast            -> tracing + XR-Stat (CNP / pause counters)
//   broken network          -> keepAlive + XR-Ping (FAIL cells)
//   jitter                  -> tracing + XR-Perf (latency percentiles)
//   long tail               -> tracing + XR-Perf (p99.9)
//   bugs hard to reproduce  -> Filter (deterministic fault injection)
//   memory leak or crash    -> isolated memory cache (guard canaries)
#include <memory>

#include "analysis/monitor.hpp"
#include "bench/bench_util.hpp"
#include "tools/xr_ping.hpp"
#include "tools/xr_stat.hpp"

using namespace xrdma;
using namespace xrdma::bench;

namespace {

bool detect_heavy_incast() {
  // 6 senders of large messages into one host; XR-Stat's fabric indexes
  // (ECN marks / pause frames) light up.
  testbed::ClusterConfig ccfg;
  ccfg.fabric = net::ClosConfig::rack(7);
  testbed::Cluster cluster(ccfg);
  core::Config cfg;
  cfg.memcache_real_memory = false;
  cfg.flowctl = false;  // the buggy deployment
  core::Context rx(cluster.rnic(0), cluster.cm(), cfg);
  rx.config().poll_mode = core::PollMode::busy;
  rx.listen(7000, [](core::Channel& ch) {
    ch.set_on_msg([](core::Channel&, core::Msg&&) {});
  });
  rx.start_polling_loop();
  std::vector<std::unique_ptr<core::Context>> tx;
  std::vector<core::Channel*> chans;
  for (int i = 1; i <= 6; ++i) {
    tx.push_back(std::make_unique<core::Context>(
        cluster.rnic(static_cast<net::NodeId>(i)), cluster.cm(), cfg));
    tx.back()->config().poll_mode = core::PollMode::busy;
    tx.back()->start_polling_loop();
    for (int c = 0; c < 4; ++c) {
      tx.back()->connect(0, 7000, [&](Result<core::Channel*> r) {
        if (r.ok()) chans.push_back(r.value());
      });
    }
  }
  cluster.engine().run_for(millis(40));
  sim::PeriodicTimer feeder(cluster.engine(), micros(300), [&] {
    for (auto* ch : chans) {
      while (ch->usable() && ch->inflight_msgs() + ch->queued_msgs() < 2) {
        ch->send_msg(Buffer::synthetic(128 * 1024));
      }
    }
  });
  feeder.start();
  cluster.engine().run_for(millis(60));
  feeder.stop();
  const auto fs = cluster.fabric().stats();
  std::printf("  evidence: %s", tools::xr_stat_fabric(cluster.fabric()).c_str());
  return fs.ecn_marks > 0 || fs.pause_frames > 0;
}

bool detect_broken_network() {
  testbed::ClusterConfig ccfg;
  ccfg.fabric = net::ClosConfig::rack(3);
  testbed::Cluster cluster(ccfg);
  std::vector<std::unique_ptr<core::Context>> ctxs;
  std::vector<core::Context*> raw;
  for (int i = 0; i < 3; ++i) {
    ctxs.push_back(std::make_unique<core::Context>(
        cluster.rnic(static_cast<net::NodeId>(i)), cluster.cm()));
    ctxs.back()->config().poll_mode = core::PollMode::busy;
    ctxs.back()->start_polling_loop();
    raw.push_back(ctxs.back().get());
  }
  cluster.host(2).set_alive(false);  // broken machine
  tools::PingMatrix matrix;
  bool done = false;
  tools::XrPingOptions opts;
  opts.timeout = millis(10);
  tools::xr_ping_mesh(raw, opts, [&](tools::PingMatrix m) {
    matrix = std::move(m);
    done = true;
  });
  cluster.engine().run_for(millis(150));
  std::printf("  evidence: XR-Ping matrix has %d unreachable pairs\n",
              matrix.unreachable_count());
  return done && matrix.unreachable_count() == 4;
}

bool detect_jitter_and_tail(bool tail) {
  // A jittery deployment: random 1 ms processing stalls at the server.
  testbed::Pair pair;
  pair.establish(7000, millis(30));
  Rng rng(7);
  pair.server_ch->set_on_msg([&](core::Channel& ch, core::Msg&& m) {
    if (!m.is_rpc_req) return;
    const std::uint64_t id = m.rpc_id;
    if (rng.chance(0.05)) {
      // The buggy path: a blocking allocator call in the handler (the
      // paper's Pangu case study).
      pair.cluster.engine().schedule_after(
          millis(1), [&ch, id] { ch.reply(id, Buffer::make(8)); });
    } else {
      ch.reply(id, Buffer::make(8));
    }
  });
  tools::PerfOptions opts;
  opts.total_msgs = 400;
  opts.msg_size = 64;
  tools::PerfReport report;
  bool done = false;
  tools::xr_perf(*pair.client_ch, opts, [&](tools::PerfReport r) {
    report = std::move(r);
    done = true;
  });
  pair.run_until([&] { return done; }, seconds(2));
  const double p50 = static_cast<double>(report.latency.percentile(50));
  const double p99 = static_cast<double>(report.latency.percentile(99));
  const double p999 = static_cast<double>(report.latency.percentile(99.9));
  std::printf("  evidence: XR-Perf lat p50=%.1fus p99=%.1fus p999=%.1fus\n",
              p50 / 1000, p99 / 1000, p999 / 1000);
  return tail ? p999 > 10 * p50 : p99 > 5 * p50;
}

bool detect_hard_to_reproduce() {
  // A once-in-a-blue-moon message loss: Filter makes it deterministic.
  testbed::Pair pair;
  pair.establish(7000, millis(30));
  pair.server_ch->set_on_msg([](core::Channel& ch, core::Msg&& m) {
    if (m.is_rpc_req) ch.reply(m.rpc_id, Buffer::make(8));
  });
  int dropped_window = 0;
  pair.server.set_filter([&](core::Channel&, const core::WireHeader& hdr) {
    core::Context::FilterDecision d;
    if ((hdr.flags & core::kFlagRpcReq) && hdr.seq == 3) {
      d.action = core::Context::FilterAction::drop;  // always msg #3
      ++dropped_window;
    }
    return d;
  });
  int timeouts = 0;
  for (int i = 0; i < 6; ++i) {
    pair.client_ch->call(
        Buffer::make(16),
        [&](Result<core::Msg> r) {
          if (!r.ok()) ++timeouts;
        },
        millis(5));
  }
  pair.run(millis(40));
  std::printf("  evidence: Filter dropped seq=3 deterministically; %d rpc "
              "timeout(s) observed\n",
              timeouts);
  return dropped_window >= 1 && timeouts >= 1;
}

bool detect_memory_bug() {
  testbed::Cluster cluster;
  core::Context ctx(cluster.rnic(0), cluster.cm());
  int violations = 0;
  ctx.data_cache().set_violation_handler(
      [&](const core::MemBlock&) { ++violations; });
  core::MemBlock block = ctx.reg_mem(512);
  std::uint8_t* p = ctx.mem_ptr(block);
  p[512] = 0x42;  // the application bug: off-by-one write
  ctx.dereg_mem(block);
  std::printf("  evidence: memcache isolation flagged %d guard violation(s)\n",
              violations);
  return violations == 1;
}

void row(const char* bug, const char* method, bool detected) {
  std::printf("%-24s %-34s %s\n", bug, method,
              detected ? "DETECTED" : "** MISSED **");
}

}  // namespace

int main() {
  print_header("Table II — bug classes vs tracking method (live demos)");
  std::printf("%-24s %-34s %s\n", "bug type", "tracking method", "result");
  std::printf("%-24s %-34s %s\n", "--------", "---------------", "------");

  std::printf("\n[heavy incast]\n");
  const bool incast = detect_heavy_incast();
  std::printf("\n[broken network]\n");
  const bool broken = detect_broken_network();
  std::printf("\n[jitter]\n");
  const bool jitter = detect_jitter_and_tail(false);
  std::printf("\n[long tail]\n");
  const bool tail = detect_jitter_and_tail(true);
  std::printf("\n[bugs hard to reproduce]\n");
  const bool hard = detect_hard_to_reproduce();
  std::printf("\n[memory leak or crash]\n");
  const bool mem = detect_memory_bug();

  std::printf("\n");
  row("heavy incast", "tracing, XR-Stat", incast);
  row("broken network", "keepAlive, XR-Ping", broken);
  row("jitter", "tracing, XR-Perf", jitter);
  row("long tail", "tracing, XR-Perf", tail);
  row("bugs hard to reproduce", "filter", hard);
  row("memory leak or crash", "isolated memory cache", mem);
  return incast && broken && jitter && tail && hard && mem ? 0 : 1;
}

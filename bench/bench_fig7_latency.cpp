// Figure 7: ping-pong latency vs message size for X-RDMA (mixed /
// small-only / large-only modes; bare-data vs req-rsp) against
// ibv_rc_pingpong, xio, ucx-am-rc and libfabric. Also reproduces the
// §VII-A headline numbers: X-RDMA ~5.60 us vs ucx 5.87 vs libfabric 6.20,
// tracing overhead 2-4%, and the large-vs-small mode gap (~40% at tiny
// sizes, small beyond 128 B).
#include "analysis/trace.hpp"
#include "baselines/am_middleware.hpp"
#include "bench/bench_util.hpp"
#include "tools/xr_stat.hpp"

using namespace xrdma;
using namespace xrdma::bench;

namespace {

Nanos baseline_rtt(baselines::AmConfig cfg, std::uint32_t size) {
  testbed::Cluster cluster;
  baselines::AmPair pair(cluster, 0, 1, cfg);
  return pair.measure_avg_rtt(size, 30);
}

core::Config mode_mixed() { return {}; }
core::Config mode_small_only() {
  core::Config c;
  c.small_msg_size = 64 * 1024;  // eager across the whole sweep
  return c;
}
core::Config mode_large_only() {
  core::Config c;
  c.small_msg_size = 0;  // everything rendezvous
  return c;
}
core::Config mode_reqrsp() {
  core::Config c;
  c.reqrsp_mode = true;
  return c;
}

}  // namespace

int main() {
  print_header("Fig. 7 — ping-pong latency (us, RTT) vs payload size");
  print_row({"size", "xrdma", "xr-small", "xr-large", "xr-reqrsp", "ibv",
             "ucx-am-rc", "libfabric", "xio"},
            11);

  const std::vector<std::uint32_t> sizes = {2,    8,    64,   128,  512,
                                            2048, 4096, 8192, 16384, 32768};
  Nanos xr64 = 0, xr64_rr = 0, ibv64 = 0, ucx64 = 0, fab64 = 0;
  Nanos small64 = 0, large64 = 0, small256 = 0, large256 = 0;
  for (const std::uint32_t size : sizes) {
    const Nanos xr = xrdma_echo_rtt(mode_mixed(), size);
    const Nanos xs = xrdma_echo_rtt(mode_small_only(), size);
    const Nanos xl = xrdma_echo_rtt(mode_large_only(), size);
    const Nanos rr = xrdma_echo_rtt(mode_reqrsp(), size);
    const Nanos ib = baseline_rtt(baselines::AmConfig::ibv_pingpong(), size);
    const Nanos uc = baseline_rtt(baselines::AmConfig::ucx_am_rc_like(), size);
    const Nanos lf = baseline_rtt(baselines::AmConfig::libfabric_like(), size);
    const Nanos xi = baseline_rtt(baselines::AmConfig::xio_like(), size);
    if (size == 64) {
      xr64 = xr;
      xr64_rr = rr;
      ibv64 = ib;
      ucx64 = uc;
      fab64 = lf;
      small64 = xs;
      large64 = xl;
    }
    if (size == 512) {
      small256 = xs;
      large256 = xl;
    }
    print_row({std::to_string(size), fmt("%.2f", to_micros(xr)),
               fmt("%.2f", to_micros(xs)), fmt("%.2f", to_micros(xl)),
               fmt("%.2f", to_micros(rr)), fmt("%.2f", to_micros(ib)),
               fmt("%.2f", to_micros(uc)), fmt("%.2f", to_micros(lf)),
               fmt("%.2f", to_micros(xi))},
              11);
  }

  print_header("Fig. 7 headline comparisons (paper values in parentheses)");
  std::printf("xrdma 64B RTT:        %.2f us   (paper: 5.60)\n",
              to_micros(xr64));
  std::printf("ucx-am-rc 64B RTT:    %.2f us   (paper: 5.87, xrdma ~5%% lower)\n",
              to_micros(ucx64));
  std::printf("libfabric 64B RTT:    %.2f us   (paper: 6.20, xrdma ~10%% lower)\n",
              to_micros(fab64));
  std::printf("ibv_rc_pingpong:      %.2f us   (xrdma within 10%%: %+.1f%%)\n",
              to_micros(ibv64),
              100.0 * (to_micros(xr64) - to_micros(ibv64)) / to_micros(ibv64));
  std::printf("req-rsp tracing tax:  %+.1f%%    (paper: +2-4%%, ~200ns)\n",
              100.0 * (to_micros(xr64_rr) - to_micros(xr64)) / to_micros(xr64));
  std::printf("large vs small @64B:  %+.1f%%    (paper: ~+40%% under 128B)\n",
              100.0 * (to_micros(large64) - to_micros(small64)) /
                  to_micros(small64));
  std::printf("large vs small @512B: %+.2f us   (paper: <=1.4us beyond 128B)\n",
              to_micros(large256 - small256));

  // Per-stage latency decomposition (§VI-A): req-rsp traced RPCs through
  // the SpanCollector, reported via xr_perf --decompose / xr_stat --trace.
  print_header("Fig. 7 — 64B RPC latency decomposition (req-rsp tracing)");
  {
    testbed::Pair pair(mode_reqrsp());
    if (!pair.establish(7000, millis(30))) return 1;
    analysis::SpanCollector spans;
    spans.attach(pair.client);
    spans.attach(pair.server);
    tools::perf_echo_responder(*pair.server_ch);
    tools::PerfOptions opts;
    opts.total_msgs = 500;
    opts.msg_size = 64;
    opts.rpc_timeout = millis(500);
    opts.decompose = true;
    opts.spans = &spans;
    tools::PerfReport report;
    bool done = false;
    tools::xr_perf(*pair.client_ch, opts, [&](tools::PerfReport r) {
      report = std::move(r);
      done = true;
    });
    pair.run_until([&] { return done; }, seconds(5));
    std::printf("%s\n", report.summary().c_str());
    std::printf("%s", tools::xr_stat_trace(spans).c_str());
    std::printf("\npoll watchdog:\n%s",
                analysis::poll_watchdog_report({&pair.client, &pair.server})
                    .c_str());
  }
  return 0;
}

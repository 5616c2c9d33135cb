// Shared helpers for the figure/table benches.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/context.hpp"
#include "testbed/pair.hpp"
#include "tools/xr_perf.hpp"

namespace xrdma::bench {

/// Mean RPC echo RTT over `count` sequential ping-pongs.
inline Nanos xrdma_echo_rtt(core::Config cfg, std::uint32_t size,
                            int count = 30) {
  testbed::Pair pair(cfg);
  if (!pair.establish(7000, millis(30))) return -1;
  tools::perf_echo_responder(*pair.server_ch);
  tools::PerfOptions opts;
  opts.total_msgs = static_cast<std::uint64_t>(count);
  opts.msg_size = size;
  opts.rpc_timeout = millis(500);
  tools::PerfReport report;
  bool done = false;
  tools::xr_perf(*pair.client_ch, opts, [&](tools::PerfReport r) {
    report = std::move(r);
    done = true;
  });
  pair.run_until([&] { return done; }, seconds(2));
  if (!done || report.completed == 0) return -1;
  return static_cast<Nanos>(report.latency.mean());
}

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void print_row(const std::vector<std::string>& cells, int width = 14) {
  for (const auto& c : cells) std::printf("%-*s", width, c.c_str());
  std::printf("\n");
}

inline std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

}  // namespace xrdma::bench

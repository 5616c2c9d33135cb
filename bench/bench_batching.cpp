// Batched hot path: doorbell coalescing, WR chaining, inline sends (§V).
//
// Two seeded deterministic experiments:
//
//  (a) small-eager flood: per-core msgs/s for ≤256 B eager traffic with
//      batching+inline ON (defaults: tx_batch_max_wrs=8, inline_max=256)
//      vs OFF (tx_batch_max_wrs=1, inline_max=0 — the pre-batching hot
//      path). One busy-polling sender core drives the flood, so simulated
//      msgs/s IS per-core msgs/s. Alongside, the NIC tx CPU-cost
//      decomposition: the RNIC charges doorbell (250 ns/ring), WQE fetch
//      (350 ns/WR) and payload DMA (300 ns/non-inline WR) separately and
//      exports each count through the tracing plane (RnicStats /
//      chan.* metrics); deltas x the calibrated constants show exactly
//      where chaining and inline reclaim the per-message budget.
//  (b) paced bursts: an RPC-server-like arrival pattern (a batch of
//      replies handed over per app iteration) where doorbell coalescing
//      shows its shape — wrs/doorbell climbs to the burst size with
//      batching on and stays at 1.0 with it off.
//
// Run with --smoke for the CI-sized variant with pass/fail gates
// (acceptance: ON >= 1.2x OFF per-core msgs/s at 64 B and 256 B).
#include <cstring>

#include "bench/bench_util.hpp"
#include "rnic/rnic.hpp"

using namespace xrdma;
using namespace xrdma::bench;

namespace {

core::Config batch_cfg(bool batching) {
  core::Config cfg;
  if (!batching) {
    cfg.tx_batch_max_wrs = 1;  // post immediately: one doorbell per WR
    cfg.inline_max = 0;        // every payload takes the MemCache+DMA path
  }
  return cfg;
}

struct FloodSample {
  double msgs_per_sec = 0;       // simulated; one sender core busy-polling
  double wrs_per_doorbell = 0;   // data-path chain length actually achieved
  std::uint64_t delivered = 0;
  std::uint64_t inline_sends = 0;
  std::uint64_t copies_avoided = 0;  // MemCache staging copies skipped
  std::uint64_t doorbells = 0;
  // NIC tx-pipe cost per message, ns, from the traced counters x the
  // calibrated constants in rnic::RnicConfig.
  double doorbell_ns = 0;
  double wqe_ns = 0;
  double dma_ns = 0;
};

void fill_from_stats(FloodSample& s, testbed::Pair& pair,
                     const rnic::RnicStats& before, int total) {
  const core::ChannelStats& cs = pair.client_ch->stats();
  if (cs.doorbells > 0) {
    s.wrs_per_doorbell = double(cs.doorbell_wrs) / double(cs.doorbells);
  }
  s.inline_sends = cs.inline_sends;
  s.copies_avoided = cs.eager_copies_avoided;
  s.doorbells = cs.doorbells;

  const rnic::RnicConfig& ncfg = pair.cluster.rnic(0).config();
  const rnic::RnicStats& after = pair.cluster.rnic(0).stats();
  const double n = double(total);
  const std::uint64_t doorbells = after.doorbells - before.doorbells;
  const std::uint64_t wrs = after.wrs_posted - before.wrs_posted;
  const std::uint64_t inl = after.inline_wrs - before.inline_wrs;
  s.doorbell_ns = doorbells * double(ncfg.doorbell_overhead) / n;
  s.wqe_ns = wrs * double(ncfg.wqe_fetch_overhead) / n;
  s.dma_ns = (wrs - inl) * double(ncfg.dma_latency) / n;
}

// (a) ---------------------------------------------------------------------

FloodSample measure_flood(bool batching, std::uint32_t msg_bytes, int total) {
  testbed::Pair pair(batch_cfg(batching));
  FloodSample s;
  if (!pair.establish(7000, millis(30))) return s;
  std::uint64_t delivered = 0;
  pair.server_ch->set_on_msg(
      [&](core::Channel&, core::Msg&&) { ++delivered; });

  const rnic::RnicStats before = pair.cluster.rnic(0).stats();
  const Nanos t0 = pair.cluster.engine().now();
  for (int i = 0; i < total; ++i) {
    pair.client_ch->send_msg(Buffer::synthetic(msg_bytes));
  }
  pair.run_until(
      [&] { return delivered == static_cast<std::uint64_t>(total); },
      seconds(5), micros(50));

  const Nanos elapsed = pair.cluster.engine().now() - t0;
  s.delivered = delivered;
  if (elapsed > 0) s.msgs_per_sec = delivered * 1e9 / double(elapsed);
  fill_from_stats(s, pair, before, total);
  return s;
}

// (b) ---------------------------------------------------------------------

FloodSample measure_bursts(bool batching, int burst, int rounds) {
  testbed::Pair pair(batch_cfg(batching));
  FloodSample s;
  if (!pair.establish(7000, millis(30))) return s;
  std::uint64_t delivered = 0;
  pair.server_ch->set_on_msg(
      [&](core::Channel&, core::Msg&&) { ++delivered; });

  const int total = burst * rounds;
  const rnic::RnicStats before = pair.cluster.rnic(0).stats();
  const Nanos t0 = pair.cluster.engine().now();
  for (int r = 0; r < rounds; ++r) {
    // The app hands over a whole batch of replies in one iteration; the
    // 10 us gap is its per-iteration request processing.
    for (int i = 0; i < burst; ++i) {
      pair.client_ch->send_msg(Buffer::synthetic(128));
    }
    pair.run(micros(10));
  }
  pair.run_until(
      [&] { return delivered == static_cast<std::uint64_t>(total); },
      seconds(2), micros(50));

  const Nanos elapsed = pair.cluster.engine().now() - t0;
  s.delivered = delivered;
  if (elapsed > 0) s.msgs_per_sec = delivered * 1e9 / double(elapsed);
  fill_from_stats(s, pair, before, total);
  return s;
}

void print_pair(const std::string& label, const FloodSample& off,
                const FloodSample& on) {
  print_row({label + " off", fmt("%.0f", off.msgs_per_sec / 1e3),
             fmt("%.2f", off.wrs_per_doorbell),
             fmt("%.0f", double(off.inline_sends)),
             fmt("%.0f", double(off.copies_avoided)),
             fmt("%.0f", off.doorbell_ns), fmt("%.0f", off.wqe_ns),
             fmt("%.0f", off.dma_ns)},
            11);
  print_row({label + " on", fmt("%.0f", on.msgs_per_sec / 1e3),
             fmt("%.2f", on.wrs_per_doorbell),
             fmt("%.0f", double(on.inline_sends)),
             fmt("%.0f", double(on.copies_avoided)),
             fmt("%.0f", on.doorbell_ns), fmt("%.0f", on.wqe_ns),
             fmt("%.0f", on.dma_ns)},
            11);
  print_row({"  speedup",
             fmt("%.2fx", off.msgs_per_sec > 0
                              ? on.msgs_per_sec / off.msgs_per_sec
                              : 0)},
            11);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int total = smoke ? 4000 : 20000;
  const int rounds = smoke ? 200 : 1000;
  const int burst = 8;

  const FloodSample off64 = measure_flood(false, 64, total);
  const FloodSample on64 = measure_flood(true, 64, total);
  const FloodSample off256 = measure_flood(false, 256, total);
  const FloodSample on256 = measure_flood(true, 256, total);

  print_header("Small-eager flood: per-core msgs/s, batching+inline on vs "
               "off (Table III shape)");
  print_row({"config", "kmsgs/s", "wrs/dbell", "inline", "copies-",
             "dbell ns", "wqe ns", "dma ns"},
            11);
  print_pair("64 B", off64, on64);
  print_pair("256 B", off256, on256);

  const FloodSample boff = measure_bursts(false, burst, rounds);
  const FloodSample bon = measure_bursts(true, burst, rounds);
  print_header("Paced 8-message bursts (RPC-server arrival pattern): "
               "doorbell coalescing shape");
  print_row({"config", "kmsgs/s", "wrs/dbell", "inline", "copies-",
             "dbell ns", "wqe ns", "dma ns"},
            11);
  print_pair("burst", boff, bon);
  print_row({"  doorbells", fmt("%.0f", double(boff.doorbells)) + " off",
             fmt("%.0f", double(bon.doorbells)) + " on"},
            11);

  std::printf("\none doorbell now covers a chain of WQEs and small payloads "
              "ride inside the WQE,\nso the per-message NIC budget drops from "
              "doorbell+fetch+DMA (~900 ns) toward the\namortized fetch cost "
              "alone; the decomposition columns show which stage paid.\n");

  if (smoke) {
    // CI gates, straight from the acceptance criteria: >= 20% per-core
    // msgs/s improvement for <= 256 B eager traffic, every message lands,
    // inline engages only when enabled, and under burst arrivals the
    // coalescer actually chains (>= half the burst per doorbell vs
    // exactly one WR per doorbell with batching off).
    const auto gate = [](const FloodSample& on, const FloodSample& off,
                         std::uint64_t n) {
      return on.delivered == n && off.delivered == n &&
             on.msgs_per_sec >= 1.2 * off.msgs_per_sec &&
             on.inline_sends > 0 && on.copies_avoided > 0 &&
             off.inline_sends == 0 && off.copies_avoided == 0;
    };
    const bool ok64 = gate(on64, off64, total);
    const bool ok256 = gate(on256, off256, total);
    // Burst arrivals are app-paced (throughput is pinned by the 10 us
    // iteration gap), so the gate here is the coalescing shape: >= half
    // the burst per doorbell, exactly one WR per doorbell with batching
    // off, and at least 4x fewer doorbell rings overall.
    const std::uint64_t btotal = std::uint64_t(burst) * rounds;
    const bool okburst =
        bon.delivered == btotal && boff.delivered == btotal &&
        bon.wrs_per_doorbell >= burst / 2.0 &&
        boff.wrs_per_doorbell == 1.0 &&
        bon.doorbells * 4 <= boff.doorbells;
    std::printf("\nsmoke: 64B %s (%.2fx), 256B %s (%.2fx), burst %s "
                "(%.2f wrs/doorbell) => %s\n",
                ok64 ? "PASS" : "FAIL",
                off64.msgs_per_sec > 0 ? on64.msgs_per_sec / off64.msgs_per_sec
                                       : 0,
                ok256 ? "PASS" : "FAIL",
                off256.msgs_per_sec > 0
                    ? on256.msgs_per_sec / off256.msgs_per_sec
                    : 0,
                okburst ? "PASS" : "FAIL", bon.wrs_per_doorbell,
                (ok64 && ok256 && okburst) ? "PASS" : "FAIL");
    return (ok64 && ok256 && okburst) ? 0 : 1;
  }
  return 0;
}

// End-to-end integrity plane (kFeatE2eCrc): what does CRC32C cost, and
// what does it buy?
//
// Three seeded deterministic experiments:
//
//  (a) CRC tax: per-core msgs/s with the integrity plane on vs off across
//      the three send paths — 64 B / 256 B inline WQE, 2 KB staged eager,
//      and 64 KB rendezvous (descriptor CRC + whole-message payload CRC
//      verified after the pull). The modeled checksum pass charges
//      (header + covered payload bytes)/16 ns on the serialized send path,
//      so the tax concentrates where the paper says it does: large
//      payloads, not the small-message hot path.
//  (b) corrupted eager recovery: one in-flight frame has a byte flipped;
//      the receiver's CRC check drops it and a windowless integrity NAK
//      replays it from the send window. The gate demands the flood
//      completes with zero recovery cycles — corruption heals on the data
//      path, not via channel teardown.
//  (c) corruption storm: a lossy patch corrupts ~1/3 of frames for a
//      while; the health plane's scan counter grades the peer and the
//      NAK/go-back-N machinery keeps replaying until the storm passes.
//      Reported: failures caught, NAKs, retransmits, storms graded, and
//      that every message still landed exactly once.
//
// Next to the sim-clock tax, the bench times crc32c() itself on the host
// clock (ns per KiB over a 64 KiB buffer), against the 16 B/ns the model
// charges.
//
// Run with --smoke for the CI-sized variant with pass/fail gates
// (acceptance: CRC tax <= 5% msgs/s on the 64 B inline flood; the
// corrupted eager message recovers through the integrity NAK without a
// recovery cycle; the host CRC costs <= 512 ns/KiB).
#include <algorithm>
#include <chrono>
#include <cstring>

#include "analysis/filter.hpp"
#include "bench/bench_util.hpp"
#include "common/crc32c.hpp"

using namespace xrdma;
using namespace xrdma::bench;

namespace {

core::Config crc_cfg(bool on) {
  core::Config cfg;
  cfg.e2e_crc = on;
  return cfg;
}

struct FloodSample {
  double msgs_per_sec = 0;  // simulated; one sender core busy-polling
  std::uint64_t delivered = 0;
  std::uint64_t stamped = 0;
  std::uint64_t crc_failures = 0;
  std::uint64_t naks = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t storms = 0;
};

void fill_from_stats(FloodSample& s, testbed::Pair& pair) {
  s.stamped = pair.client_ch->stats().crc_stamped_tx;
  s.crc_failures = pair.server_ch->stats().crc_failures_rx;
  s.naks = pair.server_ch->stats().integrity_naks_tx;
  s.retransmits = pair.client_ch->stats().integrity_retransmits;
  s.recoveries = pair.client_ch->stats().recoveries_started +
                 pair.server_ch->stats().recoveries_started;
  s.storms = pair.server.health().stats().crc_storms +
             pair.client.health().stats().crc_storms;
}

// (a) ---------------------------------------------------------------------

FloodSample measure_flood(bool crc, std::uint32_t msg_bytes, int total) {
  testbed::Pair pair(crc_cfg(crc));
  FloodSample s;
  if (!pair.establish(7000, millis(30))) return s;
  std::uint64_t delivered = 0;
  pair.server_ch->set_on_msg(
      [&](core::Channel&, core::Msg&&) { ++delivered; });

  // Real bytes, not Buffer::synthetic: the payload CRC is computed over
  // (and its cost charged for) actual data; a synthetic payload would
  // stamp the "not covered" sentinel and understate both tax and coverage.
  Buffer proto = Buffer::make(msg_bytes);
  fill_pattern(proto, msg_bytes);
  const Nanos t0 = pair.cluster.engine().now();
  for (int i = 0; i < total; ++i) {
    pair.client_ch->send_msg(proto.clone());
  }
  pair.run_until(
      [&] { return delivered == static_cast<std::uint64_t>(total); },
      seconds(10), micros(50));

  const Nanos elapsed = pair.cluster.engine().now() - t0;
  s.delivered = delivered;
  if (elapsed > 0) s.msgs_per_sec = delivered * 1e9 / double(elapsed);
  fill_from_stats(s, pair);
  return s;
}

// (b) ---------------------------------------------------------------------

FloodSample measure_corrupt_recovery(int total) {
  testbed::Pair pair(crc_cfg(true));
  FloodSample s;
  if (!pair.establish(7000, millis(30))) return s;
  analysis::Filter rx(pair.server, /*seed=*/0x1e57);
  rx.add_rule(
      {analysis::FaultKind::ingress_corrupt, 1.0, 0, /*budget=*/1, 0});

  std::uint64_t delivered = 0;
  pair.server_ch->set_on_msg(
      [&](core::Channel&, core::Msg&&) { ++delivered; });
  Buffer proto = Buffer::make(512);
  fill_pattern(proto, 512);
  const Nanos t0 = pair.cluster.engine().now();
  for (int i = 0; i < total; ++i) {
    pair.client_ch->send_msg(proto.clone());
  }
  pair.run_until(
      [&] { return delivered == static_cast<std::uint64_t>(total); },
      seconds(10), micros(50));
  const Nanos elapsed = pair.cluster.engine().now() - t0;
  s.delivered = delivered;
  if (elapsed > 0) s.msgs_per_sec = delivered * 1e9 / double(elapsed);
  fill_from_stats(s, pair);
  return s;
}

// (c) ---------------------------------------------------------------------

FloodSample measure_storm(int total) {
  testbed::Pair pair(crc_cfg(true));
  FloodSample s;
  if (!pair.establish(7000, millis(30))) return s;
  // A lossy patch: roughly every third frame is damaged until the budget
  // runs dry, then the path is clean again. Go-back-N keeps replaying;
  // the health scan grades the peer while the storm lasts.
  analysis::Filter rx(pair.server, /*seed=*/0x570a);
  rx.add_rule(
      {analysis::FaultKind::ingress_corrupt, 0.35, 0, /*budget=*/24, 0});

  std::uint64_t delivered = 0;
  pair.server_ch->set_on_msg(
      [&](core::Channel&, core::Msg&&) { ++delivered; });
  Buffer proto = Buffer::make(512);
  fill_pattern(proto, 512);
  const Nanos t0 = pair.cluster.engine().now();
  for (int i = 0; i < total; ++i) {
    pair.client_ch->send_msg(proto.clone());
  }
  pair.run_until(
      [&] { return delivered == static_cast<std::uint64_t>(total); },
      seconds(10), micros(50));
  const Nanos elapsed = pair.cluster.engine().now() - t0;
  s.delivered = delivered;
  if (elapsed > 0) s.msgs_per_sec = delivered * 1e9 / double(elapsed);
  fill_from_stats(s, pair);
  return s;
}

double tax_pct(const FloodSample& off, const FloodSample& on) {
  if (off.msgs_per_sec <= 0) return 0;
  return (off.msgs_per_sec - on.msgs_per_sec) * 100.0 / off.msgs_per_sec;
}

void print_tax(const std::string& label, const FloodSample& off,
               const FloodSample& on) {
  print_row({label, fmt("%.0f", off.msgs_per_sec / 1e3),
             fmt("%.0f", on.msgs_per_sec / 1e3), fmt("%.2f%%", tax_pct(off, on)),
             fmt("%.0f", double(on.stamped))},
            12);
}

// Host clock -----------------------------------------------------------

// The send path charges the CRC pass at 16 B/ns (Channel::post_wire).
constexpr double kModelNsPerKib = 1024.0 / 16.0;

/// Host-clock crc32c() cost over a 64 KiB buffer, ns per KiB: the median
/// of 9 timed rounds of 16 checksums each.
double host_crc_ns_per_kib() {
  std::vector<std::uint8_t> buf(64 * 1024);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 131 + (i >> 9));
  }
  constexpr int kPerRound = 16;
  std::vector<double> rounds;
  volatile std::uint32_t sink = 0;
  for (int r = 0; r < 9; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint32_t acc = 0;
    for (int i = 0; i < kPerRound; ++i) acc ^= crc32c(buf.data(), buf.size());
    const auto ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    sink = sink ^ acc;
    rounds.push_back(ns / (kPerRound * 64.0));
  }
  std::nth_element(rounds.begin(), rounds.begin() + 4, rounds.end());
  return rounds[4];
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int total = smoke ? 4000 : 20000;
  const int big_total = smoke ? 300 : 1500;

  const FloodSample off64 = measure_flood(false, 64, total);
  const FloodSample on64 = measure_flood(true, 64, total);
  const FloodSample off2k = measure_flood(false, 2048, total);
  const FloodSample on2k = measure_flood(true, 2048, total);
  const FloodSample off64k = measure_flood(false, 64 * 1024, big_total);
  const FloodSample on64k = measure_flood(true, 64 * 1024, big_total);

  print_header("CRC tax: per-core msgs/s, integrity plane on vs off "
               "(Table III shape)");
  print_row({"size", "off kmsg/s", "on kmsg/s", "tax", "stamped"}, 12);
  print_tax("64 B inline", off64, on64);
  print_tax("2 KB eager", off2k, on2k);
  print_tax("64 KB rdv", off64k, on64k);

  const double host_ns_per_kib = host_crc_ns_per_kib();
  print_header("CRC32C cost per KiB over 64 KiB: sim model vs host kernel");
  print_row({"clock", "kernel", "ns/KiB", "B/ns"}, 12);
  print_row({"sim", "model", fmt("%.1f", kModelNsPerKib),
             fmt("%.2f", 1024.0 / kModelNsPerKib)},
            12);
  std::printf("[host clock] ");
  print_row({"host", crc32c_hardware() ? "sse4.2" : "portable",
             fmt("%.1f", host_ns_per_kib), fmt("%.2f", 1024.0 / host_ns_per_kib)},
            12);

  const FloodSample rec = measure_corrupt_recovery(smoke ? 2000 : 10000);
  print_header("Corrupted eager frame: integrity-NAK recovery, no teardown");
  print_row({"delivered", "crc fails", "naks", "retx", "recoveries"}, 12);
  print_row({fmt("%.0f", double(rec.delivered)),
             fmt("%.0f", double(rec.crc_failures)),
             fmt("%.0f", double(rec.naks)), fmt("%.0f", double(rec.retransmits)),
             fmt("%.0f", double(rec.recoveries))},
            12);

  const FloodSample storm = measure_storm(smoke ? 2000 : 10000);
  print_header("Corruption storm: ~1/3 of frames damaged until the patch "
               "clears");
  print_row({"delivered", "crc fails", "naks", "retx", "storms", "kmsg/s"},
            12);
  print_row({fmt("%.0f", double(storm.delivered)),
             fmt("%.0f", double(storm.crc_failures)),
             fmt("%.0f", double(storm.naks)),
             fmt("%.0f", double(storm.retransmits)),
             fmt("%.0f", double(storm.storms)),
             fmt("%.0f", storm.msgs_per_sec / 1e3)},
            12);

  std::printf("\nthe checksum pass rides the serialized send path at "
              "16 B/ns, so the tax is\nnoise for inline traffic and grows "
              "with covered payload; a damaged frame costs\none NAK'd "
              "round-trip from the send window instead of a QP-level "
              "recovery.\n");

  if (smoke) {
    // CI gates, straight from the acceptance criteria: the integrity
    // plane's tax on the 64 B inline flood stays within 5% msgs/s, every
    // frame is stamped when (and only when) the feature is on, and the
    // corrupted eager message recovers through the integrity NAK without
    // a single recovery cycle.
    const bool ok_tax = on64.delivered == std::uint64_t(total) &&
                        off64.delivered == std::uint64_t(total) &&
                        tax_pct(off64, on64) <= 5.0 && on64.stamped > 0 &&
                        off64.stamped == 0;
    const bool ok_rec = rec.delivered > 0 && rec.crc_failures == 1 &&
                        rec.naks == 1 && rec.retransmits >= 1 &&
                        rec.recoveries == 0;
    // Under a hard storm the retry budget MAY exhaust and escalate to a
    // recovery cycle — that is the designed backstop, so recoveries are
    // reported but not gated. What must hold: the storm was detected and
    // graded, and every message still landed exactly once.
    const bool ok_storm = storm.delivered == std::uint64_t(smoke ? 2000 : 10000) &&
                          storm.crc_failures >= 8 && storm.storms >= 1 &&
                          storm.retransmits >= 8;
    // A coarse host-clock gate: the portable kernel runs ~2800 ns/KiB and
    // the 3-lane SSE4.2 kernel ~60, and both give bit-identical checksums,
    // so a broken cpuid dispatch shows only here.
    const bool ok_host = host_ns_per_kib <= 512.0;
    const bool ok = ok_tax && ok_rec && ok_storm && ok_host;
    std::printf("\nsmoke: tax %s (%.2f%%), recovery %s (%llu naks), storm "
                "%s (%llu fails healed), host crc %s (%.0f ns/KiB) => %s\n",
                ok_tax ? "PASS" : "FAIL", tax_pct(off64, on64),
                ok_rec ? "PASS" : "FAIL",
                static_cast<unsigned long long>(rec.naks),
                ok_storm ? "PASS" : "FAIL",
                static_cast<unsigned long long>(storm.crc_failures),
                ok_host ? "PASS" : "FAIL", host_ns_per_kib,
                ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  }
  return 0;
}

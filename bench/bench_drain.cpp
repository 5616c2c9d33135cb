// Lifecycle plane: graceful drain (§VI-D `xr_adm drain`).
//
// Two seeded deterministic experiments:
//
//  (a) drain latency and loss: a node with in-flight eager + rendezvous
//      traffic drains mid-burst. Measures active -> drained latency and
//      asserts every message accepted before the drain still lands —
//      the zero-loss restart contract.
//  (b) reconnect-storm suppression: a 16-channel peer goes away. When it
//      leaves silently, every channel burns its (halved) recovery ladder
//      dialing a machine that is gone — 32 wasted CM attempts. When it
//      announces the drain first, peers park recovery for the announced
//      window instead: zero attempts.
//
// Run with --smoke for the CI-sized variant with pass/fail gates.
#include <cstring>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/histogram.hpp"
#include "core/health.hpp"
#include "sim/timer.hpp"

using namespace xrdma;
using namespace xrdma::bench;

namespace {

core::Config drain_cfg() {
  core::Config cfg;
  cfg.keepalive_intv = millis(2);
  cfg.keepalive_timeout = millis(10);
  cfg.recovery_max_attempts = 4;
  cfg.recovery_backoff = micros(200);
  cfg.deadlock_scan_period = micros(500);
  cfg.lifecycle_drain_timeout = millis(200);
  // Announce a retry-after that covers the whole restart below, so peers
  // hold their reconnects until the node is actually back.
  cfg.lifecycle_retry_after = millis(100);
  cfg.fallback_auto = false;
  return cfg;
}

// (a) ---------------------------------------------------------------------

struct DrainSample {
  Nanos latency = -1;          // begin_drain -> drained
  std::uint64_t accepted = 0;  // sends the channel admitted pre-drain
  std::uint64_t delivered = 0; // of those, landed at the peer
  std::uint64_t blocked = 0;   // sends refused once draining
};

DrainSample measure_drain(int burst, std::uint32_t msg_bytes,
                          std::uint64_t seed) {
  testbed::Pair pair(drain_cfg());
  pair.start_polling();
  DrainSample s;
  if (!pair.establish()) return s;
  pair.server_ch->set_on_msg(
      [&](core::Channel&, core::Msg&&) { ++s.delivered; });

  // Burst of mixed eager / rendezvous traffic, then drain with the window
  // still full. Sizes straddle the 4 KB rendezvous cutoff.
  for (int i = 0; i < burst; ++i) {
    const std::uint32_t size = (i % 3 == 2) ? msg_bytes * 16 : msg_bytes;
    if (pair.client_ch->send_msg(Buffer::make(size ^ (seed & 1))) ==
        Errc::ok) {
      ++s.accepted;
    }
  }
  const Nanos at = pair.cluster.engine().now();
  pair.client.begin_drain();
  // Anything after the drain must bounce with the retry-after hint.
  for (int i = 0; i < 4; ++i) {
    if (pair.client_ch->send_msg(Buffer::make(64)) == Errc::would_block) {
      ++s.blocked;
    }
  }
  pair.run(millis(150));
  if (pair.client.lifecycle() == core::Lifecycle::drained) {
    s.latency = pair.client.stats().drain_latency.max();
    (void)at;
  }
  return s;
}

// (b) ---------------------------------------------------------------------

struct LeaveSample {
  std::uint64_t cm_attempts = 0;  // resume attempts that reached the CM
  std::uint64_t parks = 0;        // recovery timers parked by the drain
  std::uint64_t dead = 0;         // dead declarations at the survivor
};

LeaveSample measure_leave(bool announced, int channels) {
  core::Config cfg = drain_cfg();
  // Breaker off isolates the drain effect: without an announcement every
  // channel runs its own (halved) ladder against the vanished peer.
  cfg.health_breaker = false;
  testbed::Pair pair(cfg);
  pair.start_polling();
  LeaveSample s;
  if (!pair.establish()) return s;

  std::vector<core::Channel*> chs = {pair.client_ch};
  for (int i = 1; i < channels; ++i) {
    pair.client.connect(1, 7000, [&](Result<core::Channel*> r) {
      if (r.ok()) chs.push_back(r.value());
    });
  }
  pair.run(millis(20));

  if (announced) {
    // Graceful leave: every channel has a rendezvous pull mid-assembly, so
    // the DRAIN announcement lands but the flush is still running when the
    // process goes away (restart) — the worst case for reconnect storms.
    for (core::Channel* ch : chs) ch->send_msg(Buffer::make(256 * 1024));
    pair.run(micros(100));
    pair.server.begin_drain();
    pair.run(micros(100));
  }
  pair.cluster.host(1).set_alive(false);
  pair.run(millis(150));

  for (core::Channel* ch : chs) {
    s.cm_attempts += ch->stats().recovery_attempts;
    s.parks += ch->stats().drain_recovery_parks;
  }
  s.dead = pair.client.health().stats().dead_declarations;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int trials = smoke ? 3 : 10;

  // (a) drain latency + zero loss across in-flight depths.
  Histogram lat;
  std::uint64_t accepted = 0, delivered = 0, blocked = 0, incomplete = 0;
  for (int i = 0; i < trials; ++i) {
    const DrainSample s =
        measure_drain(/*burst=*/8 + 4 * i, /*msg_bytes=*/2048,
                      static_cast<std::uint64_t>(i));
    if (s.latency >= 0) lat.record(s.latency); else ++incomplete;
    accepted += s.accepted;
    delivered += s.delivered;
    blocked += s.blocked;
  }
  print_header("Graceful drain mid-burst: latency to drained, loss, "
               "backpressure");
  print_row({"metric", "value"});
  print_row({"drain latency min ms", fmt("%.2f", to_micros(lat.min()) / 1000)});
  print_row({"drain latency mean ms", fmt("%.2f", lat.mean() / 1e6)});
  print_row({"drain latency max ms", fmt("%.2f", to_micros(lat.max()) / 1000)});
  print_row({"msgs accepted pre-drain", fmt("%.0f", double(accepted))});
  print_row({"msgs delivered", fmt("%.0f", double(delivered))});
  print_row({"msgs lost", fmt("%.0f", double(accepted - delivered))});
  print_row({"post-drain sends bounced", fmt("%.0f", double(blocked))});

  // (b) announced vs silent leave, 16 channels.
  const LeaveSample silent = measure_leave(/*announced=*/false, 16);
  const LeaveSample graceful = measure_leave(/*announced=*/true, 16);
  print_header("16-channel peer leaves: CM reconnect attempts, silent vs "
               "announced drain");
  print_row({"leave", "cm attempts", "parked", "dead declarations"});
  print_row({"silent", fmt("%.0f", double(silent.cm_attempts)),
             fmt("%.0f", double(silent.parks)),
             fmt("%.0f", double(silent.dead))});
  print_row({"announced", fmt("%.0f", double(graceful.cm_attempts)),
             fmt("%.0f", double(graceful.parks)),
             fmt("%.0f", double(graceful.dead))});

  std::printf("\na draining node flushes its windows before closing, so "
              "restarts lose nothing;\nthe DRAIN announcement parks peer "
              "recovery for the advertised window instead\nof burning CM "
              "attempts against a machine that said it was leaving.\n");

  if (smoke) {
    // CI gates, straight from the acceptance criteria: every trial reaches
    // `drained` with zero lost messages and post-drain sends refused; the
    // announced leave cuts the 16-channel reconnect storm to zero CM
    // attempts (silent: 16 channels x halved 4-attempt ladder = 32) and
    // zero dead declarations.
    const bool a_ok = incomplete == 0 && lat.count() ==
                          static_cast<std::uint64_t>(trials) &&
                      accepted > 0 && delivered == accepted && blocked > 0;
    const bool b_ok = silent.cm_attempts >= 32 && graceful.cm_attempts == 0 &&
                      graceful.parks >= 16 && graceful.dead == 0;
    std::printf("\nsmoke: drain %s, leave %s => %s\n", a_ok ? "PASS" : "FAIL",
                b_ok ? "PASS" : "FAIL", (a_ok && b_ok) ? "PASS" : "FAIL");
    return (a_ok && b_ok) ? 0 : 1;
  }
  return 0;
}

// Peer health plane: φ-accrual failure detection, the adaptive silence
// bound, circuit-breaker half-open probing, flap hold-down escalation, and
// the keepalive-over-fallback liveness contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/filter.hpp"
#include "analysis/mock.hpp"
#include "core/context.hpp"
#include "core/health.hpp"
#include "sim/engine.hpp"
#include "sim/timer.hpp"
#include "testbed/cluster.hpp"

namespace xrdma::core {
namespace {

using analysis::FaultKind;
using analysis::FaultRule;
using analysis::Filter;
using analysis::MockFallback;

Config health_cfg() {
  Config cfg;
  cfg.keepalive_intv = millis(2);
  cfg.keepalive_timeout = millis(10);
  cfg.recovery_max_attempts = 4;
  cfg.recovery_backoff = micros(200);
  return cfg;
}

// ---------------------------------------------------------------------------
// HealthMonitor in isolation (no cluster).

TEST(Health, PhiRampsWithSilenceAndAdaptiveBoundLearnsCadence) {
  sim::Engine eng;
  Config cfg = health_cfg();
  cfg.health_adaptive = true;
  HealthMonitor hm(eng, cfg);
  hm.register_channel(1);

  // Before enough intervals are banked, the bound is the fixed cliff.
  EXPECT_EQ(hm.silence_bound(1), cfg.keepalive_timeout);

  for (int i = 0; i < 32; ++i) {
    eng.run_for(millis(1));
    hm.note_proof_of_life(1);
  }
  // Learned bound: mean (~1 ms) + one-interval grace + z_dead * sigma —
  // well above the observed cadence, well below the clamp.
  const Nanos bound = hm.silence_bound(1);
  EXPECT_GT(bound, millis(3));
  EXPECT_LE(bound, 3 * cfg.keepalive_timeout / 2);

  // Phi is ~0 right after a proof and monotone in silence. With the 1 ms
  // cadence the effective mean is ~3 ms (one-interval grace) and sigma is
  // floored at mean/8, so suspicion ramps steeply just past the grace.
  const double phi_fresh = hm.phi(1, eng.now());
  const double phi_mid = hm.phi(1, eng.now() + millis(3) + micros(500));
  const double phi_late = hm.phi(1, eng.now() + millis(4) + micros(250));
  EXPECT_LT(phi_fresh, 0.5);
  EXPECT_LT(phi_fresh, phi_mid);
  EXPECT_LT(phi_mid, phi_late);
  EXPECT_GE(phi_late, HealthMonitor::kPhiDead);

  // evaluate() grades the silence: suspect once phi crosses the knee.
  eng.run_for(millis(40));
  hm.evaluate(eng.now());
  EXPECT_EQ(hm.state(1), PeerState::suspect);
  EXPECT_GE(hm.stats().suspect_transitions, 1u);
}

TEST(Health, RecoveryBudgetHalvesOnceDistrusted) {
  sim::Engine eng;
  Config cfg = health_cfg();
  HealthMonitor hm(eng, cfg);
  hm.register_channel(1);
  eng.run_for(millis(1));

  // Healthy peer, first strike: full ladder.
  EXPECT_EQ(hm.recovery_budget(1, 4), 4u);
  // Declared dead: halved (reconnects to a dead machine each burn the full
  // CM timeout, so give up sooner).
  hm.note_peer_dead(1, 7);
  EXPECT_EQ(hm.state(1), PeerState::dead);
  EXPECT_EQ(hm.recovery_budget(1, 4), 2u);
  EXPECT_EQ(hm.recovery_budget(1, 1), 1u);  // never below one attempt
  // Restored: trusted again.
  hm.note_restored(1, /*from_fallback=*/false);
  EXPECT_EQ(hm.recovery_budget(1, 4), 4u);
}

TEST(Health, DegradedOnProbeRttInflation) {
  sim::Engine eng;
  Config cfg = health_cfg();
  HealthMonitor hm(eng, cfg);
  hm.register_channel(2);

  // Settled baseline: 10 us probe RTTs.
  for (int i = 0; i < 40; ++i) {
    eng.run_for(millis(1));
    hm.note_proof_of_life(2);
    hm.note_probe_rtt(2, micros(10));
  }
  hm.evaluate(eng.now());
  EXPECT_EQ(hm.state(2), PeerState::healthy);

  // Sudden sustained inflation: the fast EWMA outruns the slow one.
  for (int i = 0; i < 10; ++i) {
    eng.run_for(millis(1));
    hm.note_proof_of_life(2);
    hm.note_probe_rtt(2, micros(400));
  }
  hm.evaluate(eng.now());
  EXPECT_EQ(hm.state(2), PeerState::degraded);
  EXPECT_GE(hm.stats().degraded_transitions, 1u);

  const auto v = hm.view(2);
  ASSERT_TRUE(v.has_value());
  EXPECT_GT(v->rtt_p99, v->rtt_p50);
  EXPECT_GE(v->probes, 50u);
}

TEST(Health, BreakerGateAdmitsOnlyDesignatedProbers) {
  sim::Engine eng;
  static_assert(HealthMonitor::kHalfOpenProbes == 1,
                "the gate below admits exactly one designated prober");
  Config cfg = health_cfg();
  HealthMonitor hm(eng, cfg);
  for (int i = 0; i < 4; ++i) hm.register_channel(1);
  eng.run_for(millis(1));

  hm.note_peer_dead(1, 10);
  // First comer becomes the designated prober; siblings are refused while
  // its attempt is in flight and stay refused once the prober is known.
  EXPECT_TRUE(hm.may_attempt(1, 10));
  hm.note_attempt(1, 10);
  EXPECT_FALSE(hm.may_attempt(1, 11));
  hm.note_attempt_done(1, 10);
  EXPECT_TRUE(hm.may_attempt(1, 10));   // the prober may retry
  EXPECT_FALSE(hm.may_attempt(1, 11));  // a sibling still may not
  EXPECT_EQ(hm.stats().breaker_violations, 0u);

  // A successful resume closes the breaker for everyone.
  EXPECT_TRUE(hm.note_restored(1, /*from_fallback=*/false));
  EXPECT_TRUE(hm.may_attempt(1, 11));
  EXPECT_EQ(hm.stats().breaker_opens, 1u);
  EXPECT_EQ(hm.stats().breaker_closes, 1u);
}

// ---------------------------------------------------------------------------
// End to end on the simulated testbed.

struct Pair {
  testbed::Cluster cluster;
  Context server;
  Context client;
  Channel* client_ch = nullptr;
  Channel* server_ch = nullptr;

  explicit Pair(Config cfg = {}, testbed::ClusterConfig ccfg = {})
      : cluster(ccfg),
        server(cluster.rnic(1), cluster.cm(), cfg),
        client(cluster.rnic(0), cluster.cm(), cfg) {}

  void establish(std::uint16_t port = 7000) {
    // Poll from t=0: with the fast keepalive configs these tests use, an
    // unpolled CQ would (correctly) read as peer silence.
    server.config().poll_mode = PollMode::busy;
    client.config().poll_mode = PollMode::busy;
    server.start_polling_loop();
    client.start_polling_loop();
    server.listen(port, [this](Channel& ch) { server_ch = &ch; });
    client.connect(1, port, [this](Result<Channel*> r) {
      ASSERT_TRUE(r.ok());
      client_ch = r.value();
    });
    cluster.engine().run_for(millis(20));
    ASSERT_NE(client_ch, nullptr);
    ASSERT_NE(server_ch, nullptr);
  }

  void run(Nanos d) { cluster.engine().run_for(d); }
};

TEST(Health, BreakerCapsResumeAttemptsAcrossPeerChannels) {
  // Satellite: N channels to one dead peer must not launch N retry ladders.
  // One designated half-open prober burns the (halved) budget; everyone
  // else fails fast through the breaker.
  Config cfg = health_cfg();
  cfg.fallback_auto = false;
  Pair t(cfg);
  t.establish();

  std::vector<Channel*> chs = {t.client_ch};
  for (int i = 0; i < 7; ++i) {
    t.client.connect(1, 7000, [&](Result<Channel*> r) {
      ASSERT_TRUE(r.ok());
      chs.push_back(r.value());
    });
  }
  t.run(millis(20));
  ASSERT_EQ(chs.size(), 8u);

  int errors = 0;
  for (Channel* ch : chs) {
    ch->set_on_error([&](Channel&, Errc e) {
      EXPECT_EQ(e, Errc::peer_dead);
      ++errors;
    });
  }

  t.cluster.host(1).set_alive(false);  // machine crash, no FIN
  t.run(millis(120));

  EXPECT_EQ(errors, 8);
  std::uint64_t total_attempts = 0, fastfails = 0;
  std::uint32_t channels_with_attempts = 0;
  for (Channel* ch : chs) {
    total_attempts += ch->stats().recovery_attempts;
    fastfails += ch->stats().breaker_fastfails;
    if (ch->stats().recovery_attempts > 0) ++channels_with_attempts;
  }
  // Only the designated prober(s) ever reached the CM.
  EXPECT_LE(channels_with_attempts, HealthMonitor::kHalfOpenProbes);
  EXPECT_LE(total_attempts,
            static_cast<std::uint64_t>(cfg.recovery_max_attempts));
  EXPECT_GE(fastfails, 1u);

  const auto& hs = t.client.health().stats();
  EXPECT_GE(hs.dead_declarations, 1u);
  EXPECT_EQ(hs.breaker_opens, 1u);
  EXPECT_GE(hs.connects_denied, 1u);
  EXPECT_EQ(hs.breaker_violations, 0u);
  const auto v = t.client.health().view(1);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->state, PeerState::dead);
  EXPECT_TRUE(v->breaker_open);
}

TEST(Health, FlapHolddownEscalatesMonotonically) {
  Config cfg = health_cfg();
  Pair t(cfg);
  t.establish();
  MockFallback server_mock(t.server, t.cluster.host(1).tcp(), 9500);
  MockFallback::enable_auto(t.client, t.cluster.host(0).tcp(), 9500);
  Filter filter(t.client, /*seed=*/31);

  bool app_saw_error = false;
  t.client_ch->set_on_error([&](Channel&, Errc) { app_saw_error = true; });

  std::vector<std::uint32_t> levels;
  // One cycle: RDMA dies with the CM unreachable -> escalate to the TCP
  // fallback; the CM heals -> the background probe restores RDMA.
  const auto cycle = [&] {
    const std::size_t rule =
        filter.add_rule({FaultKind::cm_timeout, 1.0, 0, -1, 0});
    filter.kill_qp(*t.client_ch);
    t.run(millis(60));
    ASSERT_TRUE(t.client_ch->mocked());
    const auto v = t.client.health().view(1);
    ASSERT_TRUE(v.has_value());
    levels.push_back(v->holddown_level);
    filter.remove_rule(rule);
    t.run(millis(400));  // hold-down delays the re-probe; wait it out
    ASSERT_FALSE(t.client_ch->mocked());
    ASSERT_EQ(t.client_ch->state(), Channel::State::established);
  };
  for (int i = 0; i < 3; ++i) cycle();

  // First fault is a first strike (no hold-down); each restore-then-fail
  // inside the flap window escalates by exactly one level.
  ASSERT_EQ(levels, (std::vector<std::uint32_t>{0, 1, 2}));
  const auto& hs = t.client.health().stats();
  EXPECT_EQ(hs.flaps, 2u);
  EXPECT_EQ(hs.holddown_escalations, 2u);
  EXPECT_FALSE(app_saw_error);
  EXPECT_EQ(t.client_ch->stats().fallback_restores, 3u);
}

TEST(Health, MockedKeepaliveWatchesTheStreamNotTheStaleQp) {
  // Satellite regression: a channel parked on the TCP fallback must not
  // declare peer_dead off the stale RDMA-side last_alive timestamp, and an
  // *idle* fallback channel must stay provably live through the NOP
  // exchange — even with bounded stream delay injected.
  Config cfg = health_cfg();
  Pair t(cfg);
  t.establish();
  MockFallback server_mock(t.server, t.cluster.host(1).tcp(), 9600);
  MockFallback::enable_auto(t.client, t.cluster.host(0).tcp(), 9600);
  Filter filter(t.client, /*seed=*/37);
  filter.add_rule({FaultKind::cm_timeout, 1.0, 0, -1, 0});  // CM never heals
  // Mild brownout on the stream: delays stay far under the silence bound.
  filter.add_rule({FaultKind::ingress_delay, 0.5, 0, -1, millis(3)});

  bool app_saw_error = false;
  t.client_ch->set_on_error([&](Channel&, Errc) { app_saw_error = true; });
  filter.kill_qp(*t.client_ch);
  t.run(millis(60));
  ASSERT_TRUE(t.client_ch->mocked());

  // Idle on the fallback for >> intv + 2*timeout: only the NOP exchange
  // keeps the proof fresh. Track the worst receive-side silence.
  Nanos worst_gap = 0;
  sim::PeriodicTimer gap_probe(t.cluster.engine(), micros(500), [&] {
    const Nanos last =
        std::max(t.client_ch->last_rx_time(), t.client_ch->last_alive_time());
    worst_gap = std::max(worst_gap, t.cluster.engine().now() - last);
  });
  gap_probe.start();
  t.run(millis(300));
  gap_probe.stop();

  EXPECT_TRUE(t.client_ch->mocked());
  EXPECT_EQ(t.client_ch->state(), Channel::State::established);
  EXPECT_FALSE(app_saw_error);
  EXPECT_LE(worst_gap, cfg.keepalive_intv + 2 * cfg.keepalive_timeout);
  EXPECT_EQ(t.client.health().stats().dead_declarations, 0u);

  // Now the peer's machine really dies: the stream goes silent and the
  // mocked keepalive must declare peer_dead promptly (it is the only
  // detector left — there is no QP).
  const Nanos down_at = t.cluster.engine().now();
  Nanos error_at = 0;
  t.client_ch->set_on_error([&](Channel&, Errc e) {
    EXPECT_EQ(e, Errc::peer_dead);
    if (error_at == 0) error_at = t.cluster.engine().now();
  });
  t.cluster.host(1).set_alive(false);
  t.run(millis(100));

  EXPECT_EQ(t.client_ch->state(), Channel::State::error);
  ASSERT_GT(error_at, 0);
  // Detection within the keepalive envelope plus the failed half-open
  // probe ladder (halved budget, each attempt burning one CM timeout).
  EXPECT_LE(error_at - down_at, millis(60));
  EXPECT_GE(t.client.health().stats().dead_declarations, 1u);
}

}  // namespace
}  // namespace xrdma::core

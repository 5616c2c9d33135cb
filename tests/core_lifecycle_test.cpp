// Lifecycle plane: rolling-upgrade protocol negotiation on the CM
// handshake (version ranges, feature bitmaps, wire-v1 fallback, disjoint
// refusal) and the graceful drain state machine (active -> draining ->
// drained, zero new admissions, window flush, DRAIN courtesy at peers,
// recovery parking instead of budget burn).
#include <gtest/gtest.h>

#include <vector>

#include "analysis/filter.hpp"
#include "core/context.hpp"
#include "core/health.hpp"
#include "core/msg.hpp"
#include "testbed/cluster.hpp"

namespace xrdma::core {
namespace {

Config fast_cfg() {
  Config cfg;
  cfg.keepalive_intv = millis(2);
  cfg.keepalive_timeout = millis(10);
  cfg.recovery_max_attempts = 4;
  cfg.recovery_backoff = micros(200);
  cfg.deadlock_scan_period = micros(500);
  cfg.lifecycle_drain_timeout = millis(50);
  cfg.lifecycle_retry_after = millis(5);
  return cfg;
}

/// Two contexts with independent configs — the mixed-version cluster in
/// miniature. `server` is node 1, `client` node 0.
struct VersionedPair {
  testbed::Cluster cluster;
  Context server;
  Context client;
  Channel* client_ch = nullptr;
  Channel* server_ch = nullptr;
  Errc connect_rc = Errc::ok;

  VersionedPair(Config server_cfg, Config client_cfg)
      : cluster(testbed::ClusterConfig{}),
        server(cluster.rnic(1), cluster.cm(), server_cfg),
        client(cluster.rnic(0), cluster.cm(), client_cfg) {}

  void establish(std::uint16_t port = 7000) {
    server.config().poll_mode = PollMode::busy;
    client.config().poll_mode = PollMode::busy;
    server.start_polling_loop();
    client.start_polling_loop();
    server.listen(port, [this](Channel& ch) { server_ch = &ch; });
    client.connect(1, port, [this](Result<Channel*> r) {
      connect_rc = r.ok() ? Errc::ok : r.error();
      if (r.ok()) client_ch = r.value();
    });
    cluster.engine().run_for(millis(20));
  }

  void run(Nanos d) { cluster.engine().run_for(d); }
};

// ---------------------------------------------------------------------------
// Handshake matrix.

TEST(ProtoNegotiation, NewToNewNegotiatesCurrentMaxWithAllFeatures) {
  VersionedPair t(fast_cfg(), fast_cfg());
  t.establish();
  ASSERT_NE(t.client_ch, nullptr);
  ASSERT_NE(t.server_ch, nullptr);
  EXPECT_EQ(t.client_ch->proto_version(), WireHeader::kVersionMax);
  EXPECT_EQ(t.server_ch->proto_version(), WireHeader::kVersionMax);
  EXPECT_EQ(t.client_ch->proto_features(),
            kFeatDrain | kFeatHdrTlv | kFeatE2eCrc);
  EXPECT_EQ(t.server_ch->proto_features(),
            kFeatDrain | kFeatHdrTlv | kFeatE2eCrc);
}

TEST(ProtoNegotiation, OldConnectorToNewAcceptorDowngradesToV1) {
  // The "old build" dials: its legacy 32-byte private data carries no
  // version block, so the upgraded acceptor must assume {1, 1, 0}.
  Config old_cfg = fast_cfg();
  old_cfg.proto_version_max = 1;
  old_cfg.proto_features = 0;
  VersionedPair t(fast_cfg(), old_cfg);
  t.establish();
  ASSERT_NE(t.client_ch, nullptr);
  ASSERT_NE(t.server_ch, nullptr);
  EXPECT_EQ(t.client_ch->proto_version(), 1);
  EXPECT_EQ(t.server_ch->proto_version(), 1);
  EXPECT_EQ(t.server_ch->proto_features(), 0u);
}

TEST(ProtoNegotiation, NewConnectorToOldAcceptorDowngradesToV1) {
  Config old_cfg = fast_cfg();
  old_cfg.proto_version_max = 1;
  old_cfg.proto_features = 0;
  VersionedPair t(old_cfg, fast_cfg());
  t.establish();
  ASSERT_NE(t.client_ch, nullptr);
  ASSERT_NE(t.server_ch, nullptr);
  EXPECT_EQ(t.client_ch->proto_version(), 1);
  EXPECT_EQ(t.client_ch->proto_features(), 0u);
  // Traffic still flows on the downgraded channel.
  int delivered = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++delivered; });
  EXPECT_EQ(t.client_ch->send_msg(Buffer::make(512)), Errc::ok);
  t.run(millis(5));
  EXPECT_EQ(delivered, 1);
}

TEST(ProtoNegotiation, FeatureBitmapIsIntersected) {
  // Acceptor understands DRAIN but not the header TLV area: the channel
  // must come up with exactly the AND of the two advertisements.
  Config partial = fast_cfg();
  partial.proto_features = kFeatDrain;
  VersionedPair t(partial, fast_cfg());
  t.establish();
  ASSERT_NE(t.client_ch, nullptr);
  EXPECT_EQ(t.client_ch->proto_features(), kFeatDrain);
  ASSERT_NE(t.server_ch, nullptr);
  EXPECT_EQ(t.server_ch->proto_features(), kFeatDrain);
}

TEST(ProtoNegotiation, DisjointRangesRefuseTheChannel) {
  // A future build that dropped v1/v2 support meets today's build: no
  // common version, so establishment must fail with connection_refused on
  // the connector — not a half-up channel speaking two dialects.
  Config future = fast_cfg();
  future.proto_version_min = 7;
  future.proto_version_max = 9;
  VersionedPair t(fast_cfg(), future);
  t.establish();
  EXPECT_EQ(t.client_ch, nullptr);
  EXPECT_EQ(t.connect_rc, Errc::connection_refused);
  EXPECT_EQ(t.server.num_channels(), 0u);
}

TEST(ProtoNegotiation, BadVersionOnTheWireCountsAndRecords) {
  // decode_ex rejects an out-of-range header version; the counter (not a
  // silent false) is what lets triage name a version-skew kill.
  WireHeader hdr;
  hdr.version = 9;
  std::uint8_t buf[WireHeader::kBareSize];
  hdr.encode(buf);
  const std::uint32_t len = WireHeader::kBareSize;
  WireHeader out;
  EXPECT_EQ(WireHeader::decode_ex(buf, len, out), HdrDecode::bad_version);
  buf[0] = 'Z';  // clobber magic
  EXPECT_EQ(WireHeader::decode_ex(buf, len, out), HdrDecode::bad_magic);
  EXPECT_EQ(WireHeader::decode_ex(buf, 4, out), HdrDecode::too_short);
}

TEST(ProtoNegotiation, V2HeaderTlvRoundTripsRetryAfterAndV1PeerSkips) {
  WireHeader hdr;
  hdr.version = 2;
  hdr.flags = kFlagDrain;
  hdr.retry_after_us = 1500;
  std::uint8_t buf[WireHeader::kBareSize];
  hdr.encode(buf);
  const std::uint32_t len = WireHeader::kBareSize;
  WireHeader out;
  ASSERT_EQ(WireHeader::decode_ex(buf, len, out), HdrDecode::ok);
  EXPECT_EQ(out.retry_after_us, 1500u);
  EXPECT_EQ(out.tlv_skipped, 0u);

  // Unknown TLV type: a v3 field today's build has never heard of must be
  // skipped and counted, never rejected.
  buf[WireHeader::kTlvOffset + 1] = 0x7e;
  ASSERT_EQ(WireHeader::decode_ex(buf, len, out), HdrDecode::ok);
  EXPECT_EQ(out.retry_after_us, 0u);
  EXPECT_EQ(out.tlv_skipped, 1u);
}

// ---------------------------------------------------------------------------
// Graceful drain.

TEST(Lifecycle, DrainFlushesInFlightThenClosesAndCompletes) {
  VersionedPair t(fast_cfg(), fast_cfg());
  t.establish();
  ASSERT_NE(t.client_ch, nullptr);

  int delivered = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++delivered; });
  for (int i = 0; i < 12; ++i) {
    ASSERT_EQ(t.client_ch->send_msg(Buffer::make(2048)), Errc::ok);
  }
  // Drain the *sender* with a full window outstanding: everything already
  // accepted must still land before the channel closes.
  t.client.begin_drain();
  EXPECT_EQ(t.client.lifecycle(), Lifecycle::draining);
  EXPECT_EQ(t.client_ch->send_msg(Buffer::make(64)), Errc::would_block);
  t.run(millis(40));
  EXPECT_EQ(delivered, 12);
  EXPECT_EQ(t.client.lifecycle(), Lifecycle::drained);
  EXPECT_EQ(t.client.stats().drains_completed, 1u);
  EXPECT_EQ(t.client_ch->state(), Channel::State::closed);
  EXPECT_EQ(t.client.stats().drain_latency.count(), 1u);
}

TEST(Lifecycle, DrainFlushesAccumulatedChainBeforeFin) {
  // A same-tick burst is still riding the batch accumulator when the drain
  // starts: the drain's flush-then-close must ring the chain's doorbell
  // before the FIN posts, or the peer drops the data as post-close.
  Config cfg = fast_cfg();
  cfg.tx_batch_max_wrs = 16;
  VersionedPair t(cfg, cfg);
  t.establish();
  ASSERT_NE(t.client_ch, nullptr);
  int delivered = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++delivered; });
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(t.client_ch->send_msg(Buffer::make(128)), Errc::ok);
  }
  t.client.begin_drain();
  t.run(millis(40));
  EXPECT_EQ(delivered, 8);  // the whole chain beat the FIN
  EXPECT_EQ(t.client.lifecycle(), Lifecycle::drained);
  EXPECT_EQ(t.client_ch->state(), Channel::State::closed);
  const ContextStats& ledger = t.client.stats();
  EXPECT_EQ(ledger.batch_accumulated,
            ledger.batch_posted + ledger.batch_deferred +
                ledger.batch_dropped + ledger.batch_pending);
  EXPECT_EQ(ledger.batch_pending, 0u);
  EXPECT_GT(t.client_ch->stats().doorbell_wrs,
            t.client_ch->stats().doorbells);
}

TEST(Lifecycle, DrainWithInFlightRendezvousPullCompletesZeroLoss) {
  // A 256 KB rendezvous message is mid-pull when the drain starts: the
  // draining sender must hold the channel open until the reader finishes.
  VersionedPair t(fast_cfg(), fast_cfg());
  t.establish();
  ASSERT_NE(t.client_ch, nullptr);
  std::size_t got = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&& m) { got = m.payload.size(); });
  ASSERT_EQ(t.client_ch->send_msg(Buffer::make(256 * 1024)), Errc::ok);
  t.cluster.engine().run_for(micros(20));  // rendezvous descriptor in flight
  t.client.begin_drain();
  t.run(millis(40));
  EXPECT_EQ(got, 256u * 1024u);
  EXPECT_EQ(t.client.lifecycle(), Lifecycle::drained);
  EXPECT_EQ(t.client_ch->state(), Channel::State::closed);
}

TEST(Lifecycle, PeerGradesDrainingNotDeadAndSendsBlock) {
  VersionedPair t(fast_cfg(), fast_cfg());
  t.establish();
  ASSERT_NE(t.client_ch, nullptr);
  t.server.begin_drain();
  t.run(millis(5));
  // The DRAIN announcement beat the FIN: the client graded the peer
  // draining (courtesy), not suspect/dead, and gates new work.
  EXPECT_GE(t.server_ch->stats().drains_tx, 1u);
  EXPECT_GE(t.client_ch->stats().drains_rx, 1u);
  EXPECT_GE(t.client.health().stats().draining_marks, 1u);
  EXPECT_GT(t.client.health().drain_remaining(1), 0);
  t.run(millis(60));
  EXPECT_EQ(t.client.health().stats().dead_declarations, 0u);
  EXPECT_EQ(t.client.health().stats().breaker_opens, 0u);
  EXPECT_EQ(t.client.health().stats().drain_violations, 0u);
}

TEST(Lifecycle, DeadVerdictInsideDrainWindowIsSuppressed) {
  VersionedPair t(fast_cfg(), fast_cfg());
  t.establish();
  ASSERT_NE(t.client_ch, nullptr);
  // The peer announces a 15 ms restart, then goes silent mid-restart (the
  // FIN never arrived): the keepalive verdict lands inside the 2x
  // forgiveness window and is suppressed — counted, not graded dead.
  t.client.health().note_peer_draining(1, millis(15));
  t.cluster.host(1).set_alive(false);
  t.run(millis(20));
  EXPECT_GE(t.client.health().stats().drain_suppressions, 1u);
  EXPECT_EQ(t.client.health().stats().dead_declarations, 0u);
  EXPECT_EQ(t.client.health().stats().breaker_opens, 0u);
  EXPECT_EQ(t.client.health().stats().drain_violations, 0u);
  // Overstaying the announced window expires the forgiveness: the peer is
  // no longer graded draining — a drain is a courtesy, not immortality.
  t.run(millis(60));
  EXPECT_FALSE(t.client.health().peer_draining(1));
  EXPECT_EQ(t.client.health().drain_remaining(1), 0);
}

TEST(Lifecycle, DrainingContextRefusesNewChannelsWithWouldBlock) {
  VersionedPair t(fast_cfg(), fast_cfg());
  t.establish();
  t.client.begin_drain();
  Errc rc = Errc::ok;
  t.client.connect(1, 7000, [&](Result<Channel*> r) {
    rc = r.ok() ? Errc::ok : r.error();
  });
  t.run(millis(5));
  EXPECT_EQ(rc, Errc::would_block);
  EXPECT_GE(t.client.stats().lifecycle_rejects, 1u);
}

TEST(Lifecycle, ClearingTheFlagRestartsTheNodeAndPeersReconnect) {
  VersionedPair t(fast_cfg(), fast_cfg());
  t.establish();
  ASSERT_NE(t.client_ch, nullptr);
  t.server.begin_drain();
  t.run(millis(60));
  EXPECT_EQ(t.server.lifecycle(), Lifecycle::drained);
  // "Restart": the upgraded process comes back with the flag cleared.
  ASSERT_EQ(t.server.set_flag("lifecycle_drain", 0), Errc::ok);
  t.run(millis(5));
  EXPECT_EQ(t.server.lifecycle(), Lifecycle::active);
  // Fresh connects renegotiate and traffic flows again.
  Channel* fresh = nullptr;
  Channel* fresh_srv = nullptr;
  t.server.listen(7001, [&](Channel& ch) { fresh_srv = &ch; });
  t.client.connect(1, 7001, [&](Result<Channel*> r) {
    ASSERT_TRUE(r.ok());
    fresh = r.value();
  });
  t.run(millis(20));
  ASSERT_NE(fresh, nullptr);
  ASSERT_NE(fresh_srv, nullptr);
  EXPECT_EQ(fresh->proto_version(), WireHeader::kVersionMax);
  int delivered = 0;
  fresh_srv->set_on_msg([&](Channel&, Msg&&) { ++delivered; });
  EXPECT_EQ(fresh->send_msg(Buffer::make(128)), Errc::ok);
  t.run(millis(5));
  EXPECT_EQ(delivered, 1);
}

TEST(Lifecycle, ParkedRecoveryDoesNotBurnBudgetAgainstDrainingPeer) {
  // Satellite audit: a channel mid-recovery whose peer announces a drain
  // must park its resume ladder, not burn recovery_budget dialing a node
  // that said it is leaving.
  Config cfg = fast_cfg();
  cfg.fallback_auto = false;
  VersionedPair t(cfg, cfg);
  t.establish();
  ASSERT_NE(t.client_ch, nullptr);
  const std::uint64_t attempts_before = t.client_ch->stats().recovery_attempts;
  // Tell the client the server is draining for a long window, then kill
  // the QP so recovery wants to redial.
  t.client.health().note_peer_draining(1, millis(200));
  analysis::Filter filter(t.client, /*seed=*/7);
  filter.kill_qp(*t.client_ch);
  t.run(millis(50));
  EXPECT_GE(t.client_ch->stats().drain_recovery_parks, 1u);
  EXPECT_EQ(t.client_ch->stats().recovery_attempts, attempts_before);
  EXPECT_EQ(t.client_ch->state(), Channel::State::recovering);
}

TEST(Lifecycle, DrainWithOpenBreakerStillCompletes) {
  // Drain while another peer's breaker is open: the two planes must not
  // deadlock each other — the drained node only waits on its own windows.
  Config cfg = fast_cfg();
  cfg.fallback_auto = false;
  testbed::Cluster cluster(testbed::ClusterConfig::rack(3));
  Config c = cfg;
  Context a(cluster.rnic(0), cluster.cm(), c);
  Context b(cluster.rnic(1), cluster.cm(), c);
  Context d(cluster.rnic(2), cluster.cm(), c);
  for (Context* ctx : {&a, &b, &d}) {
    ctx->config().poll_mode = PollMode::busy;
    ctx->start_polling_loop();
  }
  Channel* ab = nullptr;
  b.listen(7000, [](Channel&) {});
  d.listen(7000, [](Channel&) {});
  a.connect(1, 7000, [&](Result<Channel*> r) {
    ASSERT_TRUE(r.ok());
    ab = r.value();
  });
  a.connect(2, 7000, [](Result<Channel*> r) { ASSERT_TRUE(r.ok()); });
  cluster.engine().run_for(millis(20));
  ASSERT_NE(ab, nullptr);
  // Node 2 crashes hard: a's breaker for peer 2 opens.
  cluster.host(2).set_alive(false);
  cluster.engine().run_for(millis(120));
  EXPECT_GE(a.health().stats().breaker_opens, 1u);
  // Now a drains: the dead-peer channel is recovering (not quiescent), so
  // the timeout force-closes it; the healthy one flushes and closes.
  a.begin_drain();
  cluster.engine().run_for(millis(120));
  EXPECT_EQ(a.lifecycle(), Lifecycle::drained);
  EXPECT_EQ(a.stats().drains_completed, 1u);
}

}  // namespace
}  // namespace xrdma::core

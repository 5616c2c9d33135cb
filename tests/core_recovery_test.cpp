// Self-healing channels (§VI-C): transparent QP recovery with
// retransmit-from-window, true-cause error reporting, prompt RPC completion
// on close, automatic TCP-fallback escalation after repeated CM failures,
// and probe-based restoration to RDMA once the path heals.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/filter.hpp"
#include "analysis/mock.hpp"
#include "core/context.hpp"
#include "sim/timer.hpp"
#include "testbed/cluster.hpp"
#include "tools/xr_stat.hpp"

namespace xrdma::core {
namespace {

using analysis::FaultKind;
using analysis::FaultRule;
using analysis::Filter;
using analysis::MockFallback;

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
    server.listen(port, [this](Channel& ch) { server_ch = &ch; });
    client.connect(1, port, [this](Result<Channel*> r) {
      ASSERT_TRUE(r.ok());
      client_ch = r.value();
    });
    cluster.engine().run_for(millis(20));
    ASSERT_NE(client_ch, nullptr);
    ASSERT_NE(server_ch, nullptr);
    server.config().poll_mode = PollMode::busy;
    client.config().poll_mode = PollMode::busy;
    server.start_polling_loop();
    client.start_polling_loop();
  }

  void run(Nanos d) { cluster.engine().run_for(d); }
};

TEST(Recovery, QpKillMidTransferDeliversExactlyOnceInOrder) {
  Pair t;
  t.establish();
  Filter filter(t.client, /*seed=*/11);

  // 32 in-flight messages, several large enough to go rendezvous so the
  // kill lands mid-pull for some of them.
  std::vector<std::size_t> plan;
  for (int i = 0; i < 32; ++i) {
    plan.push_back(i % 5 == 2 ? 200000 + static_cast<std::size_t>(i)
                              : 64 + static_cast<std::size_t>(i));
  }
  std::vector<std::size_t> got;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { got.push_back(m.payload.size()); });
  bool app_saw_error = false;
  t.client_ch->set_on_error([&](Channel&, Errc) { app_saw_error = true; });

  for (std::size_t s : plan) t.client_ch->send_msg(Buffer::make(s));
  filter.kill_qp_after(t.client_ch->id(), micros(150));  // mid-transfer
  t.run(millis(80));

  // Every message exactly once, in order, with zero application involvement.
  EXPECT_EQ(got, plan);
  EXPECT_FALSE(app_saw_error);
  EXPECT_EQ(t.client_ch->state(), Channel::State::established);
  EXPECT_EQ(filter.injected(FaultKind::qp_kill), 1u);
  EXPECT_GE(t.client_ch->stats().recoveries_started, 1u);
  EXPECT_GE(t.client_ch->stats().recoveries_completed, 1u);
  EXPECT_GT(t.client_ch->stats().recovery_retransmits, 0u);

  // The channel is fully functional afterwards.
  t.client_ch->send_msg(Buffer::make(99));
  t.run(millis(5));
  ASSERT_EQ(got.size(), plan.size() + 1);
  EXPECT_EQ(got.back(), 99u);
}

TEST(Recovery, ServerSideQpKillAlsoHealsTransparently) {
  Pair t;
  t.establish();
  Filter filter(t.server, /*seed=*/5);

  std::vector<std::size_t> got;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { got.push_back(m.payload.size()); });
  const std::vector<std::size_t> plan = {10, 120000, 20, 30, 250000, 40};
  for (std::size_t s : plan) t.client_ch->send_msg(Buffer::make(s));
  // Kill the *acceptor's* QP: the connector notices via transport errors /
  // keepalive and drives the resume; the acceptor waits passively.
  filter.kill_qp_after(t.server_ch->id(), micros(120));
  t.run(millis(150));

  EXPECT_EQ(got, plan);
  EXPECT_EQ(t.client_ch->state(), Channel::State::established);
  EXPECT_EQ(t.server_ch->state(), Channel::State::established);
}

TEST(Recovery, DescriptorDelayedPastQpDeathParksItsPull) {
  // The ingress filter holds a rendezvous descriptor back while the
  // receiver's QP dies, so it lands on a recovering channel with nothing to
  // read through. The pull must park until the resume, not post into the
  // dead QP and fail the channel.
  Pair t;
  t.establish();
  bool held = false;
  t.server.set_filter([&](Channel&, const WireHeader& hdr) {
    Context::FilterDecision d;
    if (!held && hdr.is_data() && hdr.has(kFlagLarge)) {
      held = true;
      d.action = Context::FilterAction::delay;
      d.delay = millis(1);
    }
    return d;
  });
  std::vector<std::size_t> got;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { got.push_back(m.payload.size()); });
  bool server_error = false;
  t.server_ch->set_on_error([&](Channel&, Errc) { server_error = true; });

  t.client_ch->send_msg(Buffer::make(200000));
  t.run(micros(100));
  ASSERT_TRUE(held);
  rnic::QpAttr dead;  // what Filter::kill_qp does, without its ingress hook
  dead.state = rnic::QpState::error;
  t.server.nic().modify_qp(t.server_ch->qp_num(), dead);
  ASSERT_EQ(t.server_ch->state(), Channel::State::recovering);
  t.run(millis(2));  // the descriptor lands mid-recovery
  EXPECT_EQ(t.server_ch->state(), Channel::State::recovering);
  EXPECT_TRUE(got.empty());

  t.run(millis(200));
  EXPECT_EQ(got, std::vector<std::size_t>{200000});  // exactly once
  EXPECT_FALSE(server_error);
  EXPECT_EQ(t.server_ch->state(), Channel::State::established);
  EXPECT_EQ(t.client_ch->state(), Channel::State::established);
  EXPECT_GE(t.server_ch->stats().recoveries_completed, 1u);
}

TEST(Recovery, PassiveQpSwapWithAckInFlightStillAcksTheLastEntry) {
  // The acceptor posts a standalone ACK just as the connector's QP dies, so
  // the ACK never completes. The connector's resume then swaps the
  // acceptor's QP while its channel is still established. The swap purges
  // the ACK's WR; a flag that outlived it would keep the acceptor from ever
  // acking again (standalone ACK and deadlock NOP alike), and the
  // connector's next message would stay in flight for good.
  Pair t;
  t.establish();
  const std::uint32_t ack_every = t.server.config().ack_every;
  std::uint32_t got = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) {
    if (++got != ack_every) return;
    // This delivery reaches the ACK threshold: the ACK posts as soon as the
    // handler returns, toward a QP that is already dead.
    rnic::QpAttr dead;
    dead.state = rnic::QpState::error;
    t.client.nic().modify_qp(t.client_ch->qp_num(), dead);
  });
  const rnic::QpNum server_qp = t.server_ch->qp_num();
  for (std::uint32_t i = 0; i < ack_every; ++i) {
    t.client_ch->send_msg(Buffer::make(64));
  }
  t.run(millis(3));
  ASSERT_EQ(got, ack_every);
  ASSERT_EQ(t.client_ch->state(), Channel::State::established);
  ASSERT_GE(t.client_ch->stats().recoveries_completed, 1u);
  // A passive swap: the acceptor took a new QP without ever recovering.
  ASSERT_NE(t.server_ch->qp_num(), server_qp);
  ASSERT_EQ(t.server_ch->stats().recoveries_started, 0u);
  EXPECT_EQ(t.client_ch->inflight_msgs(), 0u);  // the resume REP's RTA

  t.client_ch->send_msg(Buffer::make(64));
  t.run(millis(5));
  EXPECT_EQ(got, ack_every + 1);
  EXPECT_EQ(t.client_ch->inflight_msgs(), 0u);
  EXPECT_EQ(t.server_ch->state(), Channel::State::established);
}

TEST(Recovery, TrueCauseReportedAndRetryableGetsFullBudget) {
  // A QP error does not collapse every cause into peer_dead.
  // A locally flushed QP (wr_flush_error) is a retryable fault: the channel
  // burns the FULL recovery budget and, when every attempt fails with no
  // fallback available, reports the true original cause.
  Config cfg;
  cfg.fallback_auto = false;
  Pair t(cfg);
  t.establish();
  Filter filter(t.client, /*seed=*/3);
  filter.add_rule({FaultKind::cm_timeout, 1.0, 0, -1, 0});  // resume never works

  Errc seen = Errc::ok;
  t.client_ch->set_on_error([&](Channel&, Errc e) { seen = e; });
  filter.kill_qp(*t.client_ch);
  t.run(millis(200));

  EXPECT_EQ(seen, Errc::wr_flush_error);  // the true cause, not peer_dead
  EXPECT_EQ(t.client_ch->state(), Channel::State::error);
  EXPECT_EQ(t.client_ch->stats().recovery_attempts,
            static_cast<std::uint64_t>(t.client.config().recovery_max_attempts));
}

TEST(Recovery, DeadPeerGetsHalvedBudgetAndPeerDeadCause) {
  Config cfg;
  cfg.keepalive_intv = millis(5);
  cfg.keepalive_timeout = millis(20);
  cfg.fallback_auto = false;
  Pair t(cfg);
  t.establish();

  Errc seen = Errc::ok;
  t.client_ch->set_on_error([&](Channel&, Errc e) { seen = e; });
  t.run(millis(2));
  t.cluster.host(1).set_alive(false);  // machine crash, no FIN
  t.run(millis(300));

  EXPECT_EQ(seen, Errc::peer_dead);
  EXPECT_EQ(t.client_ch->state(), Channel::State::error);
  // Dead-peer recovery uses the halved budget: reconnects to a dead machine
  // each burn the full CM timeout, so the channel gives up sooner.
  const auto max_attempts = t.client.config().recovery_max_attempts;
  EXPECT_EQ(t.client_ch->stats().recovery_attempts,
            static_cast<std::uint64_t>(max_attempts > 1 ? max_attempts / 2 : 1));
}

TEST(Recovery, CloseCompletesOutstandingRpcCallbacksPromptly) {
  // Satellite: close() must not leave RPC callbacks hanging until their
  // timeouts; they complete with channel_closed as the FIN goes out.
  Pair t;
  t.establish();
  t.server_ch->set_on_msg([](Channel&, Msg&&) { /* never replies */ });

  std::vector<Errc> results;
  for (int i = 0; i < 3; ++i) {
    t.client_ch->call(
        Buffer::from_string("req" + std::to_string(i)),
        [&](Result<Msg> r) { results.push_back(r.ok() ? Errc::ok : r.error()); },
        millis(500));  // timeout far beyond the test horizon
  }
  t.run(millis(2));
  ASSERT_TRUE(results.empty());

  t.client_ch->close();
  t.run(millis(1));  // promptly — not after the 500ms RPC timeout
  ASSERT_EQ(results.size(), 3u);
  for (Errc e : results) EXPECT_EQ(e, Errc::channel_closed);
  EXPECT_EQ(t.client_ch->stats().rpc_aborts, 3u);
}

TEST(Recovery, CmFailuresEscalateToTcpFallbackThenRestore) {
  Pair t;
  t.establish();
  MockFallback server_mock(t.server, t.cluster.host(1).tcp(), 9300);
  MockFallback::enable_auto(t.client, t.cluster.host(0).tcp(), 9300);

  Filter filter(t.client, /*seed=*/17);
  // Every resume attempt times out: after recovery_max_attempts the channel
  // must escalate to the TCP fallback on its own.
  const std::size_t cm_rule =
      filter.add_rule({FaultKind::cm_timeout, 1.0, 0, -1, 0});

  std::vector<std::string> got;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { got.push_back(m.payload.to_string()); });
  bool app_saw_error = false;
  t.client_ch->set_on_error([&](Channel&, Errc) { app_saw_error = true; });

  t.client_ch->send_msg(Buffer::from_string("before-fault"));
  t.run(millis(2));
  filter.kill_qp(*t.client_ch);
  // Sends issued mid-recovery park in the queue and flush on the fallback.
  t.client_ch->send_msg(Buffer::from_string("during-recovery"));
  t.run(millis(150));

  EXPECT_TRUE(t.client_ch->mocked());
  EXPECT_EQ(t.client_ch->state(), Channel::State::established);
  EXPECT_EQ(t.client_ch->stats().fallback_switches, 1u);
  EXPECT_GE(filter.injected(FaultKind::cm_timeout),
            static_cast<std::uint64_t>(t.client.config().recovery_max_attempts));
  EXPECT_FALSE(app_saw_error);

  t.client_ch->send_msg(Buffer::from_string("over-tcp"));
  t.run(millis(10));
  EXPECT_EQ(got, (std::vector<std::string>{"before-fault", "during-recovery",
                                           "over-tcp"}));

  // Path heals: the background RDMA probe resumes the QP and the channel
  // migrates off the fallback automatically.
  filter.remove_rule(cm_rule);
  t.run(millis(200));
  EXPECT_FALSE(t.client_ch->mocked());
  EXPECT_EQ(t.client_ch->state(), Channel::State::established);
  EXPECT_EQ(t.client_ch->stats().fallback_restores, 1u);

  const std::uint64_t rnic_tx_before = t.cluster.rnic(0).stats().tx_packets;
  t.client_ch->send_msg(Buffer::from_string("rdma-again"));
  t.run(millis(10));
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got.back(), "rdma-again");
  EXPECT_GT(t.cluster.rnic(0).stats().tx_packets, rnic_tx_before);
}

TEST(Recovery, GracefulCloseOverFallbackLeavesNoBridge) {
  // The FIN's receiver tears the stream down, the FIN's sender loses it
  // when the peer closes it. The acceptor never called enable_auto: its
  // MockFallback server alone must be able to close the stream.
  Pair t;
  t.establish();
  MockFallback server_mock(t.server, t.cluster.host(1).tcp(), 9350);
  MockFallback::enable_auto(t.client, t.cluster.host(0).tcp(), 9350);
  Filter filter(t.client, /*seed=*/23);
  filter.add_rule({FaultKind::cm_timeout, 1.0, 0, -1, 0});  // resume never works
  filter.kill_qp(*t.client_ch);
  t.run(millis(150));
  ASSERT_TRUE(t.client_ch->mocked());
  ASSERT_TRUE(t.server_ch->mocked());

  std::vector<Errc> server_errors;
  t.server_ch->set_on_error(
      [&](Channel&, Errc e) { server_errors.push_back(e); });
  t.client_ch->close();
  t.run(millis(20));
  EXPECT_EQ(t.client_ch->state(), Channel::State::closed);
  EXPECT_EQ(t.server_ch->state(), Channel::State::closed);
  EXPECT_FALSE(t.client_ch->mocked());
  EXPECT_FALSE(t.server_ch->mocked());
  EXPECT_EQ(server_errors, std::vector<Errc>{Errc::channel_closed});
}

TEST(Recovery, SustainedLoadAcrossFallbackAndRestore) {
  // The overload path and the self-healing path compose: a sender under
  // continuous load (bounded tx queue, so some sends bounce with
  // would_block) rides escalate -> TCP fallback -> restore without losing,
  // duplicating or reordering anything, and the keepalive machinery stays
  // live on the fallback the whole way through.
  Config cfg;
  cfg.tx_queue_max_msgs = 8;
  cfg.keepalive_intv = millis(2);
  cfg.keepalive_timeout = millis(30);
  Pair t(cfg);
  t.establish();
  MockFallback server_mock(t.server, t.cluster.host(1).tcp(), 9400);
  MockFallback::enable_auto(t.client, t.cluster.host(0).tcp(), 9400);

  Filter filter(t.client, /*seed=*/29);
  const std::size_t cm_rule =
      filter.add_rule({FaultKind::cm_timeout, 1.0, 0, -1, 0});

  std::vector<std::uint64_t> got;
  t.server_ch->set_on_msg([&](Channel&, Msg&& m) {
    std::uint64_t tag = 0;
    std::memcpy(&tag, m.payload.data(), sizeof(tag));
    got.push_back(tag);
  });
  bool app_saw_error = false;
  t.client_ch->set_on_error([&](Channel&, Errc) { app_saw_error = true; });

  // Offered load: one tagged message every 100 µs for the whole scenario.
  // would_block is legal (the queue is bounded); silent loss is not — every
  // *accepted* tag must arrive exactly once, in order.
  std::uint64_t next_tag = 0;
  std::vector<std::uint64_t> accepted;
  sim::PeriodicTimer load(t.cluster.engine(), micros(100), [&] {
    Buffer b = Buffer::make(64);
    std::memcpy(b.data(), &next_tag, sizeof(next_tag));
    if (t.client_ch->send_msg(std::move(b)) == Errc::ok) {
      accepted.push_back(next_tag);
    }
    ++next_tag;
  });
  load.start();

  // Worst keepalive silence observed on the client channel, sampled finer
  // than the keepalive interval. Liveness must hold *through* the fault.
  Nanos worst_gap = 0;
  sim::PeriodicTimer gap_probe(t.cluster.engine(), micros(500), [&] {
    const Nanos last =
        std::max({t.client_ch->last_tx_time(), t.client_ch->last_rx_time(),
                  t.client_ch->last_alive_time()});
    worst_gap = std::max(worst_gap, t.cluster.engine().now() - last);
  });
  gap_probe.start();

  t.run(millis(5));
  filter.kill_qp(*t.client_ch);  // load keeps arriving during recovery
  t.run(millis(100));
  ASSERT_TRUE(t.client_ch->mocked());
  EXPECT_EQ(t.client_ch->stats().fallback_switches, 1u);

  t.run(millis(30));  // sustained load *on* the fallback
  filter.remove_rule(cm_rule);
  t.run(millis(200));
  EXPECT_FALSE(t.client_ch->mocked());
  EXPECT_EQ(t.client_ch->stats().fallback_restores, 1u);

  load.stop();
  gap_probe.stop();
  t.run(millis(50));  // drain

  // Exactly-once, in-order, across two transport migrations.
  EXPECT_EQ(got, accepted);
  EXPECT_GT(accepted.size(), 100u);  // the load actually ran throughout
  EXPECT_FALSE(app_saw_error);
  EXPECT_EQ(t.client_ch->state(), Channel::State::established);
  // Keepalive liveness: the channel was never silent longer than the
  // keepalive budget, even while the QP was dead and load was parked.
  EXPECT_LE(worst_gap, cfg.keepalive_intv + 2 * cfg.keepalive_timeout);
}

// Tx shape x replay transport matrix. One message of every payload shape
// the tx path builds (WQE-inline, staged eager, rendezvous, zero-copy) is
// replayed over every transport a replay can take: RDMA after a QP kill,
// the Mock fallback stream, and RDMA again after a fallback first send.
// Each cell pins exactly-once, byte-exact delivery plus the sender's
// frame-shape counters and MemCache allocation counts, so any change to
// how a wire form is built or replayed shows up here.

enum class Replay { qp_kill, fallback, restore };

struct TxCounters {
  std::uint64_t inline_sends = 0;
  std::uint64_t mock_tx = 0;
  std::uint64_t large_msgs_tx = 0;
  std::uint64_t recovery_retransmits = 0;
  std::uint64_t crc_stamped_tx = 0;
  std::uint64_t ctrl_allocs = 0;
  std::uint64_t data_allocs = 0;
  bool operator==(const TxCounters&) const = default;
};

std::string format_counters(const TxCounters& c) {
  return std::to_string(c.inline_sends) + ", " + std::to_string(c.mock_tx) +
         ", " + std::to_string(c.large_msgs_tx) + ", " +
         std::to_string(c.recovery_retransmits) + ", " +
         std::to_string(c.crc_stamped_tx) + ", " +
         std::to_string(c.ctrl_allocs) + ", " + std::to_string(c.data_allocs);
}

TxCounters run_tx_cell(const std::string& shape, Replay replay) {
  Pair t;
  t.establish();
  MockFallback server_mock(t.server, t.cluster.host(1).tcp(), 9500);
  MockFallback::enable_auto(t.client, t.cluster.host(0).tcp(), 9500);
  // The CM fault hook is cluster-wide and the last Filter built owns it:
  // build the client's (which carries the cm rule) second.
  Filter server_filter(t.server, /*seed=*/43);
  Filter client_filter(t.client, /*seed=*/41);
  std::vector<Buffer> got;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { got.push_back(std::move(m.payload)); });
  const auto run_until = [&](const auto& done, Nanos limit) {
    for (Nanos ran = 0; ran < limit && !done(); ran += micros(250)) {
      t.run(micros(250));
    }
  };

  const Config& cfg = t.client.config();
  const std::uint32_t len = shape == "empty"        ? 0
                            : shape == "inline_max" ? cfg.inline_max
                            : shape == "staged"     ? cfg.inline_max + 1
                            : shape == "rendezvous" ? cfg.small_msg_size + 1
                                                    : 512;  // zero_copy
  const auto pattern = [len] {
    Buffer b = Buffer::make(len);
    fill_pattern(b, len + 7);
    return b;
  };
  const Buffer want = pattern();

  std::size_t cm_rule = 0;
  if (replay != Replay::qp_kill) {
    cm_rule = client_filter.add_rule({FaultKind::cm_timeout, 1.0, 0, -1, 0});
  }
  if (replay == Replay::restore) {
    // Ride onto the fallback with nothing in flight, then lose the first
    // stream-delivered frame at the server: only a replay over the restored
    // QP can deliver the message.
    client_filter.kill_qp(*t.client_ch);
    run_until([&] { return t.client_ch->mocked(); }, millis(150));
    EXPECT_TRUE(t.client_ch->mocked());
    server_filter.add_rule(
        {FaultKind::ingress_drop, 1.0, t.server_ch->id(), 1, 0});
  }
  if (shape == "zero_copy") {
    const MemBlock block = t.client.reg_mem(len);
    std::memcpy(t.client.mem_ptr(block), want.data(), len);
    EXPECT_EQ(t.client_ch->send_msg(block, len), Errc::ok);
  } else {
    EXPECT_EQ(t.client_ch->send_msg(pattern()), Errc::ok);
  }
  if (replay == Replay::restore) {
    t.run(millis(2));
    EXPECT_TRUE(got.empty());
  } else {
    client_filter.kill_qp(*t.client_ch);
    run_until([&] { return !got.empty(); }, millis(150));
    EXPECT_EQ(t.client_ch->mocked(), replay == Replay::fallback);
  }
  if (replay != Replay::qp_kill) {
    client_filter.remove_rule(cm_rule);
    run_until([&] { return !t.client_ch->mocked() && !got.empty(); },
              millis(300));
  }
  // A lone message is acked by the idle-scan NOP, not a standalone ack.
  run_until([&] { return t.client_ch->inflight_msgs() == 0; }, millis(50));

  EXPECT_FALSE(t.client_ch->mocked());
  EXPECT_EQ(t.client_ch->state(), Channel::State::established);
  EXPECT_EQ(server_filter.injected(FaultKind::ingress_drop),
            replay == Replay::restore ? 1u : 0u);
  EXPECT_EQ(t.client_ch->inflight_msgs(), 0u);
  EXPECT_EQ(got.size(), 1u);
  EXPECT_TRUE(!got.empty() && got.front() == want);
  const ChannelStats& s = t.client_ch->stats();
  return {s.inline_sends,
          s.mock_tx,
          s.large_msgs_tx,
          s.recovery_retransmits,
          s.crc_stamped_tx,
          t.client.ctrl_cache().stats().alloc_calls,
          t.client.data_cache().stats().alloc_calls};
}

TEST(Recovery, TxShapeByReplayTransportMatrix) {
  struct Cell {
    const char* shape;
    Replay replay;
    TxCounters want;
  };
  // want: {inline_sends, mock_tx, large_msgs_tx, recovery_retransmits,
  //        crc_stamped_tx, ctrl alloc_calls, data alloc_calls}
  const std::vector<Cell> cells = {
      {"empty", Replay::qp_kill, {2, 0, 0, 1, 2, 272, 0}},
      {"empty", Replay::fallback, {1, 1, 0, 1, 3, 272, 0}},
      {"empty", Replay::restore, {1, 1, 0, 1, 2, 272, 0}},
      {"inline_max", Replay::qp_kill, {2, 0, 0, 1, 2, 272, 0}},
      {"inline_max", Replay::fallback, {1, 1, 0, 1, 3, 272, 0}},
      {"inline_max", Replay::restore, {1, 1, 0, 1, 2, 272, 0}},
      {"staged", Replay::qp_kill, {0, 0, 0, 1, 2, 273, 0}},
      {"staged", Replay::fallback, {0, 1, 0, 1, 3, 273, 0}},
      {"staged", Replay::restore, {0, 1, 0, 1, 2, 273, 0}},
      {"rendezvous", Replay::qp_kill, {0, 0, 1, 1, 2, 273, 1}},
      {"rendezvous", Replay::fallback, {0, 1, 1, 1, 3, 273, 1}},
      {"rendezvous", Replay::restore, {0, 1, 0, 1, 2, 273, 1}},
      {"zero_copy", Replay::qp_kill, {0, 0, 1, 1, 2, 273, 1}},
      {"zero_copy", Replay::fallback, {0, 1, 1, 1, 3, 273, 1}},
      {"zero_copy", Replay::restore, {0, 1, 0, 1, 2, 273, 1}},
  };
  const char* names[] = {"qp_kill", "fallback", "restore"};
  for (const Cell& c : cells) {
    const char* replay = names[static_cast<int>(c.replay)];
    SCOPED_TRACE(std::string(c.shape) + " x " + replay);
    const TxCounters got = run_tx_cell(c.shape, c.replay);
    EXPECT_EQ(got, c.want) << "{\"" << c.shape << "\", Replay::" << replay
                           << ", {" << format_counters(got) << "}},";
  }
}

TEST(Recovery, CountersVisibleInXrStat) {
  Pair t;
  t.establish();
  Filter filter(t.client, /*seed=*/23);
  int got = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++got; });
  for (int i = 0; i < 8; ++i) t.client_ch->send_msg(Buffer::make(64));
  filter.kill_qp_after(t.client_ch->id(), micros(100));
  t.run(millis(50));
  ASSERT_EQ(got, 8);

  EXPECT_EQ(t.client.stats().channels_recovered, 1u);
  EXPECT_EQ(t.client.stats().recovery_latency.count(), 1u);
  const std::string summary = tools::xr_stat_summary(t.client);
  EXPECT_NE(summary.find("recovered=1"), std::string::npos);
  EXPECT_NE(summary.find("recovery_latency"), std::string::npos);
  const std::string table = tools::xr_stat(t.client);
  EXPECT_NE(table.find("recov"), std::string::npos);
}

// The one receive rule, for per-QP and shared (SRQ) bounce slots alike:
// every slot a QP kill flushes goes back to the SRQ, and a Write-with-imm
// that consumes a bounce slot is counted as a bad message, never parsed.
class ReceiveRule : public ::testing::TestWithParam<bool> {};

TEST_P(ReceiveRule, FlushedAndForgedCompletionsKeepEverySlot) {
  Config cfg;
  cfg.use_srq = GetParam();
  cfg.srq_size = 256;
  Pair t(cfg);
  t.establish();
  Filter filter(t.server, /*seed=*/31);
  std::vector<std::uint32_t> got;
  t.server_ch->set_on_msg([&](Channel&, Msg&& m) {
    std::uint32_t idx = 0;
    std::memcpy(&idx, m.payload.data(), 4);
    got.push_back(idx);
  });
  std::uint32_t sent = 0;
  const auto send = [&](std::size_t len) {
    Buffer b = Buffer::make(len);
    std::memcpy(b.data(), &sent, 4);
    ASSERT_EQ(t.client_ch->send_msg(std::move(b)), Errc::ok);
    ++sent;
  };

  // 20 server-side QP kills, swept 1-20 us into a burst of 4 KiB sends.
  // A kill unroutes the QP at once, so receive completions it left in the
  // CQ arrive for no channel; their SRQ slots must still go back.
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 16; ++i) send(4096);
    filter.kill_qp_after(t.server_ch->id(), micros(1 + round));
    for (int ms = 0; ms < 300 && got.size() < sent; ++ms) t.run(millis(1));
    ASSERT_EQ(got.size(), sent) << "round " << round;
  }
  for (std::uint32_t i = 0; i < sent; ++i) ASSERT_EQ(got[i], i);
  if (cfg.use_srq) {
    EXPECT_EQ(t.cluster.rnic(1).srq_outstanding(t.server.srq()),
              cfg.srq_size);
  }

  // Put a real frame in every slot, so a slot parsed with a forged length
  // holds bytes that would decode.
  const std::uint32_t slots =
      cfg.use_srq ? cfg.srq_size : 2 * cfg.window_depth + 8;
  for (std::uint32_t i = 0; i < slots + 8; ++i) send(64);
  t.run(millis(10));
  ASSERT_EQ(got.size(), sent);

  // The peer's Write-with-imm consumes the next bounce slot and completes
  // it with the Write's length, four times the slot's payload room.
  const std::uint64_t bad_before = t.server_ch->stats().bad_messages;
  const std::uint32_t len = 4 * cfg.small_msg_size;
  const MemBlock dst = t.server.reg_mem(len);
  const MemBlock src = t.client.reg_mem(len);
  verbs::SendWr wr;
  wr.wr_id = ~0ull;  // never registered: the client ignores its completion
  wr.opcode = verbs::Opcode::write_imm;
  wr.local = {src.addr, len, src.lkey};
  wr.remote_addr = dst.addr;
  wr.rkey = dst.rkey;
  ASSERT_EQ(t.cluster.rnic(0).post_send(t.client_ch->qp_num(), wr), Errc::ok);
  t.run(millis(2));
  EXPECT_EQ(t.server_ch->stats().bad_messages, bad_before + 1);

  // The channel carries on, and the slot is back.
  send(64);
  t.run(millis(2));
  EXPECT_EQ(got.size(), sent);
  EXPECT_EQ(t.server_ch->state(), Channel::State::established);
  if (cfg.use_srq) {
    EXPECT_EQ(t.cluster.rnic(1).srq_outstanding(t.server.srq()),
              cfg.srq_size);
  }
}

INSTANTIATE_TEST_SUITE_P(Slots, ReceiveRule, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "srq" : "per_qp";
                         });

}  // namespace
}  // namespace xrdma::core

// Cross-layer robustness: RC recovery from real packet loss (tiny switch
// buffers force lossless-class drops), full-stack determinism, polling
// modes, the event-fd path, and slow-poll detection.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "analysis/monitor.hpp"
#include "core/context.hpp"
#include "testbed/pair.hpp"

namespace xrdma {
namespace {

using core::Channel;
using core::Config;
using core::Context;
using core::Msg;

using testbed::Pair;

TEST(Robustness, GoBackNRecoversFromRealDrops) {
  // Two senders collide into a switch buffer so small that lossless
  // packets drop; the RC layer must NAK/retransmit and the middleware must
  // deliver everything exactly once, in order, on both channels.
  testbed::ClusterConfig ccfg;
  ccfg.fabric = net::ClosConfig::rack(3);
  ccfg.fabric.buffer_bytes = 16 * 1024;  // ~4 packets
  ccfg.fabric.pfc_xoff = 1u << 30;       // effectively disable PFC
  testbed::Cluster cluster(ccfg);
  Context server(cluster.rnic(0), cluster.cm());
  Context c1(cluster.rnic(1), cluster.cm());
  Context c2(cluster.rnic(2), cluster.cm());
  std::map<std::uint64_t, std::vector<std::size_t>> got;  // by channel id
  server.listen(7000, [&](Channel& ch) {
    ch.set_on_msg([&](Channel& c, Msg&& m) {
      got[c.id()].push_back(m.payload.size());
    });
  });
  Channel *ch1 = nullptr, *ch2 = nullptr;
  c1.connect(0, 7000, [&](Result<Channel*> r) { ch1 = r.value(); });
  c2.connect(0, 7000, [&](Result<Channel*> r) { ch2 = r.value(); });
  cluster.engine().run_for(millis(20));
  for (Context* ctx : {&server, &c1, &c2}) {
    ctx->config().poll_mode = core::PollMode::busy;
    ctx->start_polling_loop();
  }

  std::vector<std::size_t> plan;
  for (int i = 0; i < 40; ++i) {
    plan.push_back(static_cast<std::size_t>(1000 + i * 917) % 60000);
    ch1->send_msg(Buffer::make(plan.back()));
    ch2->send_msg(Buffer::make(plan.back()));
  }
  cluster.engine().run_for(millis(500));
  ASSERT_EQ(got.size(), 2u);
  for (auto& [id, sizes] : got) EXPECT_EQ(sizes, plan);
  EXPECT_GT(cluster.fabric().stats().drops, 0u);  // loss really happened
  EXPECT_GT(cluster.rnic(1).stats().retransmitted_packets +
                cluster.rnic(2).stats().retransmitted_packets +
                cluster.rnic(0).stats().retransmitted_packets,
            0u);
}

TEST(Robustness, ContentIntegrityThroughLossAndRetransmit) {
  testbed::ClusterConfig ccfg;
  ccfg.fabric = net::ClosConfig::pair();
  ccfg.fabric.buffer_bytes = 32 * 1024;
  ccfg.fabric.pfc_xoff = 1u << 30;
  Pair t({}, ccfg);
  ASSERT_TRUE(t.connect());
  t.start_polling();
  Buffer received;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { received = std::move(m.payload); });
  Buffer big = Buffer::make(400 * 1024);
  fill_pattern(big, 1234);
  t.client_ch->send_msg(std::move(big));
  t.cluster.engine().run_for(millis(400));
  ASSERT_EQ(received.size(), 400u * 1024);
  EXPECT_TRUE(check_pattern(received, 1234));
}

TEST(Robustness, FullStackDeterminism) {
  auto run_once = [] {
    Config cfg;
    cfg.reqrsp_mode = true;
    Pair t(cfg);
    EXPECT_TRUE(t.connect());
    t.start_polling();
    std::uint64_t checksum = 0;
    t.server_ch->set_on_msg([&](Channel& ch, Msg&& m) {
      checksum = checksum * 1099511628211ULL ^
                 static_cast<std::uint64_t>(t.cluster.engine().now());
      if (m.is_rpc_req) ch.reply(m.rpc_id, Buffer::make(128));
    });
    for (int i = 0; i < 64; ++i) {
      if (i % 3 == 0) {
        t.client_ch->call(Buffer::make(static_cast<std::size_t>(i * 211)),
                          [](Result<Msg>) {});
      } else {
        t.client_ch->send_msg(
            Buffer::make(static_cast<std::size_t>(i * 997) % 20000));
      }
    }
    t.cluster.engine().run_for(millis(50));
    checksum ^= t.cluster.rnic(0).stats().tx_packets * 31;
    checksum ^= t.cluster.rnic(1).stats().rx_bytes * 7;
    return checksum;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Robustness, HybridPollerParksWhenIdleAndWakes) {
  Config cfg;
  cfg.poll_mode = core::PollMode::hybrid;
  cfg.hybrid_idle_spins = 20;
  Pair t(cfg);
  ASSERT_TRUE(t.connect());
  t.server.start_polling_loop();
  t.client.start_polling_loop();
  int got = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++got; });

  // Long idle: both pollers must park instead of spinning.
  t.cluster.engine().run_for(millis(20));
  EXPECT_GT(t.server.stats().parks, 0u);
  const std::uint64_t polls_after_idle = t.server.stats().polls;
  t.cluster.engine().run_for(millis(20));
  // Parked: almost no polls accumulate while idle (keepalive wakes allowed).
  EXPECT_LT(t.server.stats().polls - polls_after_idle, 500u);

  // A message wakes the parked poller.
  t.client_ch->send_msg(Buffer::from_string("wake"));
  t.cluster.engine().run_for(millis(5));
  EXPECT_EQ(got, 1);
  EXPECT_GT(t.server.stats().wakeups, 0u);
}

TEST(Robustness, EventModeDeliversViaFd) {
  Config cfg;
  cfg.poll_mode = core::PollMode::event;
  Pair t(cfg);
  ASSERT_TRUE(t.connect());
  t.server.start_polling_loop();
  t.client.start_polling_loop();
  int got = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++got; });
  for (int i = 0; i < 10; ++i) t.client_ch->send_msg(Buffer::make(64));
  t.cluster.engine().run_for(millis(20));
  EXPECT_EQ(got, 10);
  // Event mode: poll count is in the order of messages, not time/interval.
  EXPECT_LT(t.server.stats().polls, 2000u);
  EXPECT_GE(t.server.get_event_fd(), 0);
}

TEST(Robustness, DestroyedContextTakesItsPollStepAlong) {
  // A context destroyed with its busy loop running must cancel the step it
  // has pending (ASan reports the use after free otherwise).
  testbed::Cluster cluster;
  Config cfg;
  cfg.poll_mode = core::PollMode::busy;
  auto ctx = std::make_unique<Context>(cluster.rnic(0), cluster.cm(), cfg);
  ctx->start_polling_loop();
  cluster.engine().run_for(micros(10));
  ASSERT_GT(ctx->stats().polls, 1u);
  ctx.reset();
  cluster.engine().run_for(millis(1));
}

TEST(Robustness, DestroyedParkedContextTakesItsWakeAlong) {
  // The same for a parked event-mode loop whose event fd has a wake in
  // flight.
  testbed::Cluster cluster;
  Config cfg;
  cfg.poll_mode = core::PollMode::event;
  auto ctx = std::make_unique<Context>(cluster.rnic(0), cluster.cm(), cfg);
  ctx->start_polling_loop();
  cluster.engine().run_for(micros(10));
  ASSERT_EQ(ctx->stats().parks, 1u);
  ctx->event_fd().set_ready();
  ctx.reset();
  cluster.engine().run_for(millis(1));
}

TEST(Robustness, RestartedLoopPollsOncePerInterval) {
  // Stopping and restarting inside one interval leaves the stopped loop's
  // step pending; the restart replaces it instead of running a second loop.
  Config cfg;
  cfg.keepalive_intv = millis(100);
  Pair t(cfg);
  ASSERT_TRUE(t.connect());
  t.start_polling();
  t.cluster.engine().run_for(millis(1));
  t.client.stop_polling_loop();
  t.client.start_polling_loop();
  const std::uint64_t before = t.client.stats().polls;
  constexpr std::uint64_t kIntervals = 100;
  t.cluster.engine().run_for(static_cast<Nanos>(kIntervals) *
                             cfg.busy_poll_interval);
  // The restart polls at once, then once per interval through the end.
  EXPECT_EQ(t.client.stats().polls - before, kIntervals + 1);
}

TEST(Robustness, ManualProcessEventDrainsCompletions) {
  Pair t;  // no polling loops at all
  ASSERT_TRUE(t.connect());
  int got = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++got; });
  t.client_ch->send_msg(Buffer::from_string("x"));
  // Let the fabric deliver, then drain by hand — the Table I event API.
  t.cluster.engine().run_for(millis(1));
  t.client.polling();
  t.cluster.engine().run_for(millis(1));
  EXPECT_EQ(got, 0);
  const int n = t.server.process_event();
  EXPECT_GT(n, 0);
  EXPECT_EQ(got, 1);
}

TEST(Robustness, SlowPollWatchdogFiresAndIsMonitorVisible) {
  Config cfg;
  cfg.polling_warn_cycle = micros(200);
  Pair t(cfg);
  ASSERT_TRUE(t.connect());
  analysis::Monitor monitor_probe(t.cluster.engine(), millis(1));  // log sink
  // Manual, deliberately slow polling.
  t.client.polling();
  t.cluster.engine().run_for(millis(2));  // 2 ms gap >> 200 us threshold
  t.client.polling();
  EXPECT_GE(t.client.stats().slow_polls, 1u);
  EXPECT_GE(t.client.stats().worst_poll_gap, millis(2));
  EXPECT_GE(monitor_probe.count_logs("slow poll"), 1u);
}

TEST(Robustness, IdleBusyPollCountsEveryEmptyPollExactly) {
  // An idle connected context: keepalive is pushed out of the window, so
  // every poll of the busy loop finds both CQs empty. Each interval is
  // exactly one poll and one empty poll, and nothing is processed.
  Config cfg;
  cfg.keepalive_intv = millis(100);
  Pair t(cfg);
  ASSERT_TRUE(t.connect());
  t.start_polling();
  t.cluster.engine().run_for(millis(1));  // drain what connecting left
  const core::ContextStats before = t.client.stats();
  constexpr std::uint64_t kIntervals = 1000;
  t.cluster.engine().run_for(static_cast<Nanos>(kIntervals) *
                             cfg.busy_poll_interval);
  const core::ContextStats& after = t.client.stats();
  EXPECT_EQ(after.polls - before.polls, kIntervals);
  EXPECT_EQ(after.empty_polls - before.empty_polls, kIntervals);
  EXPECT_EQ(after.events_processed, before.events_processed);
  EXPECT_EQ(after.slow_polls, 0u);
  EXPECT_EQ(after.worst_poll_gap, cfg.busy_poll_interval);
}

TEST(Robustness, StalledEmptyPollTripsTheWatchdogOnce) {
  Config cfg;
  cfg.keepalive_intv = millis(100);
  cfg.polling_warn_cycle = micros(200);
  Pair t(cfg);  // no polling loops: polls are manual
  ASSERT_TRUE(t.connect());
  while (t.client.polling() > 0) {
  }
  const core::ContextStats before = t.client.stats();
  t.cluster.engine().run_for(millis(2));  // 2 ms gap >> 200 us threshold
  EXPECT_EQ(t.client.polling(), 0);
  const core::ContextStats& after = t.client.stats();
  EXPECT_EQ(after.polls - before.polls, 1u);
  EXPECT_EQ(after.empty_polls - before.empty_polls, 1u);
  EXPECT_EQ(after.slow_polls - before.slow_polls, 1u);
  EXPECT_EQ(after.watchdog_trips - before.watchdog_trips, 1u);
  EXPECT_EQ(after.worst_poll_gap, millis(2));
}

TEST(Robustness, ChannelsSurviveLongIdleWithKeepalive) {
  Config cfg;
  cfg.keepalive_intv = millis(3);
  Pair t(cfg);
  ASSERT_TRUE(t.connect());
  t.start_polling();
  t.cluster.engine().run_for(millis(300));  // 100 keepalive periods
  EXPECT_EQ(t.client_ch->state(), Channel::State::established);
  EXPECT_EQ(t.server_ch->state(), Channel::State::established);
  EXPECT_GT(t.client_ch->stats().keepalive_probes, 50u);
  // And traffic still flows afterwards.
  int got = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++got; });
  t.client_ch->send_msg(Buffer::make(100));
  t.cluster.engine().run_for(millis(5));
  EXPECT_EQ(got, 1);
}

TEST(Robustness, BidirectionalRpcUnderLoad) {
  Pair t;
  ASSERT_TRUE(t.connect());
  t.start_polling();
  int server_ok = 0, client_ok = 0;
  t.server_ch->set_on_msg([&](Channel& ch, Msg&& m) {
    if (m.is_rpc_req) ch.reply(m.rpc_id, Buffer::make(m.payload.size()));
  });
  t.client_ch->set_on_msg([&](Channel& ch, Msg&& m) {
    if (m.is_rpc_req) ch.reply(m.rpc_id, Buffer::make(64));
  });
  for (int i = 0; i < 100; ++i) {
    t.client_ch->call(Buffer::make(static_cast<std::size_t>(i * 331) % 30000),
                      [&](Result<Msg> r) {
                        if (r.ok()) ++client_ok;
                      });
    t.server_ch->call(Buffer::make(128), [&](Result<Msg> r) {
      if (r.ok()) ++server_ok;
    });
  }
  t.cluster.engine().run_for(millis(100));
  EXPECT_EQ(client_ok, 100);
  EXPECT_EQ(server_ok, 100);
}

}  // namespace
}  // namespace xrdma

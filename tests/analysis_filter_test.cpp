// Fault-injection subsystem (Filter, §VI-C): one unit test per fault kind,
// plus a seeded soak across multiple channels (drops, delays, QP kills)
// asserting exactly-once in-order delivery and zero leaked memory blocks.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "analysis/filter.hpp"
#include "core/context.hpp"
#include "pair.hpp"

namespace xrdma::analysis {
namespace {

using core::Channel;
using core::Config;
using core::Context;
using core::Msg;

using test::Pair;

TEST(Filter, IngressDropStallsInOrderDeliveryUntilRecoveryRedelivers) {
  Pair t;
  t.establish();
  // Ingress faults live on the RECEIVING context; the QP kill that flushes
  // the loss goes through a filter on the sender.
  Filter rx_filter(t.server, /*seed=*/101);
  Filter tx_filter(t.client, /*seed=*/102);
  rx_filter.add_rule({FaultKind::ingress_drop, 1.0, 0, /*budget=*/1, 0});

  std::vector<std::size_t> got;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { got.push_back(m.payload.size()); });
  const std::vector<std::size_t> plan = {11, 12, 13, 14, 15};
  for (std::size_t s : plan) t.client_ch->send_msg(Buffer::make(s));
  t.run(millis(5));

  // The first message was dropped on ingress; seq-ack in-order delivery
  // means NOTHING is handed to the app past the gap.
  EXPECT_EQ(rx_filter.injected(FaultKind::ingress_drop), 1u);
  EXPECT_EQ(t.server_ch->stats().filtered_drops, 1u);
  EXPECT_TRUE(got.empty());

  // Recovery retransmits everything unacked from the send window in order.
  tx_filter.kill_qp(*t.client_ch);
  t.run(millis(50));
  EXPECT_EQ(got, plan);
}

TEST(Filter, IngressDelayReordersWireButDeliveryStaysInOrder) {
  Pair t;
  t.establish();
  Filter rx_filter(t.server, /*seed=*/7);
  rx_filter.add_rule(
      {FaultKind::ingress_delay, 1.0, 0, /*budget=*/3, micros(300)});

  std::vector<std::size_t> got;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { got.push_back(m.payload.size()); });
  const std::vector<std::size_t> plan = {21, 22, 23, 24, 25, 26};
  for (std::size_t s : plan) t.client_ch->send_msg(Buffer::make(s));
  t.run(millis(10));

  EXPECT_EQ(rx_filter.injected(FaultKind::ingress_delay), 3u);
  EXPECT_EQ(got, plan);  // receive window re-orders
}

TEST(Filter, IngressCorruptFlipsOneByteAndSystemConverges) {
  // This test pins the LEGACY behaviour of a corrupted frame — damage is
  // delivered (or stalls as a bad header) and only a recovery pass heals
  // it — so it runs with the integrity plane off. CRC-on behaviour
  // (detect, NAK, retransmit pristine) lives in channel_integrity_test.
  Config cfg;
  cfg.e2e_crc = false;
  Pair t(cfg);
  t.establish();
  Filter rx_filter(t.server, /*seed=*/31);
  Filter tx_filter(t.client, /*seed=*/32);
  rx_filter.add_rule({FaultKind::ingress_corrupt, 1.0, 0, /*budget=*/1, 0});

  Buffer original = Buffer::make(4096);
  fill_pattern(original, 9);
  std::vector<Buffer> got;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { got.push_back(std::move(m.payload)); });
  t.client_ch->send_msg(original.clone());
  t.client_ch->send_msg(Buffer::make(64));
  t.run(millis(5));
  EXPECT_EQ(rx_filter.injected(FaultKind::ingress_corrupt), 1u);

  // The flip lands in one pseudorandom byte: payload delivered damaged, or
  // the header was poisoned (counted bad) and the message is stalled. A
  // recovery pass converges either way.
  tx_filter.kill_qp(*t.client_ch);
  t.run(millis(50));
  ASSERT_EQ(got.size(), 2u);
  ASSERT_EQ(got[0].size(), original.size());
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    if (got[0].data()[i] != original.data()[i]) ++diffs;
  }
  const bool header_hit = t.server_ch->stats().bad_messages > 0;
  EXPECT_TRUE(diffs == 1 || (header_hit && diffs == 0));
  EXPECT_EQ(got[1].size(), 64u);
}

TEST(Filter, EgressDropLeavesEntryInWindowForRetransmit) {
  Pair t;
  t.establish();
  Filter tx_filter(t.client, /*seed=*/55);
  tx_filter.add_rule({FaultKind::egress_drop, 1.0, 0, /*budget=*/1, 0});

  std::vector<std::size_t> got;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { got.push_back(m.payload.size()); });
  const std::vector<std::size_t> plan = {31, 32, 33, 34};
  for (std::size_t s : plan) t.client_ch->send_msg(Buffer::make(s));
  t.run(millis(5));

  // First message never hit the wire; later ones arrived but wait in the
  // receive window behind the gap.
  EXPECT_EQ(tx_filter.injected(FaultKind::egress_drop), 1u);
  EXPECT_EQ(t.client_ch->stats().egress_drops, 1u);
  EXPECT_TRUE(got.empty());

  tx_filter.kill_qp(*t.client_ch);
  t.run(millis(50));
  EXPECT_EQ(got, plan);
}

TEST(Filter, EgressDelayAndCorruptAreInjectedAndSurvivable) {
  Pair t;
  t.establish();
  Filter tx_filter(t.client, /*seed=*/77);
  tx_filter.add_rule(
      {FaultKind::egress_delay, 1.0, 0, /*budget=*/2, micros(200)});

  int got = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++got; });
  t.client_ch->send_msg(Buffer::make(100));
  t.client_ch->send_msg(Buffer::make(100));
  t.run(millis(5));
  EXPECT_EQ(tx_filter.injected(FaultKind::egress_delay), 2u);
  EXPECT_EQ(got, 2);

  tx_filter.add_rule({FaultKind::egress_corrupt, 1.0, 0, /*budget=*/1, 0});
  t.client_ch->send_msg(Buffer::make(4096));
  t.run(millis(5));
  EXPECT_EQ(tx_filter.injected(FaultKind::egress_corrupt), 1u);

  // Whatever the flipped byte hit, the channel heals after one kill.
  tx_filter.kill_qp(*t.client_ch);
  t.run(millis(50));
  t.client_ch->send_msg(Buffer::make(10));
  t.run(millis(5));
  EXPECT_GE(got, 3);
  EXPECT_EQ(t.client_ch->state(), Channel::State::established);
}

TEST(Filter, QpKillAfterFiresOnceAndTriggersRecovery) {
  Pair t;
  t.establish();
  Filter filter(t.client, /*seed=*/13);
  filter.kill_qp_after(t.client_ch->id(), micros(500));
  int got = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++got; });
  for (int i = 0; i < 4; ++i) t.client_ch->send_msg(Buffer::make(50));
  t.run(millis(50));
  EXPECT_EQ(filter.injected(FaultKind::qp_kill), 1u);
  EXPECT_EQ(t.client_ch->stats().recoveries_completed, 1u);
  EXPECT_EQ(got, 4);
}

TEST(Filter, CmRefuseAndTimeoutFailConnectsWithTrueErrors) {
  Pair t;
  t.establish();  // port 7000 listener stays up
  Filter filter(t.client, /*seed=*/19);

  filter.add_rule({FaultKind::cm_refuse, 1.0, 0, /*budget=*/1, 0});
  Errc refused = Errc::ok;
  t.client.connect(1, 7000, [&](Result<Channel*> r) {
    refused = r.ok() ? Errc::ok : r.error();
  });
  t.run(millis(10));
  EXPECT_EQ(refused, Errc::connection_refused);
  EXPECT_EQ(filter.injected(FaultKind::cm_refuse), 1u);

  filter.add_rule({FaultKind::cm_timeout, 1.0, 0, /*budget=*/1, 0});
  Errc timed = Errc::ok;
  t.client.connect(1, 7000, [&](Result<Channel*> r) {
    timed = r.ok() ? Errc::ok : r.error();
  });
  t.run(millis(20));
  EXPECT_EQ(timed, Errc::timed_out);
  EXPECT_EQ(filter.injected(FaultKind::cm_timeout), 1u);

  // Budgets exhausted: the next connect goes through clean.
  bool ok = false;
  t.client.connect(1, 7000, [&](Result<Channel*> r) { ok = r.ok(); });
  t.run(millis(20));
  EXPECT_TRUE(ok);
}

TEST(Filter, RulesCanBeChannelScoped) {
  Pair t;
  t.establish();
  Channel* second_client = nullptr;
  Channel* second_server = nullptr;
  t.server.listen(7100, [&](Channel& ch) { second_server = &ch; });
  t.client.connect(1, 7100, [&](Result<Channel*> r) {
    ASSERT_TRUE(r.ok());
    second_client = r.value();
  });
  t.run(millis(20));
  ASSERT_NE(second_client, nullptr);
  ASSERT_NE(second_server, nullptr);

  Filter rx_filter(t.server, /*seed=*/3);
  // Drop only what arrives on the FIRST server channel.
  rx_filter.add_rule(
      {FaultKind::ingress_drop, 1.0, t.server_ch->id(), /*budget=*/-1, 0});

  int got_first = 0, got_second = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++got_first; });
  second_server->set_on_msg([&](Channel&, Msg&&) { ++got_second; });
  t.client_ch->send_msg(Buffer::make(40));
  second_client->send_msg(Buffer::make(40));
  t.run(millis(5));
  EXPECT_EQ(got_first, 0);
  EXPECT_EQ(got_second, 1);
}

TEST(Filter, SeededSoakWithQpKillsDeliversExactlyOnceInOrderNoLeaks) {
  Config cfg;
  Pair t(cfg);
  std::vector<Channel*> server_chs;
  t.server.listen(7200, [&](Channel& ch) { server_chs.push_back(&ch); });
  std::vector<Channel*> client_chs;
  for (int c = 0; c < 3; ++c) {
    t.client.connect(1, 7200, [&](Result<Channel*> r) {
      ASSERT_TRUE(r.ok());
      client_chs.push_back(r.value());
    });
  }
  t.run(millis(30));
  ASSERT_EQ(client_chs.size(), 3u);
  ASSERT_EQ(server_chs.size(), 3u);
  t.server.config().poll_mode = core::PollMode::busy;
  t.client.config().poll_mode = core::PollMode::busy;
  t.server.start_polling_loop();
  t.client.start_polling_loop();

  const std::uint64_t rx_baseline = t.server.data_cache().stats().in_use_bytes;
  const std::uint64_t tx_baseline = t.client.data_cache().stats().in_use_bytes;

  // Per-channel payloads carry (channel, index) so exactly-once AND order
  // can be checked end to end. A third of the messages go rendezvous.
  std::vector<std::vector<std::uint32_t>> received(3);
  for (int c = 0; c < 3; ++c) {
    server_chs[c]->set_on_msg([&received, c](Channel&, Msg&& m) {
      std::uint32_t idx = 0;
      ASSERT_GE(m.payload.size(), 4u);
      std::memcpy(&idx, m.payload.data(), 4);
      received[static_cast<std::size_t>(c)].push_back(idx);
    });
  }

  Filter rx_filter(t.server, /*seed=*/501);   // data-path drops at the sink
  Filter tx_filter(t.client, /*seed=*/502);   // kills + delays at the source
  rx_filter.add_rule({FaultKind::ingress_drop, 0.03, 0, /*budget=*/-1, 0});
  tx_filter.add_rule(
      {FaultKind::ingress_delay, 0.1, 0, /*budget=*/-1, micros(150)});
  // Six QP kills, every 15 ms, round-robin over the channels: each channel
  // is killed twice, and each kill lands after the last one healed.
  for (int k = 0; k < 6; ++k) {
    tx_filter.kill_qp_after(client_chs[static_cast<std::size_t>(k % 3)]->id(),
                            millis(3 + 15 * k));
  }

  const std::uint32_t kPerChannel = 40;
  for (std::uint32_t i = 0; i < kPerChannel; ++i) {
    for (int c = 0; c < 3; ++c) {
      const std::size_t len = (i % 3 == 1) ? 120000 + i : 64 + i;
      Buffer b = Buffer::make(len);
      std::memcpy(b.data(), &i, 4);
      client_chs[static_cast<std::size_t>(c)]->send_msg(std::move(b));
    }
  }
  t.run(millis(120));
  EXPECT_EQ(tx_filter.injected(FaultKind::qp_kill), 6u);

  // Stop injecting losses, then force one last recovery pass per channel so
  // everything still parked in a send window gets retransmitted.
  rx_filter.clear();
  tx_filter.clear();
  for (Channel* ch : client_chs) {
    if (ch->usable()) tx_filter.kill_qp(*ch);
  }
  t.run(millis(150));

  for (std::size_t c = 0; c < 3; ++c) {
    ASSERT_EQ(received[c].size(), kPerChannel) << "channel " << c;
    for (std::uint32_t i = 0; i < kPerChannel; ++i) {
      ASSERT_EQ(received[c][i], i) << "channel " << c << " slot " << i;
    }
    EXPECT_EQ(client_chs[c]->state(), Channel::State::established);
  }
  // Zero leaked blocks: all rendezvous pull buffers and zero-copy payloads
  // returned to the cache once delivered/acked.
  EXPECT_EQ(t.server.data_cache().stats().in_use_bytes, rx_baseline);
  EXPECT_EQ(t.client.data_cache().stats().in_use_bytes, tx_baseline);
}

}  // namespace
}  // namespace xrdma::analysis

// Parameterized end-to-end sweeps: content integrity across the size
// spectrum and both transfer modes, window depths, SRQ on/off, and trace
// sampling — plus the Table I free-function veneer and channel lifecycle
// edges.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "common/rng.hpp"
#include "core/api.hpp"
#include "core/context.hpp"
#include "test_seed.hpp"
#include "pair.hpp"

namespace xrdma::core {
namespace {

using test::Pair;

// ---------------------------------------------------------------------------
// Sweep 1: payload size x window depth x srq — exact content, exact count.

using SweepParam = std::tuple<std::size_t /*size*/, std::uint32_t /*window*/,
                              bool /*srq*/>;

class EndToEndSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(EndToEndSweep, ContentExactlyOnceInOrder) {
  const auto [size, window, srq] = GetParam();
  XRDMA_CASE_SEED(seed);
  Rng rng(seed);
  Config cfg;
  cfg.window_depth = window;
  cfg.use_srq = srq;
  Pair t(cfg);
  t.establish();
  ASSERT_NE(t.client_ch, nullptr);
  ASSERT_NE(t.server_ch, nullptr);

  // Per-message content keys come from the case RNG, so every run of a
  // case checks the same bytes and a failure names the seed to replay.
  const int count = 8 + static_cast<int>(rng.next_below(9));
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < count; ++i) keys.push_back(rng.next_u64());
  int got = 0;
  bool content_ok = true;
  std::uint64_t expected_seq = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&& m) {
    if (m.seq != expected_seq++) content_ok = false;
    if (m.payload.size() != size) content_ok = false;
    if (m.seq >= keys.size() || !check_pattern(m.payload, keys[m.seq])) {
      content_ok = false;
    }
    ++got;
  });
  for (int i = 0; i < count; ++i) {
    Buffer b = Buffer::make(size);
    fill_pattern(b, keys[static_cast<std::size_t>(i)]);
    ASSERT_EQ(t.client_ch->send_msg(std::move(b)), Errc::ok);
  }
  t.cluster.engine().run_for(millis(150));
  EXPECT_EQ(got, count);
  EXPECT_TRUE(content_ok);
  EXPECT_EQ(t.cluster.rnic(1).stats().rnr_naks_sent, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, EndToEndSweep,
    ::testing::Values(
        // Eager path, window variants.
        SweepParam{0, 64, false}, SweepParam{1, 64, false},
        SweepParam{63, 4, false}, SweepParam{4096, 64, false},
        // Rendezvous path (above the 4 KB default threshold).
        SweepParam{4097, 64, false}, SweepParam{65536, 64, false},
        SweepParam{262144, 8, false}, SweepParam{1048576, 64, false},
        // Exactly MTU-aligned edges.
        SweepParam{4095, 64, false}, SweepParam{8192, 2, false},
        // SRQ mode across both paths.
        SweepParam{512, 64, true}, SweepParam{131072, 64, true}));

// ---------------------------------------------------------------------------
// Sweep 2: RPC echo across sizes (requests and responses on both paths).

class RpcSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RpcSweep, EchoPreservesContentBothDirections) {
  const std::size_t size = GetParam();
  XRDMA_CASE_SEED(seed);
  Rng rng(seed);
  const std::uint64_t key = rng.next_u64();
  Pair t;
  t.establish();
  t.server_ch->set_on_msg([](Channel& ch, Msg&& m) {
    ASSERT_TRUE(m.is_rpc_req);
    ch.reply(m.rpc_id, std::move(m.payload));  // echo
  });
  Buffer req = Buffer::make(size);
  fill_pattern(req, key);
  bool ok = false;
  t.client_ch->call(std::move(req), [&](Result<Msg> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().payload.size(), size);
    EXPECT_TRUE(check_pattern(r.value().payload, key));
    ok = true;
  });
  t.cluster.engine().run_for(millis(100));
  EXPECT_TRUE(ok);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RpcSweep,
                         ::testing::Values(0, 1, 100, 4096, 5000, 40000,
                                           500000));

// ---------------------------------------------------------------------------
// Trace sampling.

TEST(TraceSampling, MaskSelectsSubsetOfMessages) {
  Config cfg;
  cfg.trace_sample_mask = 3;  // trace when (seq & 3) == 0: every 4th
  Pair t(cfg);
  t.establish();
  int traced = 0, total = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&& m) {
    ++total;
    if (m.traced) ++traced;
  });
  for (int i = 0; i < 32; ++i) t.client_ch->send_msg(Buffer::make(16));
  t.cluster.engine().run_for(millis(20));
  EXPECT_EQ(total, 32);
  EXPECT_EQ(traced, 8);
}

TEST(TraceSampling, BareDataTracesNothing) {
  Pair t;
  t.establish();
  int traced = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&& m) { traced += m.traced; });
  for (int i = 0; i < 8; ++i) t.client_ch->send_msg(Buffer::make(16));
  t.cluster.engine().run_for(millis(10));
  EXPECT_EQ(traced, 0);
}

// ---------------------------------------------------------------------------
// Table I veneer.

TEST(TableOneApi, VeneerCoversTheWholeSurface) {
  testbed::Cluster cluster;
  Context server(cluster.rnic(1), cluster.cm());
  Context client(cluster.rnic(0), cluster.cm());

  Channel* sch = nullptr;
  ASSERT_EQ(xrdma_listen(server, 7000, [&](Channel& ch) { sch = &ch; }),
            Errc::ok);
  Channel* cch = nullptr;
  xrdma_connect(client, 1, 7000,
                [&](Result<Channel*> r) { cch = r.value(); });
  cluster.engine().run_for(millis(20));
  ASSERT_NE(cch, nullptr);
  ASSERT_NE(sch, nullptr);

  // set_flag: switch into req-rsp mode online.
  ASSERT_EQ(xrdma_set_flag(client, "reqrsp_mode", 1), Errc::ok);

  // reg_mem + zero-copy send.
  MemBlock block = xrdma_reg_mem(client, 256);
  ASSERT_TRUE(block.valid());
  std::memset(client.mem_ptr(block), 0x5c, 256);

  Msg seen;
  bool got = false;
  sch->set_on_msg([&](Channel&, Msg&& m) {
    seen = std::move(m);
    got = true;
  });
  ASSERT_EQ(xrdma_send_msg(*cch, Buffer::from_string("tabled")), Errc::ok);

  // Drive with the polling / event-fd surface instead of loops.
  for (int i = 0; i < 2000 && !got; ++i) {
    cluster.engine().run_for(micros(5));
    xrdma_polling(client);
    xrdma_process_event(server);
  }
  ASSERT_TRUE(got);
  EXPECT_EQ(seen.payload.to_string(), "tabled");
  EXPECT_TRUE(seen.traced);  // reqrsp_mode was set online

  const TraceReport report = xrdma_trace_req(server, seen);
  EXPECT_TRUE(report.traced);
  EXPECT_GT(report.network_latency, 0);
  EXPECT_GE(xrdma_get_event_fd(client), 0);
  xrdma_dereg_mem(client, block);
}

// ---------------------------------------------------------------------------
// Lifecycle edges.

TEST(Lifecycle, SecondListenerOnDifferentPortCoexists) {
  Pair t;
  t.establish();
  Channel* aux = nullptr;
  ASSERT_EQ(t.server.listen(7001, [&](Channel& ch) { aux = &ch; }), Errc::ok);
  EXPECT_EQ(t.server.listen(7001, [](Channel&) {}), Errc::already_exists);
  Channel* c2 = nullptr;
  t.client.connect(1, 7001, [&](Result<Channel*> r) { c2 = r.value(); });
  t.cluster.engine().run_for(millis(20));
  ASSERT_NE(c2, nullptr);
  ASSERT_NE(aux, nullptr);
  int got = 0;
  aux->set_on_msg([&](Channel&, Msg&&) { ++got; });
  c2->send_msg(Buffer::make(8));
  t.cluster.engine().run_for(millis(5));
  EXPECT_EQ(got, 1);
}

TEST(Lifecycle, CloseWithQueuedTrafficDoesNotCrash) {
  Config cfg;
  cfg.window_depth = 2;
  Pair t(cfg);
  t.establish();
  t.server_ch->set_on_msg([](Channel&, Msg&&) {});
  for (int i = 0; i < 50; ++i) t.client_ch->send_msg(Buffer::make(1000));
  t.client_ch->close();  // queued messages beyond the window are dropped
  t.cluster.engine().run_for(millis(50));
  EXPECT_EQ(t.client_ch->state(), Channel::State::closed);
  EXPECT_EQ(t.client_ch->send_msg(Buffer::make(1)), Errc::channel_closed);
}

TEST(Lifecycle, RpcCallbacksFailWhenPeerCrashesMidCall) {
  Config cfg;
  cfg.keepalive_intv = millis(2);
  Pair t(cfg);
  t.establish();
  t.server_ch->set_on_msg([](Channel&, Msg&&) { /* never reply */ });
  std::vector<Errc> results;
  for (int i = 0; i < 5; ++i) {
    t.client_ch->call(Buffer::make(64),
                      [&](Result<Msg> r) { results.push_back(r.error()); },
                      seconds(10));  // long timeout: failure must come from
                                     // the dead-peer path, not expiry
  }
  t.cluster.engine().run_for(millis(2));
  t.cluster.host(1).set_alive(false);
  t.cluster.engine().run_for(millis(300));
  ASSERT_EQ(results.size(), 5u);
  for (const Errc e : results) EXPECT_EQ(e, Errc::peer_dead);
}

TEST(Lifecycle, ManyChannelsBetweenSameContexts) {
  XRDMA_CASE_SEED(seed);
  Rng rng(seed);
  Pair t;
  t.establish();
  std::vector<Channel*> extra;
  for (int i = 0; i < 16; ++i) {
    t.client.connect(1, 7000, [&](Result<Channel*> r) {
      if (r.ok()) extra.push_back(r.value());
    });
  }
  t.cluster.engine().run_for(millis(30));
  ASSERT_EQ(extra.size(), 16u);
  int got = 0;
  for (Channel* ch : t.server.channels()) {
    ch->set_on_msg([&](Channel&, Msg&&) { ++got; });
  }
  for (Channel* ch : extra) {
    // Random sizes across the eager/rendezvous cutoff keep the churn from
    // ossifying around one transfer mode.
    ch->send_msg(Buffer::make(1 + rng.next_below(12000)));
  }
  t.cluster.engine().run_for(millis(30));
  EXPECT_EQ(got, 16);
  EXPECT_EQ(t.server.num_channels(), 17u);
}

TEST(Lifecycle, MemBlockSurvivesUnrelatedChannelChurn) {
  Pair t;
  t.establish();
  MemBlock block = t.client.reg_mem(1024);
  std::uint8_t* p = t.client.mem_ptr(block);
  std::memset(p, 0xab, 1024);
  // Open/close a few channels (each churns the ctrl cache).
  for (int i = 0; i < 4; ++i) {
    Channel* ch = nullptr;
    t.client.connect(1, 7000, [&](Result<Channel*> r) { ch = r.value(); });
    t.cluster.engine().run_for(millis(10));
    ASSERT_NE(ch, nullptr);
    ch->close();
    t.cluster.engine().run_for(millis(5));
  }
  EXPECT_EQ(t.client.mem_ptr(block), p);
  EXPECT_EQ(p[1023], 0xab);
  t.client.dereg_mem(block);
}

}  // namespace
}  // namespace xrdma::core

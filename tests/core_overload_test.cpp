// Overload control: bounded tx queues with would_block/on_writable edges,
// graceful degradation when the MemCache starves (sender-side deferral,
// receiver-side rendezvous NAK), the memory-pressure ladder, and the
// deadline-aware eRPC shedding + client-backoff loop on top.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/erpc.hpp"
#include "core/context.hpp"
#include "testbed/cluster.hpp"

namespace xrdma::core {
namespace {

/// Like core_channel_test's Pair, but the two ends can run different
/// configs — overload tests starve exactly one side.
struct AsymPair {
  testbed::Cluster cluster;
  Context server;
  Context client;
  Channel* client_ch = nullptr;
  Channel* server_ch = nullptr;

  AsymPair(Config client_cfg, Config server_cfg,
           testbed::ClusterConfig ccfg = {})
      : cluster(ccfg),
        server(cluster.rnic(1), cluster.cm(), server_cfg),
        client(cluster.rnic(0), cluster.cm(), client_cfg) {}

  void establish(std::uint16_t port = 7000) {
    server.listen(port, [this](Channel& ch) { server_ch = &ch; });
    client.connect(1, port, [this](Result<Channel*> r) {
      ASSERT_TRUE(r.ok());
      client_ch = r.value();
    });
    cluster.engine().run_until(cluster.engine().now() + millis(20));
    ASSERT_NE(client_ch, nullptr);
    ASSERT_NE(server_ch, nullptr);
    server.config().poll_mode = PollMode::busy;
    client.config().poll_mode = PollMode::busy;
    server.start_polling_loop();
    client.start_polling_loop();
  }

  void run(Nanos d) { cluster.engine().run_until(cluster.engine().now() + d); }
};

TEST(Overload, BoundedQueueRejectsThenSignalsWritable) {
  Config cfg;
  cfg.window_depth = 2;
  cfg.tx_queue_max_msgs = 4;
  AsymPair t(cfg, cfg);
  t.establish();

  int delivered = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++delivered; });
  int writable_edges = 0;
  t.client_ch->set_on_writable([&](Channel&) { ++writable_edges; });

  // Window (2) + queue (4) admit 6; the 7th must bounce.
  int accepted = 0;
  Errc last = Errc::ok;
  for (int i = 0; i < 7; ++i) {
    last = t.client_ch->send_msg(Buffer::make(256));
    if (last == Errc::ok) ++accepted;
  }
  EXPECT_EQ(accepted, 6);
  EXPECT_EQ(last, Errc::would_block);
  EXPECT_GE(t.client_ch->stats().tx_would_block, 1u);

  // Draining below the low watermark fires exactly one writable edge.
  t.run(millis(5));
  EXPECT_EQ(delivered, 6);
  EXPECT_EQ(writable_edges, 1);
  EXPECT_EQ(t.client_ch->stats().writable_signals, 1u);

  // The edge re-arms on the next rejection, and sending works again.
  EXPECT_EQ(t.client_ch->send_msg(Buffer::make(256)), Errc::ok);
  t.run(millis(5));
  EXPECT_EQ(delivered, 7);
}

TEST(Overload, WouldBlockMidBurstKeepsAccumulatedChainIntact) {
  // The admission reject lands while earlier messages from the same burst
  // are still parked in the doorbell-batch accumulator: the reject must not
  // disturb the chain — every accepted message flushes and delivers, every
  // rejected one stays invisible (oracle 10), and the conservation ledger
  // balances with nothing left pending.
  Config cfg;
  cfg.window_depth = 4;
  cfg.tx_queue_max_msgs = 4;
  cfg.tx_batch_max_wrs = 16;  // wider than the whole admitted burst
  AsymPair t(cfg, cfg);
  t.establish();
  int delivered = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++delivered; });
  int accepted = 0, rejected = 0;
  for (int i = 0; i < 12; ++i) {
    const Errc rc = t.client_ch->send_msg(Buffer::make(128));
    if (rc == Errc::ok) ++accepted;
    if (rc == Errc::would_block) ++rejected;
  }
  EXPECT_EQ(accepted, 8);  // window (4) + queue (4)
  EXPECT_EQ(rejected, 4);
  t.run(millis(10));
  EXPECT_EQ(delivered, accepted);
  const ContextStats& ledger = t.client.stats();
  EXPECT_EQ(ledger.batch_accumulated,
            ledger.batch_posted + ledger.batch_deferred +
                ledger.batch_dropped + ledger.batch_pending);
  EXPECT_EQ(ledger.batch_pending, 0u);
  // The burst actually chained: doorbells carried more than one WR each.
  EXPECT_GT(t.client_ch->stats().doorbell_wrs,
            t.client_ch->stats().doorbells);
}

TEST(Overload, EmptyQueueAdmitsPayloadLargerThanByteCap) {
  Config cfg;
  cfg.window_depth = 1;
  cfg.tx_queue_max_bytes = 1024;
  AsymPair t(cfg, cfg);
  t.establish();

  int delivered = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++delivered; });

  // Occupy the window so the next sends queue rather than emit.
  ASSERT_EQ(t.client_ch->send_msg(Buffer::make(64)), Errc::ok);
  // Progress guarantee: an empty queue admits one message even though it
  // exceeds the byte cap outright...
  ASSERT_EQ(t.client_ch->send_msg(Buffer::make(8 * 1024)), Errc::ok);
  // ...but nothing may join behind the oversized head.
  EXPECT_EQ(t.client_ch->send_msg(Buffer::make(64)), Errc::would_block);

  t.run(millis(10));
  EXPECT_EQ(delivered, 2);  // backpressure is not loss
}

TEST(Overload, AggregateContextCapSpansChannels) {
  Config cfg;
  cfg.window_depth = 1;
  cfg.ctx_tx_max_bytes = 4 * 1024;
  testbed::Cluster cluster(testbed::ClusterConfig::rack(3));
  Context receiver_a(cluster.rnic(1), cluster.cm(), cfg);
  Context receiver_b(cluster.rnic(2), cluster.cm(), cfg);
  Context sender(cluster.rnic(0), cluster.cm(), cfg);
  Channel* ch_a = nullptr;
  Channel* ch_b = nullptr;
  receiver_a.listen(7000, [](Channel&) {});
  receiver_b.listen(7000, [](Channel&) {});
  sender.connect(1, 7000, [&](Result<Channel*> r) { ch_a = r.value(); });
  sender.connect(2, 7000, [&](Result<Channel*> r) { ch_b = r.value(); });
  cluster.engine().run_until(cluster.engine().now() + millis(20));
  ASSERT_NE(ch_a, nullptr);
  ASSERT_NE(ch_b, nullptr);

  // Fill channel A's queue to the aggregate cap (window holds one extra).
  ASSERT_EQ(ch_a->send_msg(Buffer::make(512)), Errc::ok);
  ASSERT_EQ(ch_a->send_msg(Buffer::make(3 * 1024)), Errc::ok);
  ASSERT_EQ(ch_a->send_msg(Buffer::make(1024)), Errc::ok);
  EXPECT_EQ(sender.queued_tx_bytes(), 4u * 1024);
  // Channel B is empty, but the *context* budget is spent: its first
  // queued message still passes (empty-queue progress rule), the second
  // hits the aggregate cap.
  ASSERT_EQ(ch_b->send_msg(Buffer::make(512)), Errc::ok);   // into window
  ASSERT_EQ(ch_b->send_msg(Buffer::make(512)), Errc::ok);   // empty queue
  EXPECT_EQ(ch_b->send_msg(Buffer::make(512)), Errc::would_block);
  EXPECT_GE(ch_b->stats().tx_would_block, 1u);
}

TEST(Overload, StarvedSenderCacheDefersInsteadOfFailing) {
  // Satellite audit: every MemCache::alloc failure inside the channel tx
  // path must degrade to a deferred retry, never fail() the channel. A
  // one-MR data cache serializes rendezvous payload staging.
  Config cfg;
  cfg.memcache_mr_bytes = 64 * 1024;
  cfg.memcache_max_mrs = 1;
  AsymPair t(cfg, Config{});
  t.establish();

  int delivered = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&& m) {
    if (m.payload.size() == 24 * 1024) ++delivered;
  });
  // Three rendezvous messages need 72 KB of staging — more than the whole
  // pool. The pool only frees as acks retire entries, so at least one send
  // must hit the alloc-failure path and park.
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(t.client_ch->send_msg(Buffer::make(24 * 1024)), Errc::ok);
  }
  t.run(millis(20));
  EXPECT_EQ(delivered, 3);
  EXPECT_GE(t.client_ch->stats().tx_mem_deferrals, 1u);
  EXPECT_TRUE(t.client_ch->usable());
  EXPECT_EQ(t.client.stats().channel_errors, 0u);
}

TEST(Overload, StarvedReceiverNaksPullAndRecovers) {
  // Receiver-side rendezvous exhaustion: the descriptor is NAK'd with a
  // retry-after hint instead of failing the channel, and the pull resumes
  // once memory frees. Exactly-once still holds.
  Config rcfg;
  rcfg.memcache_mr_bytes = 64 * 1024;
  rcfg.memcache_max_mrs = 1;
  AsymPair t(Config{}, rcfg);
  t.establish();

  std::vector<std::size_t> sizes;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { sizes.push_back(m.payload.size()); });
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(t.client_ch->send_msg(Buffer::make(40 * 1024)), Errc::ok);
  }
  t.run(millis(30));
  ASSERT_EQ(sizes.size(), 4u);
  for (std::size_t s : sizes) EXPECT_EQ(s, 40u * 1024);
  EXPECT_GE(t.server_ch->stats().pulls_deferred, 1u);
  EXPECT_GE(t.server_ch->stats().naks_tx, 1u);
  EXPECT_EQ(t.client_ch->stats().naks_rx, t.server_ch->stats().naks_tx);
  EXPECT_TRUE(t.server_ch->usable());
}

TEST(Overload, PressureLadderShedsNewWorkUnderHardPressure) {
  Config cfg;
  cfg.memcache_mr_bytes = 64 * 1024;
  cfg.memcache_max_mrs = 4;  // 256 KB budget
  cfg.memcache_isolation = false;  // guard bands would fragment the pinning
  cfg.mem_soft_pct = 50;
  cfg.mem_hard_pct = 80;
  AsymPair t(cfg, Config{});
  t.establish();

  EXPECT_EQ(t.client.mem_pressure(), MemPressure::normal);
  // Pin data-cache memory directly to climb the ladder without traffic.
  std::vector<MemBlock> pinned;
  while (t.client.data_cache().stats().in_use_bytes * 100 <
         t.client.data_cache().budget_bytes() * 80) {
    MemBlock b = t.client.data_cache().alloc(16 * 1024);
    ASSERT_TRUE(b.valid());
    pinned.push_back(b);
  }
  EXPECT_EQ(t.client.mem_pressure(), MemPressure::hard);

  // Hard pressure sheds brand-new data work...
  EXPECT_EQ(t.client_ch->send_msg(Buffer::make(128)), Errc::would_block);
  EXPECT_GE(t.client_ch->stats().tx_shed, 1u);
  // ...but the scan tick records the transition and the channel recovers
  // as soon as the pressure clears.
  t.run(millis(2));
  EXPECT_GE(t.client.stats().pressure_hard_events, 1u);
  for (const auto& b : pinned) t.client.data_cache().free(b);
  EXPECT_EQ(t.client.mem_pressure(), MemPressure::normal);
  int delivered = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++delivered; });
  EXPECT_EQ(t.client_ch->send_msg(Buffer::make(128)), Errc::ok);
  t.run(millis(5));
  EXPECT_EQ(delivered, 1);
}

TEST(Overload, ServerShedsDoomedRequestsAndClientBacksOff) {
  testbed::Cluster cluster;
  Config cfg;
  Context server_ctx(cluster.rnic(1), cluster.cm(), cfg);
  Context client_ctx(cluster.rnic(0), cluster.cm(), cfg);
  apps::erpc::Server server(server_ctx, 7100);
  constexpr apps::erpc::MethodId kSlow = 7;
  // A handler that takes a known 500 µs: responses are delayed through the
  // engine so the service-time histogram sees real durations.
  server.register_method(kSlow, [&](apps::erpc::Server::Call call) {
    auto respond = std::move(call.respond);
    cluster.engine().schedule_after(
        micros(500), [respond = std::move(respond)] { respond(Buffer{}); });
  });
  apps::erpc::ClientStub stub(client_ctx, 1, 7100);
  bool up = false;
  stub.connect([&](Errc e) { up = e == Errc::ok; });
  cluster.engine().run_until(cluster.engine().now() + millis(20));
  ASSERT_TRUE(up);
  server_ctx.config().poll_mode = PollMode::busy;
  client_ctx.config().poll_mode = PollMode::busy;
  server_ctx.start_polling_loop();
  client_ctx.start_polling_loop();
  auto run = [&](Nanos d) {
    cluster.engine().run_until(cluster.engine().now() + d);
  };

  // Warm the estimator: shedding stays off until p50 has enough samples.
  int ok_count = 0;
  for (int i = 0; i < 12; ++i) {
    stub.call(kSlow, Buffer{}, [&](Result<Buffer> r) {
      if (r.ok()) ++ok_count;
    });
    run(millis(2));
  }
  EXPECT_EQ(ok_count, 12);
  EXPECT_EQ(server.calls_shed(), 0u);

  // A 100 µs budget cannot cover a 500 µs service time: the server sheds
  // on arrival and the client's retry loop gives up at the deadline with
  // the shed verdict, never a handler response.
  stub.set_retry_backoff(micros(20));
  Errc verdict = Errc::ok;
  bool done = false;
  stub.call(kSlow, Buffer{}, [&](Result<Buffer> r) {
    done = true;
    verdict = r.ok() ? Errc::ok : r.error();
  }, micros(100));
  run(millis(5));
  ASSERT_TRUE(done);
  EXPECT_EQ(verdict, Errc::overloaded);
  EXPECT_GE(server.calls_shed(), 1u);
  EXPECT_GE(stub.retries(), 1u);

  // A generous budget passes untouched.
  bool ok_again = false;
  stub.call(kSlow, Buffer{}, [&](Result<Buffer> r) { ok_again = r.ok(); },
            millis(50));
  run(millis(5));
  EXPECT_TRUE(ok_again);
}

}  // namespace
}  // namespace xrdma::core

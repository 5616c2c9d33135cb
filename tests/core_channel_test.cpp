// End-to-end middleware behaviour: connection establishment over CM,
// small/large messages, RPC with Read-replace-Write responses, seq-ack
// acking, RNR-freedom under a slow receiver, keepalive peer-death
// detection, FIN close with QP recycling, flow-control queuing, SRQ mode,
// fault injection, and zero-copy sends.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "analysis/filter.hpp"
#include "core/context.hpp"
#include "tools/xr_adm.hpp"
#include "pair.hpp"

namespace xrdma::core {
namespace {

using test::Pair;

TEST(Channel, EstablishesAndExchangesSmallMessages) {
  Pair t;
  t.establish();
  std::vector<std::string> got;
  t.server_ch->set_on_msg([&](Channel& ch, Msg&& m) {
    got.push_back(m.payload.to_string());
    ch.send_msg(Buffer::from_string("pong:" + m.payload.to_string()));
  });
  std::vector<std::string> replies;
  t.client_ch->set_on_msg(
      [&](Channel&, Msg&& m) { replies.push_back(m.payload.to_string()); });

  t.client_ch->send_msg(Buffer::from_string("a"));
  t.client_ch->send_msg(Buffer::from_string("b"));
  t.run(millis(2));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "a");
  EXPECT_EQ(got[1], "b");
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0], "pong:a");
  EXPECT_EQ(replies[1], "pong:b");
}

TEST(Channel, LargeMessageGoesRendezvousAndDeliversContent) {
  Pair t;
  t.establish();
  const std::size_t len = 512 * 1024;  // well above small_msg_size
  Buffer big = Buffer::make(len);
  fill_pattern(big, 42);

  Buffer received;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { received = std::move(m.payload); });
  t.client_ch->send_msg(big.clone());
  t.run(millis(5));

  ASSERT_EQ(received.size(), len);
  EXPECT_TRUE(check_pattern(received, 42));
  EXPECT_EQ(t.client_ch->stats().large_msgs_tx, 1u);
  EXPECT_EQ(t.server_ch->stats().large_msgs_rx, 1u);
  EXPECT_GT(t.server_ch->stats().reads_issued, 1u);  // fragmented pull
}

TEST(Channel, SmallAndLargeInterleavedStayInOrder) {
  Pair t;
  t.establish();
  std::vector<std::size_t> sizes;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { sizes.push_back(m.payload.size()); });
  const std::vector<std::size_t> plan = {10, 100000, 20, 5, 300000, 1, 8192};
  for (std::size_t s : plan) t.client_ch->send_msg(Buffer::make(s));
  t.run(millis(10));
  EXPECT_EQ(sizes, plan);  // seq-ack delivery order == send order
}

TEST(Channel, RpcRoundTripMatchesById) {
  Pair t;
  t.establish();
  t.server_ch->set_on_msg([&](Channel& ch, Msg&& m) {
    ASSERT_TRUE(m.is_rpc_req);
    ch.reply(m.rpc_id, Buffer::from_string("resp:" + m.payload.to_string()));
  });
  std::vector<std::string> responses;
  for (int i = 0; i < 3; ++i) {
    t.client_ch->call(Buffer::from_string("req" + std::to_string(i)),
                      [&](Result<Msg> r) {
                        ASSERT_TRUE(r.ok());
                        responses.push_back(r.value().payload.to_string());
                      });
  }
  t.run(millis(5));
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0], "resp:req0");
  EXPECT_EQ(responses[2], "resp:req2");
  EXPECT_EQ(t.client_ch->stats().rpc_calls, 3u);
}

TEST(Channel, LargeRpcResponseUsesReadReplaceWrite) {
  // §IV-C: the requester pulls big responses with RDMA Read instead of the
  // responder pushing an over-sized Write.
  Pair t;
  t.establish();
  const std::size_t len = 1u << 20;
  t.server_ch->set_on_msg([&](Channel& ch, Msg&& m) {
    Buffer rsp = Buffer::make(len);
    fill_pattern(rsp, 7);
    ch.reply(m.rpc_id, std::move(rsp));
  });
  bool done = false;
  t.client_ch->call(Buffer::from_string("gimme"), [&](Result<Msg> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().payload.size(), len);
    EXPECT_TRUE(check_pattern(r.value().payload, 7));
    done = true;
  });
  t.run(millis(10));
  EXPECT_TRUE(done);
  // The *requester* (client) issued the reads for the response payload.
  EXPECT_GT(t.client_ch->stats().reads_issued, 0u);
  EXPECT_EQ(t.server_ch->stats().large_msgs_tx, 1u);
}

TEST(Channel, RpcTimesOutWhenServerIgnoresRequest) {
  Pair t;
  t.establish();
  t.server_ch->set_on_msg([](Channel&, Msg&&) { /* never reply */ });
  Errc err = Errc::ok;
  t.client_ch->call(Buffer::from_string("x"),
                    [&](Result<Msg> r) { err = r.error(); },
                    /*timeout=*/millis(3));
  t.run(millis(10));
  EXPECT_EQ(err, Errc::timed_out);
  EXPECT_EQ(t.client_ch->stats().rpc_timeouts, 1u);
}

TEST(Channel, WindowLimitsInflightAndQueuesExcess) {
  Config cfg;
  cfg.window_depth = 4;
  Pair t(cfg);
  t.establish();
  int delivered = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++delivered; });
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(t.client_ch->send_msg(Buffer::make(64)), Errc::ok);
  }
  EXPECT_LE(t.client_ch->inflight_msgs(), 4u);
  EXPECT_GT(t.client_ch->stats().window_stalls, 0u);
  t.run(millis(20));
  EXPECT_EQ(delivered, 50);
  EXPECT_EQ(t.client_ch->inflight_msgs(), 0u);  // everything acked
}

TEST(Channel, RnrFreeEvenWithTinyWindowAndBurst) {
  // The RNR-free guarantee (§V-B): no RNR NAK ever appears at the RNIC
  // level, because the window bounds in-flight sends below the pre-posted
  // receive credits.
  Config cfg;
  cfg.window_depth = 2;
  Pair t(cfg);
  t.establish();
  int delivered = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++delivered; });
  for (int i = 0; i < 200; ++i) t.client_ch->send_msg(Buffer::make(128));
  t.run(millis(50));
  EXPECT_EQ(delivered, 200);
  EXPECT_EQ(t.cluster.rnic(1).stats().rnr_naks_sent, 0u);
  EXPECT_EQ(t.cluster.rnic(0).stats().rnr_events, 0u);
}

TEST(Channel, StandaloneAckFlowsWhenTrafficIsOneWay) {
  Config cfg;
  cfg.ack_every = 4;
  Pair t(cfg);
  t.establish();
  int delivered = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++delivered; });
  for (int i = 0; i < 32; ++i) t.client_ch->send_msg(Buffer::make(32));
  t.run(millis(10));
  EXPECT_EQ(delivered, 32);
  // Server never sent data, so acks had to travel standalone.
  EXPECT_GT(t.server_ch->stats().acks_tx, 0u);
  EXPECT_GT(t.client_ch->stats().acks_rx, 0u);
}

TEST(Channel, DeadlockNopFlushesFinalAcks) {
  // With ack_every larger than the message count, the tail acks can only
  // leave via the NOP path (Algorithm 1 TIME_OUT).
  Config cfg;
  cfg.ack_every = 1000;
  cfg.window_depth = 8;
  Pair t(cfg);
  t.establish();
  int delivered = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++delivered; });
  for (int i = 0; i < 5; ++i) t.client_ch->send_msg(Buffer::make(16));
  t.run(millis(30));
  EXPECT_EQ(delivered, 5);
  EXPECT_EQ(t.client_ch->inflight_msgs(), 0u);  // acks arrived eventually
  EXPECT_GT(t.server_ch->stats().nops_tx, 0u);
}

TEST(Channel, KeepaliveDetectsDeadPeerAndReleasesResources) {
  Config cfg;
  cfg.keepalive_intv = millis(5);
  cfg.keepalive_timeout = millis(20);
  Pair t(cfg);
  t.establish();
  Errc seen = Errc::ok;
  t.client_ch->set_on_error([&](Channel&, Errc e) { seen = e; });

  t.run(millis(2));
  t.cluster.host(1).set_alive(false);  // machine crash, no FIN
  t.run(millis(200));

  EXPECT_EQ(seen, Errc::peer_dead);
  EXPECT_EQ(t.client_ch->state(), Channel::State::error);
  EXPECT_GT(t.client_ch->stats().keepalive_probes, 0u);
  // No leak: the QP went back to the cache for reuse (§V-A).
  EXPECT_EQ(t.client.qp_cache().size(), 1u);
}

TEST(Channel, KeepaliveQuietOnHealthyIdleChannel) {
  Config cfg;
  cfg.keepalive_intv = millis(2);
  Pair t(cfg);
  t.establish();
  bool errored = false;
  t.client_ch->set_on_error([&](Channel&, Errc) { errored = true; });
  t.run(millis(100));
  EXPECT_FALSE(errored);
  EXPECT_GT(t.client_ch->stats().keepalive_probes, 5u);
  EXPECT_EQ(t.client_ch->state(), Channel::State::established);
}

TEST(Channel, GracefulCloseRecyclesQpAndNotifiesPeer) {
  Pair t;
  t.establish();
  Errc peer_saw = Errc::ok;
  t.server_ch->set_on_error([&](Channel&, Errc e) { peer_saw = e; });
  t.client_ch->close();
  t.run(millis(5));
  EXPECT_EQ(t.client_ch->state(), Channel::State::closed);
  EXPECT_EQ(t.server_ch->state(), Channel::State::closed);
  EXPECT_EQ(peer_saw, Errc::channel_closed);
  EXPECT_EQ(t.client.qp_cache().size(), 1u);
  EXPECT_EQ(t.server.qp_cache().size(), 1u);
  EXPECT_EQ(t.client_ch->send_msg(Buffer::make(8)), Errc::channel_closed);
}

TEST(Channel, QpCacheAcceleratesReconnect) {
  Pair t;
  t.establish();
  t.client_ch->close();
  t.run(millis(5));
  ASSERT_EQ(t.client.qp_cache().size(), 1u);

  const Nanos start = t.cluster.engine().now();
  Channel* fresh = nullptr;
  t.client.connect(1, 7000, [&](Result<Channel*> r) {
    ASSERT_TRUE(r.ok());
    fresh = r.value();
  });
  t.run(millis(20));
  ASSERT_NE(fresh, nullptr);
  const Nanos reused_time = fresh->last_rx_time() - start;
  // Cached-QP establishment must beat the full create path.
  const auto& costs = t.cluster.cm().costs();
  EXPECT_LT(reused_time, costs.total_with_create());
  EXPECT_GE(reused_time, costs.total_reused());
  EXPECT_EQ(t.client.qp_cache().hits(), 1u);
}

TEST(Channel, FlowControlQueuesReadsBeyondOutstandingCap) {
  Config cfg;
  cfg.max_outstanding_wrs = 2;
  cfg.frag_size = 16 * 1024;
  Pair t(cfg);
  t.establish();
  Buffer received;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { received = std::move(m.payload); });
  Buffer big = Buffer::make(256 * 1024);  // 16 fragments at 16 KB
  fill_pattern(big, 9);
  t.client_ch->send_msg(std::move(big));
  t.run(millis(20));
  ASSERT_EQ(received.size(), 256u * 1024);
  EXPECT_TRUE(check_pattern(received, 9));
  EXPECT_GT(t.server_ch->stats().flowctl_queued, 0u);
}

TEST(Channel, SrqModeSharesReceiveBuffersAcrossChannels) {
  Config cfg;
  cfg.use_srq = true;
  Pair t(cfg);
  t.establish();
  // Second channel between the same contexts.
  Channel* second = nullptr;
  t.client.connect(1, 7000, [&](Result<Channel*> r) { second = r.value(); });
  t.run(millis(20));
  ASSERT_NE(second, nullptr);

  int delivered = 0;
  for (Channel* ch : t.server.channels()) {
    ch->set_on_msg([&](Channel&, Msg&&) { ++delivered; });
  }
  t.client_ch->send_msg(Buffer::from_string("one"));
  second->send_msg(Buffer::from_string("two"));
  t.run(millis(5));
  EXPECT_EQ(delivered, 2);
}

TEST(Channel, FilterDropCausesRpcTimeoutNotCrash) {
  Pair t;
  t.establish();
  t.server_ch->set_on_msg([](Channel& ch, Msg&& m) {
    ch.reply(m.rpc_id, Buffer::from_string("r"));
  });
  // Drop every RPC request at the server's ingress (Filter, §VI-C).
  t.server.set_filter([](Channel&, const WireHeader& hdr) {
    Context::FilterDecision d;
    if (hdr.flags & kFlagRpcReq) d.action = Context::FilterAction::drop;
    return d;
  });
  Errc err = Errc::ok;
  t.client_ch->call(Buffer::from_string("x"),
                    [&](Result<Msg> r) { err = r.error(); }, millis(5));
  t.run(millis(20));
  EXPECT_EQ(err, Errc::timed_out);
  EXPECT_GT(t.server_ch->stats().filtered_drops, 0u);
}

TEST(Channel, FilterDelaySlowsButDelivers) {
  Pair t;
  t.establish();
  Nanos delivered_at = 0;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&&) { delivered_at = t.cluster.engine().now(); });
  t.server.set_filter([](Channel&, const WireHeader& hdr) {
    Context::FilterDecision d;
    if ((hdr.flags & (kFlagAckOnly | kFlagNop)) == 0) {
      d.action = Context::FilterAction::delay;
      d.delay = millis(2);
    }
    return d;
  });
  const Nanos sent_at = t.cluster.engine().now();
  t.client_ch->send_msg(Buffer::make(32));
  t.run(millis(10));
  EXPECT_GT(delivered_at, sent_at + millis(2));
}

TEST(Channel, CorruptPayloadLengthDropsFrameInsteadOfZeroFilling) {
  // Pinned repro: with CRC off, flipping byte 11 of a 100 B eager frame
  // sets bit 30 of its payload_len. The receiver used to zero-fill and
  // deliver a 1,073,741,924 B message; now the frame is a bad message.
  Config cfg;
  cfg.e2e_crc = false;
  Pair t(cfg);
  t.establish();
  std::vector<std::size_t> sizes;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { sizes.push_back(m.payload.size()); });
  t.server.set_filter([](Channel&, const WireHeader& hdr) {
    Context::FilterDecision d;
    if (hdr.payload_len == 100) {
      d.action = Context::FilterAction::corrupt;
      d.corrupt_seed = 11;
    }
    return d;
  });
  const std::uint64_t bad_before = t.server_ch->stats().bad_messages;
  t.client_ch->send_msg(Buffer::make(100));
  t.run(millis(2));
  EXPECT_EQ(t.server_ch->stats().bad_messages, bad_before + 1);
  for (const std::size_t s : sizes) EXPECT_EQ(s, 100u);
}

TEST(Channel, ZeroCopySendUsesRegisteredBlock) {
  Pair t;
  t.establish();
  MemBlock block = t.client.reg_mem(128 * 1024);
  ASSERT_TRUE(block.valid());
  std::uint8_t* p = t.client.mem_ptr(block);
  for (int i = 0; i < 128 * 1024; ++i) p[i] = static_cast<std::uint8_t>(i);
  Buffer received;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { received = std::move(m.payload); });
  t.client_ch->send_msg(block, 128 * 1024);
  t.run(millis(10));
  ASSERT_EQ(received.size(), 128u * 1024);
  EXPECT_EQ(received.data()[12345], static_cast<std::uint8_t>(12345));
}

TEST(Channel, ConnectToClosedPortFails) {
  Pair t;
  Errc err = Errc::ok;
  t.client.connect(1, 9999, [&](Result<Channel*> r) { err = r.error(); });
  t.run(millis(20));
  EXPECT_EQ(err, Errc::connection_refused);
}

// Reads one Config field as a raw integer (Nanos fields in ns).
#define FIELD(f) [](const Config& c) { return static_cast<std::int64_t>(c.f); }

TEST(Channel, SetFlagTunesOnlineParametersOnly) {
  // The pinned Table III key set. Online: set a non-default value, read it
  // back through get_flag, and see the Config field move in the key's unit
  // (`_ms` / `_us` keys scale into Nanos); a negative value is refused.
  // Offline: refused, untouched, still readable.
  struct Online {
    const char* key;
    std::int64_t value;
    std::int64_t (*field)(const Config&);
    std::int64_t expected;  // the field after set_flag(key, value)
  };
  const Online online[] = {
      {"keepalive_intv_ms", 3, FIELD(keepalive_intv), millis(3)},
      {"keepalive_timeout_ms", 70, FIELD(keepalive_timeout), millis(70)},
      {"slow_threshold_us", 250, FIELD(slow_threshold), micros(250)},
      {"polling_warn_cycle_us", 300, FIELD(polling_warn_cycle), micros(300)},
      {"trace_sample_mask", 7, FIELD(trace_sample_mask), 7},
      {"reqrsp_mode", 1, FIELD(reqrsp_mode), 1},
      {"flowctl", 0, FIELD(flowctl), 0},
      {"frag_size", 8192, FIELD(frag_size), 8192},
      {"max_outstanding_wrs", 32, FIELD(max_outstanding_wrs), 32},
      {"recovery_max_attempts", 6, FIELD(recovery_max_attempts), 6},
      {"recovery_backoff_us", 750, FIELD(recovery_backoff), micros(750)},
      {"fallback_auto", 0, FIELD(fallback_auto), 0},
      {"tx_queue_max_msgs", 64, FIELD(tx_queue_max_msgs), 64},
      {"tx_queue_max_bytes", 1 << 20, FIELD(tx_queue_max_bytes), 1 << 20},
      {"ctx_tx_max_bytes", 1 << 24, FIELD(ctx_tx_max_bytes), 1 << 24},
      {"mem_soft_pct", 70, FIELD(mem_soft_pct), 70},
      {"mem_hard_pct", 90, FIELD(mem_hard_pct), 90},
      {"health_adaptive", 1, FIELD(health_adaptive), 1},
      {"health_breaker", 0, FIELD(health_breaker), 0},
      {"e2e_crc", 0, FIELD(e2e_crc), 0},
      {"integrity_retry_max", 5, FIELD(integrity_retry_max), 5},
      {"lifecycle_drain", 1, FIELD(lifecycle_drain), 1},
      {"lifecycle_drain_timeout_ms", 150, FIELD(lifecycle_drain_timeout),
       millis(150)},
      {"lifecycle_retry_after_ms", 90, FIELD(lifecycle_retry_after),
       millis(90)},
      {"recorder_enabled", 0, FIELD(recorder_enabled), 0},
      {"recorder_sample_mask", 15, FIELD(recorder_sample_mask), 15},
      {"tx_batch_max_wrs", 1, FIELD(tx_batch_max_wrs), 1},
      {"tx_batch_flush_on_poll_end", 0, FIELD(tx_batch_flush_on_poll_end), 0},
      {"inline_max", 128, FIELD(inline_max), 128},
  };
  struct Offline {
    const char* key;
    std::int64_t (*field)(const Config&);
  };
  const Offline offline[] = {
      {"use_srq", FIELD(use_srq)},
      {"cq_size", FIELD(cq_size)},
      {"srq_size", FIELD(srq_size)},
      {"fork_safe", FIELD(fork_safe)},
      {"ibqp_alloc_type", FIELD(ibqp_alloc_type)},
      {"small_msg_size", FIELD(small_msg_size)},
      {"window_depth", FIELD(window_depth)},
      {"memcache_max_mrs", FIELD(memcache_max_mrs)},
      {"memcache_ctrl_reserve", FIELD(memcache_ctrl_reserve)},
      {"recorder_capacity", FIELD(recorder_capacity)},
      {"proto_version_min", FIELD(proto_version_min)},
      {"proto_version_max", FIELD(proto_version_max)},
      {"proto_features", FIELD(proto_features)},
  };
  EXPECT_EQ(std::size(online), 29u);
  EXPECT_EQ(std::size(offline), 13u);

  Pair t;
  const Config& cfg = t.client.config();
  for (const Online& k : online) {
    SCOPED_TRACE(k.key);
    ASSERT_NE(k.field(cfg), k.expected) << "pick a non-default value";
    EXPECT_EQ(t.client.set_flag(k.key, k.value), Errc::ok);
    EXPECT_EQ(t.client.set_flag(k.key, -1), Errc::invalid_argument);
    EXPECT_EQ(k.field(cfg), k.expected);
    const Result<std::int64_t> v = t.client.get_flag(k.key);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value(), k.value);
  }
  for (const Offline& k : offline) {
    SCOPED_TRACE(k.key);
    const std::int64_t before = k.field(cfg);
    EXPECT_EQ(t.client.set_flag(k.key, before + 1), Errc::invalid_argument);
    EXPECT_EQ(k.field(cfg), before);
    const Result<std::int64_t> v = t.client.get_flag(k.key);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value(), before);
  }
  // Any nonzero value turns a bool knob on; it reads back as 1.
  ASSERT_EQ(t.client.set_flag("reqrsp_mode", 0), Errc::ok);
  EXPECT_EQ(t.client.set_flag("reqrsp_mode", 7), Errc::ok);
  EXPECT_TRUE(cfg.reqrsp_mode);
  EXPECT_EQ(t.client.get_flag("reqrsp_mode").value(), 1);

  // Out of range: negative, past the field's type, or overflowing the `_ms`
  // / `_us` scaling. Refused, and the field keeps its value.
  const std::pair<const char*, std::int64_t> bad[] = {
      {"keepalive_intv_ms", INT64_MAX / 1000}, {"frag_size", -1},
      {"slow_threshold_us", INT64_MAX / 1000 + 1}, {"reqrsp_mode", -1},
      {"frag_size", INT64_C(1) << 32}, {"recovery_backoff_us", -5}};
  for (const auto& [key, value] : bad) {
    SCOPED_TRACE(key);
    const std::int64_t before = t.client.get_flag(key).value_or(-1);
    EXPECT_EQ(t.client.set_flag(key, value), Errc::invalid_argument);
    EXPECT_EQ(t.client.get_flag(key).value_or(-1), before);
  }

  EXPECT_EQ(t.client.set_flag("no_such_flag", 1), Errc::not_found);
  EXPECT_EQ(t.client.get_flag("no_such_flag").error(), Errc::not_found);

  // Names of values that are constants beside their only reader, not keys:
  // set_flag and get_flag do not know them, and XR-adm rejects a push.
  const char* const removed[] = {
      "tx_writable_pct", "mem_retry_interval_us", "memcache_idle_shrink_ms",
      "tx_batch_max_bytes", "health_phi_suspect", "health_phi_dead",
      "health_min_samples", "health_halfopen_probes", "health_flap_window_ms",
      "health_holddown_base_ms", "health_holddown_max_ms",
      "health_degraded_rtt_x", "health_retx_degraded", "health_crc_degraded"};
  tools::XrAdm adm(t.cluster.engine());
  adm.manage(t.client);
  int rejected = 0;
  for (const char* key : removed) {
    SCOPED_TRACE(key);
    EXPECT_EQ(t.client.set_flag(key, 1), Errc::not_found);
    EXPECT_EQ(t.client.get_flag(key).error(), Errc::not_found);
    adm.set_all(key, 1, [&](tools::AdmResult r) { rejected += r.rejected; });
  }
  t.run(millis(1));
  EXPECT_EQ(rejected, 14);  // one managed context, so nothing applied
}

#undef FIELD

TEST(Channel, TracedMessageCarriesTimestamps) {
  Config cfg;
  cfg.reqrsp_mode = true;
  Pair t(cfg);
  t.establish();
  t.client.set_clock_skew(micros(500));  // client clock runs ahead
  t.server.set_peer_clock_offset(micros(500));

  TraceReport report;
  t.server_ch->set_on_msg([&](Channel&, Msg&& m) {
    EXPECT_TRUE(m.traced);
    report = t.server.trace_request(m);
  });
  t.client_ch->send_msg(Buffer::make(64));
  t.run(millis(5));
  ASSERT_TRUE(report.traced);
  // Corrected one-way latency is positive and in the microsecond range.
  EXPECT_GT(report.network_latency, micros(1));
  EXPECT_LT(report.network_latency, micros(50));
}

TEST(Channel, ManyMessagesBothDirectionsNoLossNoLeak) {
  Pair t;
  t.establish();
  int c2s = 0, s2c = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++c2s; });
  t.client_ch->set_on_msg([&](Channel&, Msg&&) { ++s2c; });
  for (int i = 0; i < 300; ++i) {
    t.client_ch->send_msg(Buffer::make(static_cast<std::size_t>(i % 9000)));
    t.server_ch->send_msg(Buffer::make(static_cast<std::size_t>(i % 7000)));
  }
  t.run(millis(100));
  EXPECT_EQ(c2s, 300);
  EXPECT_EQ(s2c, 300);
  // All tx blocks were returned to the caches.
  EXPECT_EQ(t.client_ch->inflight_msgs(), 0u);
  EXPECT_EQ(t.server_ch->inflight_msgs(), 0u);
  EXPECT_EQ(t.client.data_cache().stats().guard_violations, 0u);
}

// ---------------------------------------------------------------------------
// Doorbell batching & inline sends (§V). The hot path chains same-tick WRs
// behind one doorbell and carries small eager payloads in the WQE itself;
// these pin the inline_max boundary, the zero-byte edge, the chain-vs-WR-cap
// interaction and the retransmit of an inline-sent message.

TEST(ChannelBatch, InlineBoundaryPayloads) {
  Pair t;
  t.establish();
  const std::uint32_t inline_max = t.client.config().inline_max;  // 256
  std::vector<Buffer> received;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { received.push_back(std::move(m.payload)); });

  const std::vector<std::uint32_t> sizes = {inline_max - 1, inline_max,
                                            inline_max + 1};
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    Buffer b = Buffer::make(sizes[i]);
    fill_pattern(b, 100 + i);
    ASSERT_EQ(t.client_ch->send_msg(std::move(b)), Errc::ok);
  }
  t.run(millis(5));

  ASSERT_EQ(received.size(), 3u);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    ASSERT_EQ(received[i].size(), sizes[i]);
    EXPECT_TRUE(check_pattern(received[i], 100 + i));
  }
  // At and below inline_max the payload rode the WQE (no staging copy);
  // one byte over fell back to the copy-out path.
  EXPECT_EQ(t.client_ch->stats().inline_sends, 2u);
  EXPECT_EQ(t.client_ch->stats().eager_copies_avoided, 2u);
  EXPECT_EQ(t.cluster.rnic(0).stats().inline_wrs, 2u);
}

TEST(ChannelBatch, ZeroByteInlineSendDelivers) {
  Pair t;
  t.establish();
  std::size_t deliveries = 0, bytes = 1;
  t.server_ch->set_on_msg([&](Channel&, Msg&& m) {
    ++deliveries;
    bytes = m.payload.size();
  });
  ASSERT_EQ(t.client_ch->send_msg(Buffer::make(0)), Errc::ok);
  t.run(millis(5));
  EXPECT_EQ(deliveries, 1u);
  EXPECT_EQ(bytes, 0u);
  EXPECT_EQ(t.client_ch->stats().inline_sends, 1u);
}

TEST(ChannelBatch, ChainStraddlesWrFlowControlCap) {
  // A same-tick burst accumulates into a chain wider than the outstanding-WR
  // credit window: the flush must post the creditable prefix and route the
  // tail through the deferred queue — and the conservation ledger balances.
  Config cfg;
  cfg.max_outstanding_wrs = 4;
  cfg.tx_batch_max_wrs = 16;
  Pair t(cfg);
  t.establish();
  int delivered = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++delivered; });
  for (int i = 0; i < 30; ++i) {
    ASSERT_EQ(t.client_ch->send_msg(Buffer::make(64)), Errc::ok);
  }
  t.run(millis(20));
  EXPECT_EQ(delivered, 30);
  const ContextStats& ledger = t.client.stats();
  EXPECT_GT(ledger.batch_accumulated, 0u);
  EXPECT_GT(ledger.batch_deferred, 0u);  // tail WRs outlived the credits
  EXPECT_EQ(ledger.batch_accumulated,
            ledger.batch_posted + ledger.batch_deferred +
                ledger.batch_dropped + ledger.batch_pending);
  EXPECT_EQ(ledger.batch_pending, 0u);
  // Chains actually formed: the doorbells carried more WRs than rings.
  EXPECT_GT(t.client_ch->stats().doorbell_wrs,
            t.client_ch->stats().doorbells);
}

TEST(ChannelBatch, InlineSentMessageRetransmitsAfterQpKill) {
  // An inline-sent message keeps no wire block to replay from — the window
  // entry holds the payload copy. Kill the QP before anything is acked and
  // the recovery retransmit must ride the inline path again, delivering
  // exactly once.
  Config cfg;
  cfg.ack_every = 1000;  // acks only via the NOP deadlock path: stay unacked
  Pair t(cfg);
  t.establish();
  analysis::Filter filter(t.server, /*seed=*/31);
  std::vector<Buffer> received;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { received.push_back(std::move(m.payload)); });

  for (int i = 0; i < 5; ++i) {
    Buffer b = Buffer::make(128);
    fill_pattern(b, 200 + i);
    ASSERT_EQ(t.client_ch->send_msg(std::move(b)), Errc::ok);
  }
  // Kill before the first packet lands: the resume handshake then finds
  // nothing acked and every entry must replay.
  filter.kill_qp_after(t.server_ch->id(), micros(1));
  t.run(millis(80));

  ASSERT_EQ(received.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(received[i].size(), 128u);
    EXPECT_TRUE(check_pattern(received[i], 200 + i));
  }
  EXPECT_GE(t.server_ch->stats().recoveries_started, 1u);
  // The replays went inline too: more inline sends than messages.
  EXPECT_GT(t.client_ch->stats().inline_sends, 5u);
}

// ---------------------------------------------------------------------------
// Fragmentation boundaries (§V-C). With frag_size = 64 KB, the pull loop's
// fragment count flips exactly at the 64 KB edge; these pin the off-by-one
// behaviour on both sides of it and the content integrity across the seam.

TEST(ChannelFrag, ExactlyOneFragAtFragSize) {
  Pair t;
  t.establish();
  const std::uint32_t frag = t.client.config().frag_size;  // 64 KB
  Buffer received;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { received = std::move(m.payload); });

  Buffer b = Buffer::make(frag);
  fill_pattern(b, 7);
  t.client_ch->send_msg(std::move(b));
  t.run(millis(5));

  ASSERT_EQ(received.size(), frag);
  EXPECT_TRUE(check_pattern(received, 7));
  EXPECT_EQ(t.server_ch->stats().reads_issued, 1u);  // len == frag: one read
}

TEST(ChannelFrag, OneByteEitherSideOfTheFragBoundary) {
  Pair t;
  t.establish();
  const std::uint32_t frag = t.client.config().frag_size;
  std::vector<Buffer> received;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { received.push_back(std::move(m.payload)); });

  Buffer under = Buffer::make(frag - 1);
  Buffer over = Buffer::make(frag + 1);
  fill_pattern(under, 11);
  fill_pattern(over, 13);
  t.client_ch->send_msg(std::move(under));
  t.client_ch->send_msg(std::move(over));
  t.run(millis(10));

  ASSERT_EQ(received.size(), 2u);
  ASSERT_EQ(received[0].size(), frag - 1);
  ASSERT_EQ(received[1].size(), frag + 1);
  EXPECT_TRUE(check_pattern(received[0], 11));
  EXPECT_TRUE(check_pattern(received[1], 13));
  // frag-1 pulls in one read; frag+1 needs a second, one-byte read.
  EXPECT_EQ(t.server_ch->stats().reads_issued, 3u);
}

TEST(ChannelFrag, ManyFragmentsRideTheWrFlowControlCap) {
  // Tiny fragments force a fragment count an order of magnitude above the
  // outstanding-WR cap, so most reads go through the deferred queue.
  Config cfg;
  cfg.frag_size = 1024;
  Pair t(cfg);
  t.establish();
  const std::uint32_t len = 200 * 1024;  // 200 fragments vs cap of 16
  Buffer received;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { received = std::move(m.payload); });

  Buffer b = Buffer::make(len);
  fill_pattern(b, 17);
  t.client_ch->send_msg(std::move(b));
  t.run(millis(50));

  ASSERT_EQ(received.size(), len);
  EXPECT_TRUE(check_pattern(received, 17));
  EXPECT_EQ(t.server_ch->stats().reads_issued, 200u);
  EXPECT_EQ(t.server.outstanding_wrs(), 0u);
  EXPECT_EQ(t.server.deferred_wr_count(), 0u);
}

TEST(ChannelFrag, QpKillBetweenFragmentsStillDeliversExactlyOnce) {
  // Kill the receiver's QP while the fragmented pull is mid-flight: the
  // channel recovers, the sender replays the rendezvous descriptor from
  // its window, and the message arrives once, intact.
  Config cfg;
  cfg.frag_size = 4 * 1024;
  Pair t(cfg);
  t.establish();
  analysis::Filter filter(t.server, /*seed=*/29);

  const std::uint32_t len = 1024 * 1024;  // 256 fragments
  std::vector<Buffer> received;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { received.push_back(std::move(m.payload)); });

  Buffer b = Buffer::make(len);
  fill_pattern(b, 19);
  t.client_ch->send_msg(std::move(b));
  // The descriptor post pays the modeled CRC pass over 1 MB (~65 us)
  // before it hits the wire, so aim the kill well after that, between
  // fragments of the running pull.
  filter.kill_qp_after(t.server_ch->id(), micros(150));
  t.run(millis(80));

  ASSERT_EQ(received.size(), 1u);
  ASSERT_EQ(received[0].size(), len);
  EXPECT_TRUE(check_pattern(received[0], 19));
  EXPECT_GE(t.server_ch->stats().recoveries_started, 1u);
  // The interrupted pull was restarted, so more reads than the minimum.
  EXPECT_GT(t.server_ch->stats().reads_issued, 256u);
  EXPECT_EQ(t.server.data_cache().stats().guard_violations, 0u);
  EXPECT_EQ(t.client.data_cache().stats().guard_violations, 0u);
}

// The one credited post path: every registry entry leaves through one
// retire that frees its block. A data WR the egress filter corrupted
// carries a transient ctrl-cache copy of its frame; one still waiting for a
// credit when its QP dies must give the copy back when recovery purges it.
TEST(PostPath, PurgedDeferredWrFreesItsCorruptedCopy) {
  Config cfg;
  cfg.max_outstanding_wrs = 1;
  cfg.inline_max = 0;  // staged frames: corruption copies the wire block
  Pair t(cfg);
  t.establish();
  bool corrupt = true;
  t.client.set_egress_filter([&](Channel&, const WireHeader& hdr) {
    Context::FilterDecision d;
    if (corrupt && hdr.is_data()) {
      d.action = Context::FilterAction::corrupt;
      d.corrupt_seed = hdr.seq;
    }
    return d;
  });
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(t.client_ch->send_msg(Buffer::make(1000)), Errc::ok);
  }
  t.run(micros(3));
  ASSERT_GT(t.client.deferred_wr_count(), 0u);  // copies wait for a credit
  rnic::QpAttr attr;
  attr.state = rnic::QpState::error;
  ASSERT_EQ(t.client.nic().modify_qp(t.client_ch->qp_num(), attr), Errc::ok);
  corrupt = false;
  t.run(millis(100));
  t.client_ch->close();
  t.run(millis(100));
  EXPECT_EQ(t.client.ctrl_cache().stats().in_use_bytes, 0u);
}

// Credited WRs beyond the NIC send queue. With flow control off nothing
// caps them, and rendezvous in both directions puts each side's descriptor
// sends and pull reads on one QP. The client's rendezvous go first, so its
// QP is busy serving the server's pulls (responses go before new work)
// while its own reads and next descriptors pile up: a fresh submission
// finds the send queue full. A second channel's eager stream keeps
// completions coming meanwhile, so reposts of the oldest deferred WR find
// that queue still full too. Every message arrives once and in order, and
// the doorbell-batch ledger balances.
TEST(PostPath, FullSendQueueDefersInOrder) {
  Config cfg;
  cfg.flowctl = false;
  cfg.window_depth = 64;
  cfg.max_outstanding_wrs = 1;  // send queue: 64 + 1 + 32 WRs
  cfg.e2e_crc = false;          // no CRC pass spacing out the posts
  cfg.tx_queue_max_msgs = 64;   // bounds the test's memory
  constexpr int kMsgs = 100;
  constexpr std::uint32_t kLen = 128 * 1024;  // rendezvous
  constexpr int kEager = 1000;
  constexpr std::uint32_t kEagerLen = 512;
  Pair t(cfg);
  t.establish();
  Channel* bulk_client = t.client_ch;
  Channel* bulk_server = t.server_ch;
  Channel* eager_client = nullptr;
  t.client.connect(1, 7000, [&](Result<Channel*> r) {
    ASSERT_TRUE(r.ok());
    eager_client = r.value();
  });
  t.run(millis(5));
  ASSERT_NE(eager_client, nullptr);
  ASSERT_NE(t.server_ch, bulk_server);
  Channel* eager_server = t.server_ch;

  // Each receiver records the index of every message it gets, or -1 for a
  // wrong one; in-order exactly-once delivery is then 0, 1, 2, ...
  auto receiver = [](std::vector<int>& got, std::uint32_t len) {
    return [&got, len](Channel&, Msg&& m) {
      const int i = static_cast<int>(got.size());
      got.push_back(m.payload.size() == len && check_pattern(m.payload, i)
                        ? i
                        : -1);
    };
  };
  std::vector<int> got_server, got_client, got_eager;
  bulk_server->set_on_msg(receiver(got_server, kLen));
  bulk_client->set_on_msg(receiver(got_client, kLen));
  eager_server->set_on_msg(receiver(got_eager, kEagerLen));
  int sent_client = 0, sent_server = 0, sent_eager = 0;
  auto push = [](Channel* ch, int& sent, int total, std::uint32_t len) {
    while (sent < total) {
      Buffer b = Buffer::make(len);
      fill_pattern(b, static_cast<std::uint64_t>(sent));
      if (ch->send_msg(std::move(b)) != Errc::ok) break;
      ++sent;
    }
  };
  for (int round = 0; round < 5000; ++round) {
    push(bulk_client, sent_client, kMsgs, kLen);
    if (round > 0) push(bulk_server, sent_server, kMsgs, kLen);
    push(eager_client, sent_eager, kEager, kEagerLen);
    t.run(micros(20));
    if (got_server.size() == kMsgs && got_client.size() == kMsgs &&
        got_eager.size() == kEager) {
      break;
    }
  }
  auto in_order = [](int n) {
    std::vector<int> v(n);
    for (int i = 0; i < n; ++i) v[i] = i;
    return v;
  };
  EXPECT_EQ(got_server, in_order(kMsgs));
  EXPECT_EQ(got_client, in_order(kMsgs));
  EXPECT_EQ(got_eager, in_order(kEager));
  for (Context* ctx : {&t.client, &t.server}) {
    const ContextStats& ledger = ctx->stats();
    EXPECT_EQ(ledger.batch_accumulated,
              ledger.batch_posted + ledger.batch_deferred +
                  ledger.batch_dropped + ledger.batch_pending);
    EXPECT_EQ(ctx->outstanding_wrs(), 0u);
    EXPECT_EQ(ctx->deferred_wr_count(), 0u);
  }
  // Without flow control a WR queues only behind a full send queue, so the
  // first one queued found it full; later ones may queue behind it.
  EXPECT_GT(bulk_client->stats().flowctl_queued, 0u);
  EXPECT_GT(t.client.stats().requeued_heads, 0u);
  for (Channel* ch : {bulk_client, bulk_server, eager_client, eager_server}) {
    EXPECT_EQ(ch->stats().bad_messages, 0u);
    EXPECT_EQ(ch->stats().recoveries_started, 0u);
  }
}

}  // namespace
}  // namespace xrdma::core

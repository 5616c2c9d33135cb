// Analysis framework + tools: Monitor series/log collection, clock sync,
// Mock TCP fallback and its stream framing, XR-Stat, XR-Ping mesh, XR-Perf,
// XR-adm.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "analysis/clock_sync.hpp"
#include "analysis/exposition.hpp"
#include "analysis/filter.hpp"
#include "analysis/metrics.hpp"
#include "analysis/mock.hpp"
#include "analysis/monitor.hpp"
#include "analysis/recorder.hpp"
#include "core/context.hpp"
#include "testbed/cluster.hpp"
#include "tools/xr_adm.hpp"
#include "tools/xr_perf.hpp"
#include "tools/xr_ping.hpp"
#include "tools/xr_server.hpp"
#include "tools/xr_stat.hpp"

namespace xrdma {
namespace {

using analysis::ClockSyncResult;
using analysis::MockFallback;
using analysis::Monitor;
using core::Channel;
using core::Config;
using core::Context;
using core::Msg;

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
    server.config().poll_mode = core::PollMode::busy;
    client.config().poll_mode = core::PollMode::busy;
    server.start_polling_loop();
    client.start_polling_loop();
  }

  void run(Nanos d) { cluster.engine().run_for(d); }
};

TEST(Monitor, SamplesTrackedSeriesPeriodically) {
  sim::Engine eng;
  Monitor mon(eng, millis(1));
  double value = 0;
  mon.track("value", [&] { return value; });
  mon.start();
  eng.schedule_after(millis(5), [&] { value = 42; });
  eng.run_until(millis(10));
  mon.stop();
  const auto& s = mon.series("value");
  ASSERT_GE(s.samples.size(), 9u);
  EXPECT_EQ(s.samples.front().value, 0);
  EXPECT_EQ(s.last(), 42);
  EXPECT_EQ(s.max(), 42);
}

TEST(Monitor, CovMeasuresJitter) {
  sim::Engine eng;
  Monitor mon(eng, millis(1));
  analysis::Series flat{"flat", {{0, 5}, {1, 5}, {2, 5}}};
  analysis::Series jittery{"j", {{0, 1}, {1, 9}, {2, 1}, {3, 9}}};
  EXPECT_EQ(flat.cov(), 0);
  EXPECT_GT(jittery.cov(), 0.5);
}

TEST(Monitor, CovGuardsDegenerateAndNegativeSeries) {
  // Empty and single-sample series have no defined variation: report 0,
  // never NaN or a divide-by-zero inf.
  analysis::Series empty{"e", {}};
  analysis::Series single{"s", {{0, 5}}};
  EXPECT_EQ(empty.cov(), 0);
  EXPECT_EQ(single.cov(), 0);

  // Zero-mean series (e.g. a clock-offset series centered on 0) would
  // divide by zero; the guard returns 0 instead.
  analysis::Series zero_mean{"z", {{0, -5}, {1, 5}}};
  EXPECT_EQ(zero_mean.cov(), 0);
  EXPECT_TRUE(std::isfinite(zero_mean.cov()));

  // Negative-mean series must not flip the sign: cov is stddev / |mean|.
  analysis::Series negative{"n", {{0, -1}, {1, -9}}};
  EXPECT_GT(negative.cov(), 0);
  analysis::Series mirrored{"m", {{0, 1}, {1, 9}}};
  EXPECT_DOUBLE_EQ(negative.cov(), mirrored.cov());
}

TEST(Monitor, CollectsWarnLogs) {
  sim::Engine eng;
  Monitor mon(eng, millis(1));
  Logger::global().log(0, LogLevel::warn, "test", "slow poll: blah");
  Logger::global().log(0, LogLevel::info, "test", "not collected");
  EXPECT_EQ(mon.logs().size(), 1u);
  EXPECT_EQ(mon.count_logs("slow poll"), 1u);
}

TEST(ClockSync, EstimatesPeerOffsetWithinMicroseconds) {
  Pair t;
  t.establish();
  // Server clock runs 2 ms ahead of the client.
  t.server.set_clock_skew(millis(2));
  analysis::serve_clock_sync(*t.server_ch);

  ClockSyncResult result;
  bool done = false;
  analysis::run_clock_sync(*t.client_ch, 8, [&](ClockSyncResult r) {
    result = r;
    done = true;
  });
  t.run(millis(20));
  ASSERT_TRUE(done);
  // Offset error is bounded by path asymmetry — microseconds here.
  EXPECT_NEAR(static_cast<double>(result.offset),
              static_cast<double>(millis(2)), static_cast<double>(micros(5)));
  EXPECT_EQ(t.client.peer_clock_offset(), result.offset);
  EXPECT_GT(result.best_rtt, micros(2));
}

TEST(ClockSync, CorrectedTraceLatencyIsSane) {
  Config cfg;
  cfg.reqrsp_mode = true;
  Pair t(cfg);
  t.establish();
  t.client.set_clock_skew(millis(3));  // client ahead
  analysis::serve_clock_sync(*t.client_ch);  // server measures client offset

  bool synced = false;
  analysis::run_clock_sync(*t.server_ch, 8,
                           [&](ClockSyncResult) { synced = true; });
  t.run(millis(20));
  ASSERT_TRUE(synced);

  // Now a traced message client -> server decomposes correctly.
  core::TraceReport report;
  t.server_ch->set_on_msg([&](Channel&, Msg&& m) {
    report = t.server.trace_request(m);
  });
  t.client_ch->send_msg(Buffer::make(64));
  t.run(millis(5));
  ASSERT_TRUE(report.traced);
  EXPECT_GT(report.network_latency, micros(1));
  EXPECT_LT(report.network_latency, micros(100));
}

TEST(Mock, FallbackToTcpKeepsMessagesFlowing) {
  Pair t;
  t.establish();
  MockFallback server_mock(t.server, t.cluster.host(1).tcp(), 9100);

  std::vector<std::string> got;
  t.server_ch->set_on_msg([&](Channel& ch, Msg&& m) {
    got.push_back(m.payload.to_string());
    if (m.is_rpc_req) ch.reply(m.rpc_id, Buffer::from_string("ok"));
  });

  t.client_ch->send_msg(Buffer::from_string("over-rdma"));
  t.run(millis(5));

  bool switched = false;
  MockFallback::switch_to_tcp(*t.client_ch, t.cluster.host(0).tcp(), 9100,
                              [&](Errc e) { switched = e == Errc::ok; });
  t.run(millis(5));
  ASSERT_TRUE(switched);
  ASSERT_TRUE(t.client_ch->mocked());

  t.client_ch->send_msg(Buffer::from_string("over-tcp"));
  std::string rpc_result;
  t.client_ch->call(Buffer::from_string("req"), [&](Result<Msg> r) {
    if (r.ok()) rpc_result = r.value().payload.to_string();
  });
  t.run(millis(20));
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], "over-rdma");
  EXPECT_EQ(got[1], "over-tcp");
  EXPECT_EQ(rpc_result, "ok");
  EXPECT_GT(t.client_ch->stats().mock_tx, 0u);
}

TEST(Mock, RestoreReturnsToRdma) {
  Pair t;
  t.establish();
  MockFallback server_mock(t.server, t.cluster.host(1).tcp(), 9100);
  bool switched = false;
  MockFallback::switch_to_tcp(*t.client_ch, t.cluster.host(0).tcp(), 9100,
                              [&](Errc e) { switched = e == Errc::ok; });
  t.run(millis(5));
  ASSERT_TRUE(switched);

  int got = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++got; });
  t.client_ch->send_msg(Buffer::from_string("tcp"));
  t.run(millis(10));
  EXPECT_EQ(got, 1);

  MockFallback::restore_rdma(*t.client_ch);
  t.run(millis(10));
  EXPECT_FALSE(t.client_ch->mocked());
  const std::uint64_t rnic_msgs_before =
      t.cluster.rnic(0).stats().tx_packets;
  t.client_ch->send_msg(Buffer::from_string("rdma-again"));
  t.run(millis(10));
  EXPECT_EQ(got, 2);
  EXPECT_GT(t.cluster.rnic(0).stats().tx_packets, rnic_msgs_before);
}

// The Mock stream's framing, driven byte by byte: a raw TCP connection to
// the server's MockFallback port says hello for the pair's channel, then
// hands the server whatever chunks a test cuts. CRC is off, so a frame is
// a bare header plus payload.
struct RawMockPeer {
  using Bytes = std::vector<std::uint8_t>;
  Pair t{[] {
    Config cfg;
    cfg.e2e_crc = false;
    return cfg;
  }()};
  MockFallback mock{t.server, t.cluster.host(1).tcp(), 9150};
  tcpsim::TcpConn* conn = nullptr;
  std::vector<std::string> got;
  core::Seq next_seq = 0;

  RawMockPeer() {
    t.establish();
    t.server_ch->set_on_msg(
        [this](Channel&, Msg&& m) { got.push_back(m.payload.to_string()); });
    next_seq = t.client_ch->tx_seq();
    t.cluster.host(0).tcp().connect(1, 9150,
                                    [this](Result<tcpsim::TcpConn*> r) {
                                      if (r.ok()) conn = r.value();
                                    });
    t.run(millis(1));
    Bytes hello(12);
    const std::uint32_t magic = 0x584d4f43;  // "XMOC"
    const std::uint64_t token = t.server_ch->conn_token();
    std::memcpy(hello.data(), &magic, 4);
    std::memcpy(hello.data() + 4, &token, 8);
    push(frame(hello));
  }

  /// A stream frame: the 4-byte length prefix `len`, then `body`.
  static Bytes frame(const Bytes& body, std::uint32_t len) {
    Bytes out(4 + body.size());
    std::memcpy(out.data(), &len, 4);
    std::copy(body.begin(), body.end(), out.begin() + 4);
    return out;
  }
  static Bytes frame(const Bytes& body) {
    return frame(body, static_cast<std::uint32_t>(body.size()));
  }

  /// The next in-order eager message carrying `text`, as the client's
  /// channel would encode it.
  Bytes message(const std::string& text) {
    core::WireHeader hdr;
    hdr.version = t.client_ch->proto_version();
    hdr.seq = next_seq++;
    hdr.ack = t.server_ch->tx_acked();
    hdr.payload_len = static_cast<std::uint32_t>(text.size());
    Bytes body(hdr.wire_size() + text.size());
    hdr.encode(body.data());
    std::copy(text.begin(), text.end(), body.begin() + hdr.wire_size());
    return frame(body);
  }

  /// One TCP send, which reaches the server as one chunk (it is below the
  /// MSS and nothing else is queued).
  void push(const Bytes& bytes) {
    ASSERT_NE(conn, nullptr);
    conn->send(Buffer::copy_of(bytes.data(), bytes.size()));
    t.run(micros(200));
  }
};

TEST(MockFraming, FrameSplitAcrossChunksIsDeliveredOnceWhole) {
  RawMockPeer p;
  ASSERT_TRUE(p.t.server_ch->mocked());
  const RawMockPeer::Bytes m = p.message("split");
  // Cut inside the length prefix, then inside the payload.
  p.push({m.begin(), m.begin() + 2});
  p.push({m.begin() + 2, m.end() - 3});
  EXPECT_TRUE(p.got.empty());
  p.push({m.end() - 3, m.end()});
  EXPECT_EQ(p.got, std::vector<std::string>{"split"});
}

TEST(MockFraming, SeveralFramesInOneChunkAreDeliveredInOrder) {
  RawMockPeer p;
  ASSERT_TRUE(p.t.server_ch->mocked());
  RawMockPeer::Bytes chunk;
  for (const char* text : {"a", "bb", "ccc"}) {
    const RawMockPeer::Bytes m = p.message(text);
    chunk.insert(chunk.end(), m.begin(), m.end());
  }
  // The chunk ends with the head of a fourth frame.
  const RawMockPeer::Bytes last = p.message("dddd");
  chunk.insert(chunk.end(), last.begin(), last.begin() + 10);
  p.push(chunk);
  EXPECT_EQ(p.got, (std::vector<std::string>{"a", "bb", "ccc"}));
  p.push({last.begin() + 10, last.end()});
  EXPECT_EQ(p.got, (std::vector<std::string>{"a", "bb", "ccc", "dddd"}));
}

TEST(MockFraming, LengthPrefixNearTwoToThe32WaitsForItsBytes) {
  // 4 + len wraps to 0..3 in 32 bits for these prefixes. Reassembly must
  // wait for the bytes (which never come) rather than take a frame that
  // long out of the few bytes that follow.
  for (std::uint32_t len = 0xfffffffcu; len != 0; ++len) {
    SCOPED_TRACE(testing::Message() << "prefix " << len);
    RawMockPeer p;
    ASSERT_TRUE(p.t.server_ch->mocked());
    const std::uint64_t bad = p.t.server_ch->stats().bad_messages;
    p.push(RawMockPeer::frame(RawMockPeer::Bytes(8, 0xab), len));
    EXPECT_TRUE(p.got.empty());
    EXPECT_EQ(p.t.server_ch->stats().bad_messages, bad);
    EXPECT_TRUE(p.t.server_ch->mocked());
    EXPECT_EQ(p.t.server_ch->state(), Channel::State::established);
  }
}

TEST(XrStat, RendersChannelRowsAndSummaries) {
  Pair t;
  t.establish();
  t.server_ch->set_on_msg([](Channel&, Msg&&) {});
  t.client_ch->send_msg(Buffer::make(100));
  t.run(millis(5));
  const std::string rows = tools::xr_stat(t.client);
  EXPECT_NE(rows.find("ESTABLISHED"), std::string::npos);
  const std::string summary = tools::xr_stat_summary(t.client);
  EXPECT_NE(summary.find("memcache"), std::string::npos);
  EXPECT_NE(summary.find("qp_cache"), std::string::npos);
  const std::string fstat = tools::xr_stat_fabric(t.cluster.fabric());
  EXPECT_NE(fstat.find("pfc_pause_frames"), std::string::npos);
}

TEST(XrPing, MeshMatrixFindsDeadHost) {
  testbed::ClusterConfig ccfg;
  ccfg.fabric = net::ClosConfig::rack(4);
  testbed::Cluster cluster(ccfg);
  std::vector<std::unique_ptr<Context>> ctxs;
  std::vector<Context*> raw;
  for (int i = 0; i < 4; ++i) {
    ctxs.push_back(std::make_unique<Context>(
        cluster.rnic(static_cast<net::NodeId>(i)), cluster.cm()));
    ctxs.back()->config().poll_mode = core::PollMode::busy;
    ctxs.back()->start_polling_loop();
    raw.push_back(ctxs.back().get());
  }
  cluster.host(3).set_alive(false);  // one broken host

  tools::PingMatrix matrix;
  bool done = false;
  tools::XrPingOptions opts;
  opts.timeout = millis(10);
  tools::xr_ping_mesh(raw, opts, [&](tools::PingMatrix m) {
    matrix = std::move(m);
    done = true;
  });
  cluster.engine().run_for(millis(200));
  ASSERT_TRUE(done);
  EXPECT_EQ(matrix.n, 4);
  // Healthy pairs pinged in microseconds.
  EXPECT_GT(matrix.rtt[0][1], 0);
  EXPECT_LT(matrix.rtt[0][1], millis(1));
  // Everything involving host 3 failed.
  EXPECT_LT(matrix.rtt[0][3], 0);
  EXPECT_LT(matrix.rtt[3][0], 0);
  EXPECT_EQ(matrix.unreachable_count(), 6);
  EXPECT_NE(matrix.render().find("FAIL"), std::string::npos);
}

TEST(XrPing, HealthViewRendersPerPeerVerdicts) {
  Pair t;
  t.establish();
  t.server_ch->set_on_msg([](Channel&, Msg&&) {});
  t.client_ch->send_msg(Buffer::make(64));
  t.run(millis(60));  // several keepalive rounds: probe RTTs accumulate

  analysis::ContextMetrics metrics(t.client);
  metrics.refresh();
  // The registry carries both the aggregate counters and the per-peer
  // gauge namespace the --watch view reads.
  EXPECT_TRUE(metrics.registry().has("health.dead_declarations"));
  EXPECT_TRUE(metrics.registry().has("health.peer.1.phi"));
  EXPECT_TRUE(metrics.registry().has("health.peer.1.state"));

  const std::string view = tools::xr_ping_health(metrics);
  EXPECT_NE(view.find("peer health"), std::string::npos);
  EXPECT_NE(view.find("healthy"), std::string::npos);  // the one peer's state
  EXPECT_NE(view.find("peers=1"), std::string::npos);
  EXPECT_NE(view.find("dead=0"), std::string::npos);

  // xr_stat's summary carries the same counters for the non-watch path.
  const std::string summary = tools::xr_stat_summary(t.client);
  EXPECT_NE(summary.find("health:"), std::string::npos);
}

TEST(XrPerf, PingPongReportsLatencyHistogram) {
  Pair t;
  t.establish();
  tools::perf_echo_responder(*t.server_ch);
  tools::PerfOptions opts;
  opts.total_msgs = 100;
  opts.msg_size = 64;
  tools::PerfReport report;
  bool done = false;
  tools::xr_perf(*t.client_ch, opts, [&](tools::PerfReport r) {
    report = std::move(r);
    done = true;
  });
  t.run(millis(100));
  ASSERT_TRUE(done);
  EXPECT_EQ(report.completed, 100u);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_GT(report.latency.mean(), 1000.0);           // > 1 us
  EXPECT_LT(report.latency.mean(), 20000.0);          // < 20 us
  EXPECT_GT(report.achieved_kops, 10.0);
}

TEST(XrPerf, MixedFlowModelSendsBothSizes) {
  Pair t;
  t.establish();
  std::size_t small = 0, large = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&& m) {
    (m.payload.size() <= 4096 ? small : large) += 1;
  });
  tools::PerfOptions opts;
  opts.model = tools::FlowModel::mixed;
  opts.use_rpc = false;
  opts.total_msgs = 200;
  opts.msg_size = 256;
  opts.large_size = 128 * 1024;
  opts.mice_fraction = 0.8;
  bool done = false;
  tools::xr_perf(*t.client_ch, opts, [&](tools::PerfReport) { done = true; });
  t.run(millis(200));
  ASSERT_TRUE(done);
  EXPECT_GT(small, 100u);
  EXPECT_GT(large, 10u);
  EXPECT_EQ(small + large, 200u);
}

TEST(XrAdm, DistributesOnlineFlagsAcrossFleet) {
  Pair t;
  tools::XrAdm adm(t.cluster.engine());
  adm.manage(t.server);
  adm.manage(t.client);
  tools::AdmResult result;
  adm.set_all("slow_threshold_us", 500,
              [&](tools::AdmResult r) { result = r; });
  t.run(millis(5));
  EXPECT_EQ(result.applied, 2);
  EXPECT_EQ(t.client.config().slow_threshold, micros(500));
  EXPECT_EQ(t.server.config().slow_threshold, micros(500));
  const auto values = adm.collect("slow_threshold_us");
  EXPECT_EQ(values.size(), 2u);

  // Offline parameters are refused fleet-wide.
  adm.set_all("cq_size", 1, [&](tools::AdmResult r) { result = r; });
  t.run(millis(5));
  EXPECT_EQ(result.applied, 0);
  EXPECT_EQ(result.rejected, 2);
}

TEST(XrStat, JsonIsWellFormedAndCarriesChannelsAndMetrics) {
  Pair t;
  t.establish();
  t.server_ch->set_on_msg([](Channel&, Msg&&) {});
  for (int i = 0; i < 3; ++i) t.client_ch->send_msg(Buffer::make(100));
  t.run(millis(5));

  const std::string json = tools::xr_stat_json(t.client);
  // Shape: one channel object plus the full sorted metrics map.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find(strfmt("{\"node\":%u,\"channels\":[", t.client.node())),
            std::string::npos);
  EXPECT_NE(json.find("\"peer\":1"), std::string::npos);
  EXPECT_NE(json.find("\"state\":\"ESTABLISHED\""), std::string::npos);
  EXPECT_NE(json.find("\"msgs_tx\":3"), std::string::npos);
  EXPECT_NE(json.find("\"chan.msgs_tx\":3"), std::string::npos);
  // Lifecycle plane: node state plus per-channel negotiated protocol and
  // peer drain flag.
  EXPECT_NE(json.find("\"lifecycle\":\"active\""), std::string::npos);
  EXPECT_NE(json.find("\"proto_version\":2"), std::string::npos);
  EXPECT_NE(json.find("\"peer_draining\":false"), std::string::npos);
  EXPECT_NE(json.find("\"health.peer.1.state\":0"), std::string::npos);
  // Balanced braces/brackets and no raw newlines: machine-readable as one
  // line per node.
  int braces = 0, brackets = 0;
  for (char c : json) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
    EXPECT_NE(c, '\n');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  // Deterministic: two renders at the same sim time are identical.
  EXPECT_EQ(json, tools::xr_stat_json(t.client));
}

std::string fnv1a_hex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return strfmt("%016llx", static_cast<unsigned long long>(h));
}

TEST(XrStat, OperatorOutputIsPinnedByteForByte) {
  // Every operator text surface is an external interface (dashboards,
  // scrape configs, runbooks): a refactor of the stats plumbing must not
  // move a single byte. One deterministic pair carries eager, rendezvous
  // and RPC traffic through one corrupted frame and one QP kill, so the
  // recovery and integrity counters are nonzero too. A mismatch prints the
  // new text; re-pin only for a deliberate format change.
  Pair t;
  t.server.set_trace_epoch(0x51);
  t.client.set_trace_epoch(0xc1);
  t.establish();
  analysis::Filter rx_filter(t.server, /*seed=*/31);
  rx_filter.add_rule(
      {analysis::FaultKind::ingress_corrupt, 1.0, 0, /*budget=*/1, 0});
  analysis::Filter tx_filter(t.client, /*seed=*/32);
  t.server_ch->set_on_msg([](Channel& ch, Msg&& m) {
    if (m.is_rpc_req) ch.reply(m.rpc_id, Buffer::from_string("ok"));
  });
  auto burst = [&] {
    for (const std::size_t len : {64u, 200u, 2048u, 16384u}) {
      ASSERT_EQ(t.client_ch->send_msg(Buffer::make(len)), Errc::ok);
    }
    t.client_ch->call(Buffer::from_string("req"), [](Result<Msg>) {});
  };
  burst();
  t.run(millis(5));
  tx_filter.kill_qp(*t.client_ch);
  burst();
  t.run(millis(50));
  ASSERT_EQ(t.client_ch->state(), Channel::State::established);
  ASSERT_EQ(t.server_ch->stats().crc_failures_rx, 1u);
  ASSERT_GE(t.client_ch->stats().recoveries_completed, 1u);

  analysis::ContextMetrics metrics(t.client);
  const std::vector<std::pair<const char*, std::string>> surfaces = {
      {"xr_stat client", tools::xr_stat(t.client)},
      {"xr_stat server", tools::xr_stat(t.server)},
      {"xr_stat_summary client", tools::xr_stat_summary(t.client)},
      {"xr_stat_summary server", tools::xr_stat_summary(t.server)},
      {"xr_stat_json client", tools::xr_stat_json(t.client)},
      {"xr_stat_json server", tools::xr_stat_json(t.server)},
      {"xr_stat_metrics client", tools::xr_stat_metrics(t.client)},
      {"xr_stat_metrics server", tools::xr_stat_metrics(t.server)},
      {"prometheus_render client",
       analysis::prometheus_render(metrics.registry())},
  };
  const std::vector<std::string> pinned = {
      "94954d7479234041", "4dc309c9e9eb4d2e", "a7f1a1b38e1a48bf",
      "ac885604da7d9c2d", "36ca814bdde93a3d", "2d439a5c73698f77",
      "74d463b796147fb8", "4caa4bf93011648d", "45f7a6fbbf790743",
  };
  ASSERT_EQ(surfaces.size(), pinned.size());
  for (std::size_t i = 0; i < surfaces.size(); ++i) {
    EXPECT_EQ(fnv1a_hex(surfaces[i].second), pinned[i])
        << surfaces[i].first << " changed; it now reads:\n"
        << surfaces[i].second;
  }
}

TEST(XrAdm, DumpAllWritesDecodableFlightDumps) {
  Pair t;
  t.establish();
  t.client_ch->send_msg(Buffer::make(64));
  t.run(millis(5));

  tools::XrAdm adm(t.cluster.engine());
  adm.manage(t.server);
  adm.manage(t.client);
  const std::string prefix = ::testing::TempDir() + "adm_fleet";
  std::vector<std::string> written;
  adm.dump_all(prefix, [&](std::vector<std::string> paths) {
    written = std::move(paths);
  });
  t.run(millis(5));

  ASSERT_EQ(written.size(), 2u);
  EXPECT_EQ(written[0], prefix + ".node1.xrd");
  EXPECT_EQ(written[1], prefix + ".node0.xrd");
  for (const std::string& path : written) {
    analysis::Dump dump;
    ASSERT_TRUE(analysis::decode_xrd_file(path, dump)) << path;
    EXPECT_EQ(dump.reason, "manual");
    ASSERT_FALSE(dump.records.empty());
    // The trigger record is the cut point: last in the ring.
    EXPECT_EQ(dump.records.back().type,
              static_cast<std::uint16_t>(analysis::RecEvent::trigger));
    EXPECT_FALSE(dump.metrics.empty());
  }
}

TEST(MetricsEndpoint, ServesPrometheusTextOverManagementNetwork) {
  Pair t;
  t.establish();
  t.server_ch->set_on_msg([](Channel&, Msg&&) {});
  for (int i = 0; i < 5; ++i) t.client_ch->send_msg(Buffer::make(200));
  t.run(millis(5));

  // Endpoint on the client's host; scraped from the server's host over the
  // simulated management TCP network.
  tools::MetricsEndpoint endpoint(t.client, t.cluster.host(0), 9100);
  std::string body;
  bool failed = false;
  tools::scrape_metrics(t.cluster.host(1), 0, 9100,
                        [&](Result<std::string> r) {
                          if (r.ok()) {
                            body = r.value();
                          } else {
                            failed = true;
                          }
                        });
  t.run(millis(50));

  ASSERT_FALSE(failed);
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(endpoint.scrapes(), 1u);
  EXPECT_NE(body.find("# TYPE xrdma_chan_msgs_tx counter"),
            std::string::npos);
  EXPECT_NE(body.find("xrdma_chan_msgs_tx 5\n"), std::string::npos);
  EXPECT_NE(body.find("xrdma_health_peer_phi{peer=\"1\"}"),
            std::string::npos);
  // Content-Length framing lost nothing: the body is complete lines and
  // carries the full registry (same family count as a local render).
  EXPECT_EQ(body.back(), '\n');
  const std::string local = endpoint.text();
  auto count_types = [](const std::string& s) {
    std::size_t n = 0;
    for (auto pos = s.find("# TYPE "); pos != std::string::npos;
         pos = s.find("# TYPE ", pos + 7)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count_types(body), count_types(local));
}

}  // namespace
}  // namespace xrdma

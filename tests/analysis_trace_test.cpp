// Latency-decomposition tracing: SpanCollector stitching and stage
// decomposition, clock-offset correction, Chrome-trace export, the
// MetricsRegistry one-source path, trace-id uniqueness, ERPC trace
// propagation (including Read-replace-Write responses), and the poll-gap
// watchdog.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <set>
#include <string>

#include "analysis/clock_sync.hpp"
#include "analysis/metrics.hpp"
#include "analysis/monitor.hpp"
#include "analysis/trace.hpp"
#include "apps/erpc.hpp"
#include "core/context.hpp"
#include "tools/xr_perf.hpp"
#include "tools/xr_stat.hpp"
#include "pair.hpp"

namespace xrdma {
namespace {

using analysis::ContextMetrics;
using analysis::MetricsRegistry;
using analysis::SpanChain;
using analysis::SpanCollector;
using core::Channel;
using core::Config;
using core::Context;
using core::Msg;

using test::Pair;

/// Minimal strict JSON syntax checker (objects, arrays, strings, numbers,
/// literals) — enough to assert the Chrome-trace export actually parses.
class MiniJson {
 public:
  explicit MiniJson(const std::string& s) : s_(s) {}
  bool parse() {
    std::size_t i = 0;
    if (!value(i)) return false;
    ws(i);
    return i == s_.size();
  }

 private:
  void ws(std::size_t& i) {
    while (i < s_.size() && std::isspace(static_cast<unsigned char>(s_[i]))) {
      ++i;
    }
  }
  bool literal(std::size_t& i, const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(i, n, lit) != 0) return false;
    i += n;
    return true;
  }
  bool string(std::size_t& i) {
    if (i >= s_.size() || s_[i] != '"') return false;
    for (++i; i < s_.size(); ++i) {
      if (s_[i] == '\\') {
        ++i;
      } else if (s_[i] == '"') {
        ++i;
        return true;
      }
    }
    return false;
  }
  bool number(std::size_t& i) {
    const std::size_t start = i;
    if (i < s_.size() && (s_[i] == '-' || s_[i] == '+')) ++i;
    bool digits = false;
    while (i < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i])) || s_[i] == '.' ||
            s_[i] == 'e' || s_[i] == 'E' || s_[i] == '-' || s_[i] == '+')) {
      digits = digits || std::isdigit(static_cast<unsigned char>(s_[i]));
      ++i;
    }
    return digits && i > start;
  }
  bool value(std::size_t& i) {
    ws(i);
    if (i >= s_.size()) return false;
    switch (s_[i]) {
      case '{': {
        ++i;
        ws(i);
        if (i < s_.size() && s_[i] == '}') {
          ++i;
          return true;
        }
        while (true) {
          ws(i);
          if (!string(i)) return false;
          ws(i);
          if (i >= s_.size() || s_[i] != ':') return false;
          ++i;
          if (!value(i)) return false;
          ws(i);
          if (i < s_.size() && s_[i] == ',') {
            ++i;
            continue;
          }
          break;
        }
        if (i >= s_.size() || s_[i] != '}') return false;
        ++i;
        return true;
      }
      case '[': {
        ++i;
        ws(i);
        if (i < s_.size() && s_[i] == ']') {
          ++i;
          return true;
        }
        while (true) {
          if (!value(i)) return false;
          ws(i);
          if (i < s_.size() && s_[i] == ',') {
            ++i;
            continue;
          }
          break;
        }
        if (i >= s_.size() || s_[i] != ']') return false;
        ++i;
        return true;
      }
      case '"':
        return string(i);
      case 't':
        return literal(i, "true");
      case 'f':
        return literal(i, "false");
      case 'n':
        return literal(i, "null");
      default:
        return number(i);
    }
  }
  const std::string& s_;
};

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(SpanCollector, DecompositionSumsToEndToEndLatency) {
  Config cfg;
  cfg.reqrsp_mode = true;
  Pair t(cfg);
  t.establish();
  // Server clock runs 2 ms ahead; the collector knows the exact offset
  // (reference clock = the client's).
  t.server.set_clock_skew(millis(2));
  SpanCollector spans;
  spans.attach(t.client);
  spans.attach(t.server);
  spans.set_node_offset(t.server.node(), millis(2));

  tools::perf_echo_responder(*t.server_ch);

  const Nanos t0 = t.cluster.engine().now();
  Nanos t1 = -1;
  std::uint64_t trace_id = 0;
  t.client_ch->call(Buffer::make(64), [&](Result<Msg> r) {
    ASSERT_TRUE(r.ok());
    t1 = t.cluster.engine().now();
    trace_id = r.value().trace_id;
  });
  t.run(millis(10));
  ASSERT_GT(t1, t0);
  ASSERT_NE(trace_id, 0u);

  const SpanChain* chain = spans.find(trace_id);
  ASSERT_NE(chain, nullptr);
  ASSERT_TRUE(chain->rpc_complete());
  EXPECT_EQ(chain->src, t.client.node());
  EXPECT_EQ(chain->dst, t.server.node());

  const auto stages = spans.decompose(*chain);
  ASSERT_EQ(stages.size(), 7u);  // post..rsp_pickup
  Nanos sum = 0;
  for (const auto& s : stages) {
    // With the exact offset registered every stage is individually sane:
    // non-negative and far below the 2 ms skew that would leak in if the
    // correction were wrong.
    EXPECT_GE(s.duration, 0) << s.name;
    EXPECT_LT(s.duration, micros(100)) << s.name;
    sum += s.duration;
  }
  const Nanos observed = t1 - t0;
  EXPECT_NEAR(static_cast<double>(sum), static_cast<double>(observed),
              static_cast<double>(micros(1)));
  EXPECT_EQ(spans.total(*chain), sum);
}

TEST(SpanCollector, ClockSyncEstimatedOffsetKeepsStagesSane) {
  Config cfg;
  cfg.reqrsp_mode = true;
  Pair t(cfg);
  t.establish();
  t.server.set_clock_skew(millis(5));
  analysis::serve_clock_sync(*t.server_ch);

  analysis::ClockSyncResult sync;
  bool synced = false;
  analysis::run_clock_sync(*t.client_ch, 8, [&](analysis::ClockSyncResult r) {
    sync = r;
    synced = true;
  });
  t.run(millis(20));
  ASSERT_TRUE(synced);

  // Attach after the sync so only the probe-free RPC below is collected,
  // and feed the *estimated* offset in.
  SpanCollector spans;
  spans.attach(t.client);
  spans.attach(t.server);
  spans.set_node_offset(t.server.node(), sync.offset);

  tools::perf_echo_responder(*t.server_ch);
  std::uint64_t trace_id = 0;
  t.client_ch->call(Buffer::make(64), [&](Result<Msg> r) {
    ASSERT_TRUE(r.ok());
    trace_id = r.value().trace_id;
  });
  t.run(millis(10));

  const SpanChain* chain = spans.find(trace_id);
  ASSERT_NE(chain, nullptr);
  ASSERT_TRUE(chain->rpc_complete());
  for (const auto& s : spans.decompose(*chain)) {
    // Offset estimation error is bounded by path asymmetry (microseconds),
    // so corrected cross-host stages stay nowhere near the 5 ms skew.
    EXPECT_GT(s.duration, -micros(10)) << s.name;
    EXPECT_LT(s.duration, micros(100)) << s.name;
  }
}

TEST(SpanCollector, ChromeTraceJsonParsesWithOneChainPerMessage) {
  Config cfg;
  cfg.reqrsp_mode = true;
  Pair t(cfg);
  t.establish();
  SpanCollector spans;
  spans.attach(t.client);
  spans.attach(t.server);
  tools::perf_echo_responder(*t.server_ch);

  constexpr int kCalls = 5;
  int done = 0;
  for (int i = 0; i < kCalls; ++i) {
    t.client_ch->call(Buffer::make(64),
                      [&](Result<Msg> r) { done += r.ok() ? 1 : 0; });
  }
  t.run(millis(20));
  ASSERT_EQ(done, kCalls);
  EXPECT_EQ(spans.complete_chains(), static_cast<std::size_t>(kCalls));

  const std::string json = spans.chrome_trace_json();
  MiniJson parser(json);
  EXPECT_TRUE(parser.parse()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // One complete chain = all seven stage events, once per traced message.
  for (const char* stage : {"\"name\":\"post\"", "\"name\":\"wire\"",
                            "\"name\":\"pickup\"", "\"name\":\"handler\"",
                            "\"name\":\"rsp_post\"", "\"name\":\"rsp_wire\"",
                            "\"name\":\"rsp_pickup\""}) {
    EXPECT_EQ(count_occurrences(json, stage), static_cast<std::size_t>(kCalls))
        << stage;
  }
}

TEST(SpanCollector, OneWayMessagesFormCompleteForwardChains) {
  Config cfg;
  cfg.reqrsp_mode = true;
  Pair t(cfg);
  t.establish();
  SpanCollector spans;
  spans.attach(t.client);
  spans.attach(t.server);
  t.server_ch->set_on_msg([](Channel&, Msg&&) {});

  t.client_ch->send_msg(Buffer::make(256));
  t.run(millis(10));
  ASSERT_EQ(spans.complete_chains(), 1u);
  const SpanChain& chain = spans.chains().front();
  EXPECT_FALSE(chain.is_rpc);
  const auto stages = spans.decompose(chain);
  ASSERT_EQ(stages.size(), 3u);  // post, wire, pickup
  Nanos sum = 0;
  for (const auto& s : stages) sum += s.duration;
  EXPECT_EQ(sum, spans.total(chain));
  EXPECT_GT(sum, micros(1));
  EXPECT_LT(sum, micros(100));
}

TEST(TraceIds, UniqueAcrossContexts) {
  // Channel ids and seqs restart per context: without the context epoch in
  // the id, the first channels of two contexts mint identical trace ids.
  Config cfg;
  cfg.reqrsp_mode = true;
  Pair a(cfg), b(cfg);
  a.establish();
  b.establish();
  SpanCollector sa, sb;
  sa.attach(a.client);
  sa.attach(a.server);
  sb.attach(b.client);
  sb.attach(b.server);
  a.server_ch->set_on_msg([](Channel&, Msg&&) {});
  b.server_ch->set_on_msg([](Channel&, Msg&&) {});

  constexpr int kMsgs = 50;
  for (int i = 0; i < kMsgs; ++i) {
    a.client_ch->send_msg(Buffer::make(32));
    b.client_ch->send_msg(Buffer::make(32));
  }
  a.run(millis(20));
  b.run(millis(20));
  ASSERT_EQ(sa.complete_chains(), static_cast<std::size_t>(kMsgs));
  ASSERT_EQ(sb.complete_chains(), static_cast<std::size_t>(kMsgs));

  std::set<std::uint64_t> ids;
  for (const auto& c : sa.chains()) ids.insert(c.trace_id);
  for (const auto& c : sb.chains()) ids.insert(c.trace_id);
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(2 * kMsgs));
}

TEST(Erpc, PropagatesTraceAcrossReadReplaceWriteResponse) {
  Config cfg;
  cfg.reqrsp_mode = true;
  testbed::Cluster cluster;
  Context sctx(cluster.rnic(1), cluster.cm(), cfg);
  Context cctx(cluster.rnic(0), cluster.cm(), cfg);
  SpanCollector spans;
  spans.attach(sctx);
  spans.attach(cctx);

  // Response far above small_msg_size: the requester RDMA-Reads it
  // (Read-replace-Write), and the trace id must survive that path.
  const std::uint32_t kRspBytes = 64 * 1024;
  apps::erpc::Server server(sctx, 7100);
  server.register_method(1, [&](apps::erpc::Server::Call call) {
    call.respond(Buffer::make(kRspBytes));
  });

  apps::erpc::ClientStub stub(cctx, 1, 7100);
  bool connected = false;
  stub.connect([&](Errc e) { connected = e == Errc::ok; });
  cluster.engine().run_for(millis(20));
  ASSERT_TRUE(connected);
  sctx.config().poll_mode = core::PollMode::busy;
  cctx.config().poll_mode = core::PollMode::busy;
  sctx.start_polling_loop();
  cctx.start_polling_loop();

  std::size_t rsp_size = 0;
  stub.call(1, Buffer::make(100), [&](Result<Buffer> r) {
    ASSERT_TRUE(r.ok());
    rsp_size = r.value().size();
  });
  cluster.engine().run_for(millis(50));
  ASSERT_EQ(rsp_size, kRspBytes);

  ASSERT_EQ(spans.complete_chains(), 1u);
  const SpanChain& chain = spans.chains().front();
  EXPECT_TRUE(chain.is_rpc);
  EXPECT_TRUE(chain.rpc_complete());
  EXPECT_GT(chain.rsp_bytes, kRspBytes);  // payload + RPC envelope
  // The rendezvous pull shows up as response pickup (assembly) time.
  const auto stages = spans.decompose(chain);
  ASSERT_EQ(stages.size(), 7u);
  EXPECT_GT(spans.total(chain), micros(5));
}

TEST(MetricsRegistry, SnapshotAndDeltaSemantics) {
  MetricsRegistry reg;
  reg.counter("a") = 10;
  reg.gauge("g") = 2.5;
  reg.histogram("h").record(1000);
  EXPECT_TRUE(reg.has("a"));
  EXPECT_TRUE(reg.has("h"));
  EXPECT_FALSE(reg.has("nope"));
  EXPECT_EQ(reg.value("a"), 10.0);
  EXPECT_EQ(reg.value("g"), 2.5);

  const auto snap = reg.snapshot();
  reg.counter("a") += 7;
  reg.counter("fresh") = 3;
  reg.gauge("g") = 1.0;
  const auto delta = reg.delta_since(snap);
  EXPECT_EQ(delta.value("a"), 7.0);
  EXPECT_EQ(delta.value("fresh"), 3.0);
  EXPECT_EQ(delta.value("g"), -1.5);

  const std::string rendered = reg.render();
  EXPECT_NE(rendered.find("a"), std::string::npos);
  EXPECT_NE(rendered.find("n=1"), std::string::npos);  // histogram summary
}

TEST(ContextMetrics, BridgesChannelAndContextStatsIntoOneRegistry) {
  Pair t;
  t.establish();
  t.server_ch->set_on_msg([](Channel&, Msg&&) {});
  for (int i = 0; i < 10; ++i) t.client_ch->send_msg(Buffer::make(64));
  t.run(millis(10));

  ContextMetrics cm(t.client);
  MetricsRegistry& reg = cm.registry();
  EXPECT_EQ(reg.value("chan.msgs_tx"), 10.0);
  EXPECT_GT(reg.value("ctx.polls"), 0.0);
  EXPECT_EQ(reg.value("ctx.channels_opened"), 1.0);

  const auto snap = reg.snapshot();
  for (int i = 0; i < 5; ++i) t.client_ch->send_msg(Buffer::make(64));
  t.run(millis(10));
  const auto delta = cm.registry().delta_since(snap);
  EXPECT_EQ(delta.value("chan.msgs_tx"), 5.0);

  const std::string dump = tools::xr_stat_metrics(t.client);
  EXPECT_NE(dump.find("chan.msgs_tx"), std::string::npos);
  EXPECT_NE(dump.find("ctx.rpc_latency"), std::string::npos);
}

TEST(Monitor, TracksMetricsRegistryValues) {
  Pair t;
  t.establish();
  t.server_ch->set_on_msg([](Channel&, Msg&&) {});
  ContextMetrics cm(t.client);
  analysis::Monitor mon(t.cluster.engine(), millis(1));
  mon.track_metric(cm, "chan.msgs_tx");
  mon.start();
  for (int i = 0; i < 20; ++i) t.client_ch->send_msg(Buffer::make(64));
  t.run(millis(10));
  mon.stop();
  const auto& s = mon.series("chan.msgs_tx");
  ASSERT_GE(s.samples.size(), 5u);
  EXPECT_EQ(s.last(), 20.0);
}

TEST(XrPerf, DecomposeFillsPerStageReport) {
  Config cfg;
  cfg.reqrsp_mode = true;
  Pair t(cfg);
  t.establish();
  SpanCollector spans;
  spans.attach(t.client);
  spans.attach(t.server);
  tools::perf_echo_responder(*t.server_ch);

  tools::PerfOptions opts;
  opts.total_msgs = 50;
  opts.msg_size = 64;
  opts.decompose = true;
  opts.spans = &spans;
  tools::PerfReport report;
  bool done = false;
  tools::xr_perf(*t.client_ch, opts, [&](tools::PerfReport r) {
    report = std::move(r);
    done = true;
  });
  t.run(millis(100));
  ASSERT_TRUE(done);
  EXPECT_EQ(report.completed, 50u);
  for (const char* stage :
       {"post", "wire", "pickup", "handler", "rsp_pickup", "total"}) {
    EXPECT_NE(report.decomposition.find(stage), std::string::npos) << stage;
  }
  EXPECT_NE(tools::xr_stat_trace(spans).find("latency decomposition"),
            std::string::npos);
}

TEST(PollWatchdog, FlagsContextsWithSlowPollGaps) {
  testbed::Cluster cluster;
  Context stalled(cluster.rnic(0), cluster.cm());
  Context healthy(cluster.rnic(1), cluster.cm());
  stalled.config().polling_warn_cycle = millis(1);

  stalled.polling();
  healthy.polling();
  cluster.engine().run_for(millis(5));  // nobody polls: a 5 ms gap
  stalled.polling();
  EXPECT_GE(stalled.stats().slow_polls, 1u);

  const std::string report =
      analysis::poll_watchdog_report({&stalled, &healthy});
  EXPECT_NE(report.find("STALL"), std::string::npos);
  EXPECT_NE(report.find("OK"), std::string::npos);
  EXPECT_NE(report.find("worst_gap"), std::string::npos);
}

}  // namespace
}  // namespace xrdma

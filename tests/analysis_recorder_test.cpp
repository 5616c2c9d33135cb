// X-Ray flight recorder: ring mechanics, .xrd encode/decode, dump
// triggers on live contexts, and the xr_triage post-mortem decoder.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/recorder.hpp"
#include "core/context.hpp"
#include "tools/xr_triage.hpp"
#include "pair.hpp"

namespace xrdma {
namespace {

using analysis::Dump;
using analysis::FlightRecorder;
using analysis::Rec;
using analysis::RecEvent;
using analysis::TrigReason;
using core::Channel;
using core::Config;
using core::Context;

using test::Pair;

std::size_t count_events(const std::vector<Rec>& recs, RecEvent type) {
  std::size_t n = 0;
  for (const Rec& r : recs) {
    if (r.type == static_cast<std::uint16_t>(type)) ++n;
  }
  return n;
}

TEST(FlightRecorderRing, WrapKeepsNewestOldestFirst) {
  FlightRecorder rec(8);
  EXPECT_EQ(rec.capacity(), 8u);
  for (int i = 0; i < 20; ++i) {
    rec.log(i, RecEvent::msg_tx_sample, 0, 1, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(rec.appended(), 20u);
  EXPECT_EQ(rec.size(), 8u);
  const auto recs = rec.records();
  ASSERT_EQ(recs.size(), 8u);
  // Oldest surviving record is append #12; newest is #19.
  EXPECT_EQ(recs.front().t, 12);
  EXPECT_EQ(recs.back().t, 19);
  for (std::size_t i = 1; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].t, recs[i - 1].t + 1);  // strictly in append order
  }
}

TEST(FlightRecorderRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(5).capacity(), 8u);
  EXPECT_EQ(FlightRecorder(1).capacity(), 1u);
  EXPECT_EQ(FlightRecorder(4096).capacity(), 4096u);
}

TEST(FlightRecorderRing, DisabledRecorderLogsAndSamplesNothing) {
  FlightRecorder rec(8);
  rec.set_enabled(false);
  rec.log(1, RecEvent::chan_state);
  EXPECT_EQ(rec.appended(), 0u);
  EXPECT_FALSE(rec.sample(0));  // sampling gate also closed
  rec.set_enabled(true);
  rec.log(2, RecEvent::chan_state);
  EXPECT_EQ(rec.appended(), 1u);
  // mask 63: one id in 64 samples.
  rec.set_sample_mask(63);
  EXPECT_TRUE(rec.sample(0));
  EXPECT_FALSE(rec.sample(1));
  EXPECT_TRUE(rec.sample(64));
}

Dump make_dump() {
  Dump d;
  d.node = 3;
  d.dumped_at = micros(1500);
  d.reason = "peer_dead";
  Rec r;
  r.t = micros(1499);
  r.type = static_cast<std::uint16_t>(RecEvent::peer_dead);
  r.code = 7;
  r.chan = 1;
  r.a = 42;
  r.b = 99;
  d.records.push_back(r);
  r.type = static_cast<std::uint16_t>(RecEvent::trigger);
  r.code = static_cast<std::uint16_t>(TrigReason::peer_dead);
  d.records.push_back(r);
  d.metrics.emplace_back("chan.msgs_tx", 123.0);
  d.metrics.emplace_back("health.peers_dead", 1.0);
  return d;
}

TEST(XrdCodec, RoundTripPreservesEverything) {
  const Dump d = make_dump();
  const auto bytes = analysis::encode_xrd(d);
  Dump out;
  ASSERT_TRUE(analysis::decode_xrd(bytes.data(), bytes.size(), out));
  EXPECT_EQ(out.version, d.version);
  EXPECT_EQ(out.node, 3u);
  EXPECT_EQ(out.dumped_at, micros(1500));
  EXPECT_EQ(out.reason, "peer_dead");
  ASSERT_EQ(out.records.size(), 2u);
  EXPECT_EQ(out.records[0].type,
            static_cast<std::uint16_t>(RecEvent::peer_dead));
  EXPECT_EQ(out.records[0].code, 7);
  EXPECT_EQ(out.records[0].chan, 1u);
  EXPECT_EQ(out.records[0].a, 42u);
  EXPECT_EQ(out.records[0].b, 99u);
  ASSERT_EQ(out.metrics.size(), 2u);
  EXPECT_EQ(out.metrics[0].first, "chan.msgs_tx");
  EXPECT_EQ(out.metrics[0].second, 123.0);
  // The file carries its own event-name table: a decoder build with a
  // different enum still names this build's events.
  EXPECT_EQ(out.event_name(static_cast<std::uint16_t>(RecEvent::peer_dead)),
            "peer_dead");
  EXPECT_EQ(out.event_name(9999), "unknown");
}

TEST(XrdCodec, EncodingIsDeterministic) {
  const Dump d = make_dump();
  EXPECT_EQ(analysis::encode_xrd(d), analysis::encode_xrd(d));
}

TEST(XrdCodec, RejectsTruncationAndBadMagic) {
  const Dump d = make_dump();
  auto bytes = analysis::encode_xrd(d);
  Dump out;
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, bytes.size() / 2,
                          bytes.size() - 1}) {
    EXPECT_FALSE(analysis::decode_xrd(bytes.data(), cut, out))
        << "accepted a dump truncated to " << cut << " bytes";
  }
  bytes[0] ^= 0xff;
  EXPECT_FALSE(analysis::decode_xrd(bytes.data(), bytes.size(), out));
}

TEST(XrdCodec, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "recorder_roundtrip.xrd";
  const Dump d = make_dump();
  ASSERT_TRUE(analysis::write_xrd_file(path, d));
  Dump out;
  ASSERT_TRUE(analysis::decode_xrd_file(path, out));
  EXPECT_EQ(analysis::encode_xrd(out), analysis::encode_xrd(d));
  EXPECT_FALSE(analysis::decode_xrd_file(path + ".missing", out));
}

TEST(RecorderContext, ChannelLifecycleLandsInRing) {
  Pair t;
  t.establish();
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(t.client_ch->send_msg(Buffer::make(256)), Errc::ok);
  }
  t.run(millis(10));
  t.client_ch->close();
  t.run(millis(10));

  const auto recs = t.client.recorder().records();
  EXPECT_GE(count_events(recs, RecEvent::cm_connect), 1u);
  // close() drives established -> closing -> closed: two transitions.
  EXPECT_GE(count_events(recs, RecEvent::chan_state), 2u);
}

TEST(RecorderContext, PeerDeathTriggersDumpHookWithCausalRecords) {
  Config cfg;
  cfg.keepalive_intv = millis(2);
  cfg.keepalive_timeout = millis(10);
  Pair t(cfg);
  t.establish();
  t.run(millis(20));

  std::vector<std::string> reasons;
  Dump cut;
  t.client.set_dump_hook([&](Context& ctx, const std::string& reason) {
    reasons.push_back(reason);
    if (reason == "peer_dead") {
      cut = analysis::snapshot_dump(ctx, reason);
    }
  });
  t.cluster.host(1).set_alive(false);
  t.run(millis(500));

  ASSERT_FALSE(reasons.empty());
  bool saw_peer_dead = false;
  for (const auto& r : reasons) saw_peer_dead |= (r == "peer_dead");
  EXPECT_TRUE(saw_peer_dead);
  EXPECT_EQ(cut.node, t.client.node());
  EXPECT_GE(count_events(cut.records, RecEvent::peer_dead), 1u);
  EXPECT_GE(count_events(cut.records, RecEvent::trigger), 1u);
}

TEST(RecorderContext, DumpHookMayLogReentrantly) {
  Pair t;
  t.establish();
  // A hook that writes into the very ring being dumped must not corrupt
  // anything: snapshot_dump reads a copy.
  t.client.set_dump_hook([](Context& ctx, const std::string&) {
    ctx.recorder().log(ctx.engine().now(), RecEvent::none, 0xbeef);
    const Dump d = analysis::snapshot_dump(ctx, "reentrant");
    EXPECT_FALSE(d.records.empty());
  });
  const auto before = t.client.recorder().appended();
  t.client.trigger_dump(TrigReason::manual);
  // trigger record + the hook's own record.
  EXPECT_EQ(t.client.recorder().appended(), before + 2);
}

TEST(RecorderContext, OnlineFlagTakesEffectAtOnceAndStays) {
  Pair t;
  t.establish();
  ASSERT_TRUE(t.client.recorder().enabled());
  ASSERT_EQ(t.client.set_flag("recorder_enabled", 0), Errc::ok);
  EXPECT_FALSE(t.client.recorder().enabled());
  const auto frozen = t.client.recorder().appended();
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(t.client_ch->send_msg(Buffer::make(256)), Errc::ok);
  }
  t.run(millis(50));  // many scan ticks: none turns the ring back on
  EXPECT_FALSE(t.client.recorder().enabled());
  EXPECT_EQ(t.client.recorder().appended(), frozen);
  ASSERT_EQ(t.client.set_flag("recorder_sample_mask", 0), Errc::ok);
  ASSERT_EQ(t.client.set_flag("recorder_enabled", 1), Errc::ok);
  EXPECT_TRUE(t.client.recorder().enabled());
  EXPECT_EQ(t.client.recorder().sample_mask(), 0u);  // sample everything
}

TEST(Triage, VerdictNamesTheKillingEventAfterPeerKill) {
  Config cfg;
  cfg.keepalive_intv = millis(2);
  cfg.keepalive_timeout = millis(10);
  Pair t(cfg);
  t.establish();
  t.run(millis(20));

  Dump cut;
  t.client.set_dump_hook([&](Context& ctx, const std::string& reason) {
    if (reason == "peer_dead" && cut.records.empty()) {
      cut = analysis::snapshot_dump(ctx, reason);
    }
  });
  t.cluster.host(1).set_alive(false);
  t.run(millis(500));
  ASSERT_FALSE(cut.records.empty());

  const tools::TriageReport report = tools::xr_triage(cut);
  // The verdict names the dead peer (node 1) as the killing event.
  EXPECT_NE(report.verdict.find("peer 1 declared dead"), std::string::npos)
      << report.verdict;
  EXPECT_NE(report.timeline.find("DECLARED DEAD"), std::string::npos);
  EXPECT_NE(report.timeline.find("DUMP TRIGGER: peer_dead"),
            std::string::npos);
  // Metrics snapshot rode along.
  EXPECT_NE(report.metrics.find("health.dead_declarations"),
            std::string::npos);
  const std::string full = report.render();
  EXPECT_NE(full.find("verdict:"), std::string::npos);
  EXPECT_NE(full.find("== timeline =="), std::string::npos);
}

TEST(Triage, FileWorkflowAndTailLimit) {
  Pair t;
  t.establish();
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(t.client_ch->send_msg(Buffer::make(128)), Errc::ok);
  }
  t.run(millis(10));
  t.client.trigger_dump(TrigReason::manual);
  const Dump d = analysis::snapshot_dump(t.client, "manual");
  const std::string path = ::testing::TempDir() + "triage_manual.xrd";
  ASSERT_TRUE(analysis::write_xrd_file(path, d));

  auto r = tools::xr_triage_file(path);
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.value().verdict.find("manual dump"), std::string::npos);

  tools::TriageOptions tail_opts;
  tail_opts.tail = 2;
  const tools::TriageReport tailed = tools::xr_triage(d, tail_opts);
  std::size_t lines = 0;
  for (char c : tailed.timeline) lines += (c == '\n');
  EXPECT_EQ(lines, 2u);

  EXPECT_FALSE(tools::xr_triage_file(path + ".missing").ok());
}

}  // namespace
}  // namespace xrdma

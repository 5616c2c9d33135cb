// The ERPC framework (§VII-B's consumer) and the XR-Server monitoring
// daemon (Fig. 6's central monitor).
#include <gtest/gtest.h>

#include <memory>

#include "apps/erpc.hpp"
#include "testbed/cluster.hpp"
#include "tools/xr_server.hpp"

namespace xrdma {
namespace {

using apps::erpc::ClientStub;
using apps::erpc::Server;
using apps::erpc::WireReader;
using apps::erpc::WireWriter;

TEST(ErpcWire, VarintRoundTripsEdgeValues) {
  for (const std::uint64_t v :
       {0ull, 1ull, 127ull, 128ull, 300ull, 0xffffffffull,
        0xffffffffffffffffull}) {
    WireWriter w;
    w.put_varint(v);
    WireReader r(w.finish());
    const auto out = r.varint();
    ASSERT_TRUE(out.has_value()) << v;
    EXPECT_EQ(*out, v);
  }
}

TEST(ErpcWire, MixedFieldsRoundTrip) {
  WireWriter w;
  w.put_u32(7);
  w.put_string("key");
  w.put_u64(1234567890123ull);
  w.put_string(std::string(1000, 'z'));
  WireReader r(w.finish());
  EXPECT_EQ(r.varint().value(), 7u);
  EXPECT_EQ(r.string().value(), "key");
  EXPECT_EQ(r.varint().value(), 1234567890123ull);
  EXPECT_EQ(r.string()->size(), 1000u);
  EXPECT_TRUE(r.exhausted());
  EXPECT_TRUE(r.ok());
}

TEST(ErpcWire, TruncatedInputFailsGracefully) {
  WireWriter w;
  w.put_string("hello");
  Buffer full = w.finish();
  Buffer cut = Buffer::make(2);
  std::memcpy(cut.data(), full.data(), 2);
  WireReader r(cut);
  EXPECT_FALSE(r.string().has_value());
  EXPECT_FALSE(r.ok());
}

struct ErpcRig {
  testbed::Cluster cluster;
  core::Context server_ctx;
  core::Context client_ctx;
  Server server;
  ClientStub stub;

  ErpcRig()
      : server_ctx(cluster.rnic(1), cluster.cm()),
        client_ctx(cluster.rnic(0), cluster.cm()),
        server(server_ctx, 7300),
        stub(client_ctx, 1, 7300) {
    server_ctx.start_polling_loop();
    client_ctx.start_polling_loop();
  }

  bool connect() {
    bool ok = false;
    stub.connect([&](Errc e) { ok = e == Errc::ok; });
    cluster.engine().run_for(millis(20));
    return ok;
  }
};

TEST(Erpc, TypedKvServiceEndToEnd) {
  ErpcRig rig;
  // A tiny KV service: method 1 = put(key, value), method 2 = get(key).
  auto store = std::make_shared<std::map<std::string, std::string>>();
  rig.server.register_method(1, [store](Server::Call call) {
    WireReader r(call.request);
    const auto key = r.string();
    const auto value = r.string();
    if (!key || !value) {
      call.respond_error(Errc::bad_message);
      return;
    }
    (*store)[*key] = *value;
    call.respond({});
  });
  rig.server.register_method(2, [store](Server::Call call) {
    WireReader r(call.request);
    const auto key = r.string();
    auto it = key ? store->find(*key) : store->end();
    if (it == store->end()) {
      call.respond_error(Errc::not_found);
      return;
    }
    WireWriter w;
    w.put_string(it->second);
    call.respond(w.finish());
  });
  ASSERT_TRUE(rig.connect());

  WireWriter put;
  put.put_string("alpha");
  put.put_string("beta");
  bool put_ok = false;
  rig.stub.call(1, put.finish(), [&](Result<Buffer> r) { put_ok = r.ok(); });
  rig.cluster.engine().run_for(millis(5));
  ASSERT_TRUE(put_ok);

  WireWriter get;
  get.put_string("alpha");
  std::string value;
  rig.stub.call(2, get.finish(), [&](Result<Buffer> r) {
    ASSERT_TRUE(r.ok());
    WireReader rd(r.value());
    value = rd.string().value_or("");
  });
  rig.cluster.engine().run_for(millis(5));
  EXPECT_EQ(value, "beta");
  EXPECT_EQ(rig.server.calls_served(), 2u);
}

TEST(Erpc, UnknownMethodReturnsNotFound) {
  ErpcRig rig;
  ASSERT_TRUE(rig.connect());
  Errc err = Errc::ok;
  rig.stub.call(99, Buffer::make(4), [&](Result<Buffer> r) { err = r.error(); });
  rig.cluster.engine().run_for(millis(5));
  EXPECT_EQ(err, Errc::not_found);
  EXPECT_EQ(rig.server.unknown_methods(), 1u);
}

TEST(Erpc, AsynchronousHandlerResponsesWork) {
  ErpcRig rig;
  rig.server.register_method(5, [&](Server::Call call) {
    // Respond 2 ms later, as a handler that kicked off background work.
    auto respond = call.respond;
    rig.cluster.engine().schedule_after(millis(2), [respond] {
      respond(Buffer::from_string("late"));
    });
  });
  ASSERT_TRUE(rig.connect());
  std::string got;
  rig.stub.call(5, {}, [&](Result<Buffer> r) {
    if (r.ok()) got = r.value().to_string();
  });
  rig.cluster.engine().run_for(millis(10));
  EXPECT_EQ(got, "late");
}

TEST(Erpc, LargeResponseRidesRendezvousPath) {
  ErpcRig rig;
  rig.server.register_method(9, [](Server::Call call) {
    Buffer big = Buffer::make(300 * 1024);
    fill_pattern(big, 12);
    call.respond(std::move(big));
  });
  ASSERT_TRUE(rig.connect());
  bool ok = false;
  rig.stub.call(9, {}, [&](Result<Buffer> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_GE(r.value().size(), 300u * 1024);
    ok = true;
  });
  rig.cluster.engine().run_for(millis(20));
  EXPECT_TRUE(ok);
  EXPECT_GT(rig.stub.channel()->stats().reads_issued, 0u);
}

TEST(Erpc, CallBeforeConnectFails) {
  ErpcRig rig;
  EXPECT_EQ(rig.stub.call(1, {}, [](Result<Buffer>) {}), Errc::unavailable);
}

// ---------------------------------------------------------------------------
// XR-Server.

TEST(XrServerDaemon, AggregatesReportsFromMultipleNodes) {
  testbed::ClusterConfig ccfg;
  ccfg.fabric = net::ClosConfig::rack(4);
  testbed::Cluster cluster(ccfg);
  tools::XrServer central(cluster.host(0), 9500);

  // Three reporting application nodes pushing traffic to each other.
  std::vector<std::unique_ptr<core::Context>> ctxs;
  std::vector<std::unique_ptr<tools::StatsReporter>> reporters;
  for (int i = 1; i <= 3; ++i) {
    ctxs.push_back(std::make_unique<core::Context>(
        cluster.rnic(static_cast<net::NodeId>(i)), cluster.cm()));
    ctxs.back()->start_polling_loop();
    reporters.push_back(std::make_unique<tools::StatsReporter>(
        *ctxs.back(), cluster.host(static_cast<net::NodeId>(i)), 0, 9500,
        millis(5)));
    reporters.back()->start();
  }
  ctxs[0]->listen(7700, [](core::Channel& ch) {
    ch.set_on_msg([](core::Channel& c, core::Msg&& m) {
      if (m.is_rpc_req) c.reply(m.rpc_id, Buffer::make(64));
    });
  });
  core::Channel* ch = nullptr;
  ctxs[1]->connect(1, 7700, [&](Result<core::Channel*> r) { ch = r.value(); });
  cluster.engine().run_for(millis(20));
  ASSERT_NE(ch, nullptr);
  for (int i = 0; i < 50; ++i) {
    ch->call(Buffer::make(2048), [](Result<core::Msg>) {});
  }
  cluster.engine().run_for(millis(100));

  EXPECT_EQ(central.nodes_reporting(), 3u);
  const auto* n2 = central.node(2);
  ASSERT_NE(n2, nullptr);
  EXPECT_GT(n2->reports, 10u);
  EXPECT_GT(n2->last.msgs_tx, 40u);
  EXPECT_GT(n2->last.qp_count, 0u);
  const auto totals = central.cluster_totals();
  EXPECT_GT(totals.bytes_tx, 50u * 2048);
  EXPECT_TRUE(central.stale_nodes(millis(50)).empty());
  EXPECT_NE(central.render().find("tx_gbps"), std::string::npos);
}

TEST(XrServerDaemon, ReporterAndServerReleaseTheirConnection) {
  testbed::Cluster cluster;
  tools::XrServer central(cluster.host(0), 9500);
  core::Context a(cluster.rnic(1), cluster.cm());
  auto reporter = std::make_unique<tools::StatsReporter>(
      a, cluster.host(1), 0, 9500, millis(5));
  reporter->start();
  cluster.engine().run_for(millis(20));
  ASSERT_EQ(central.nodes_reporting(), 1u);
  EXPECT_EQ(cluster.host(1).tcp().conn_count(), 1u);
  reporter.reset();
  cluster.engine().run_for(millis(5));
  EXPECT_EQ(cluster.host(0).tcp().conn_count(), 0u);
  EXPECT_EQ(cluster.host(1).tcp().conn_count(), 0u);
}

TEST(XrServerDaemon, ReporterDestroyedMidDialIsNotWrittenTo) {
  // The first push (at one period) dials the XR-Server, and the TCP
  // handshake takes 100 us. A reporter destroyed inside it must not be
  // written to when the dial completes (ASan reports the use after free),
  // and the connection nobody holds any more must be released.
  testbed::ClusterConfig ccfg;
  ccfg.fabric = net::ClosConfig::rack(3);
  testbed::Cluster cluster(ccfg);
  tools::XrServer central(cluster.host(0), 9500);
  core::Context a(cluster.rnic(1), cluster.cm());
  auto reporter = std::make_unique<tools::StatsReporter>(
      a, cluster.host(1), 0, 9500, millis(5));
  reporter->start();
  cluster.engine().run_for(millis(5) + micros(10));
  // The dial is out; the stack makes the connection when it completes.
  ASSERT_EQ(cluster.host(1).tcp().conn_count(), 0u);
  reporter.reset();
  cluster.engine().run_for(millis(5));
  EXPECT_EQ(central.nodes_reporting(), 0u);
  EXPECT_EQ(cluster.host(0).tcp().conn_count(), 0u);
  EXPECT_EQ(cluster.host(1).tcp().conn_count(), 0u);
}

TEST(XrServerDaemon, FlagsNodesThatStopReporting) {
  testbed::ClusterConfig ccfg;
  ccfg.fabric = net::ClosConfig::rack(3);
  testbed::Cluster cluster(ccfg);
  tools::XrServer central(cluster.host(0), 9500);
  core::Context a(cluster.rnic(1), cluster.cm());
  core::Context b(cluster.rnic(2), cluster.cm());
  tools::StatsReporter ra(a, cluster.host(1), 0, 9500, millis(5));
  tools::StatsReporter rb(b, cluster.host(2), 0, 9500, millis(5));
  ra.start();
  rb.start();
  cluster.engine().run_for(millis(50));
  ASSERT_EQ(central.nodes_reporting(), 2u);

  cluster.host(2).set_alive(false);  // node 2 goes dark
  cluster.engine().run_for(millis(100));
  const auto stale = central.stale_nodes(millis(30));
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0], 2u);
}

}  // namespace
}  // namespace xrdma

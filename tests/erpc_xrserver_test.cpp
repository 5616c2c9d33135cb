// The ERPC framework (§VII-B's consumer) and the XR-Server monitoring
// daemon (Fig. 6's central monitor).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>

#include "analysis/mock.hpp"
#include "apps/erpc.hpp"
#include "sim/timer.hpp"
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

// ---------------------------------------------------------------------------
// Destroy anywhere: every management-plane object owns what it registered,
// so destroying it at any event boundary leaves nothing that calls into it.

/// The management plane of a 3-host rack, each object destroyable on its
/// own: an XrServer on host 0 with StatsReporters on hosts 1 and 2 (1 ms
/// period), a MetricsEndpoint on host 0 scraped from host 2 every 1 ms, and
/// a MockFallback on host 0 that host 1's channel switches onto and, 1 ms
/// later, off again. The contexts poll in event mode, so an idle rack
/// schedules nothing and most events belong to the management plane.
struct ManagementRack {
  static constexpr std::uint16_t kServerPort = 9500;
  static constexpr std::uint16_t kMetricsPort = 9600;
  static constexpr std::uint16_t kMockPort = 9100;

  testbed::Cluster cluster{testbed::ClusterConfig::rack(3)};
  std::vector<std::unique_ptr<core::Context>> ctxs;
  core::Channel* client_ch = nullptr;  // host 1's channel to host 0

  std::unique_ptr<tools::XrServer> server;
  std::unique_ptr<tools::StatsReporter> reporter_a;
  std::unique_ptr<tools::StatsReporter> reporter_b;
  std::unique_ptr<tools::MetricsEndpoint> endpoint;
  std::unique_ptr<analysis::MockFallback> mock;
  // Drivers: the periodic scrape and the channel's switch/restore cycle.
  std::unique_ptr<sim::PeriodicTimer> scraper;
  Registration scrape;
  std::unique_ptr<sim::DeadlineTimer> restore;
  Registration switch_dial;
  int cycles = 0;  // switch/restore cycles completed

  ManagementRack() {
    core::Config cfg;
    cfg.poll_mode = core::PollMode::event;
    for (net::NodeId n = 0; n < 3; ++n) {
      ctxs.push_back(
          std::make_unique<core::Context>(cluster.rnic(n), cluster.cm(), cfg));
      ctxs.back()->start_polling_loop();
    }
    EXPECT_EQ(ctxs[0]->listen(7000, [](core::Channel&) {}), Errc::ok);
    ctxs[1]->connect(0, 7000, [this](Result<core::Channel*> r) {
      if (r) client_ch = r.value();
    });
    run(millis(20));
  }

  /// Creates every object at the current instant.
  void create() {
    sim::Engine& engine = cluster.engine();
    server = std::make_unique<tools::XrServer>(cluster.host(0), kServerPort);
    reporter_a = std::make_unique<tools::StatsReporter>(
        *ctxs[1], cluster.host(1), 0, kServerPort, millis(1));
    reporter_b = std::make_unique<tools::StatsReporter>(
        *ctxs[2], cluster.host(2), 0, kServerPort, millis(1));
    reporter_a->start();
    reporter_b->start();
    endpoint = std::make_unique<tools::MetricsEndpoint>(
        *ctxs[0], cluster.host(0), kMetricsPort);
    mock = std::make_unique<analysis::MockFallback>(
        *ctxs[0], cluster.host(0).tcp(), kMockPort);
    scraper = std::make_unique<sim::PeriodicTimer>(engine, millis(1), [this] {
      scrape = tools::scrape_metrics(cluster.host(2), 0, kMetricsPort,
                                     [](Result<std::string>) {});
    });
    scraper->start();
    restore = std::make_unique<sim::DeadlineTimer>(engine, [this] {
      analysis::MockFallback::restore_rdma(*client_ch);
      ++cycles;
    });
    switch_dial = analysis::MockFallback::switch_to_tcp(
        *client_ch, cluster.host(1).tcp(), kMockPort, [this](Errc e) {
          if (e == Errc::ok) restore->arm_after(millis(1));
        });
  }

  /// Destroys everything, drivers first and contexts last.
  void destroy_all() {
    switch_dial.reset();
    restore.reset();
    scrape.reset();
    scraper.reset();
    mock.reset();
    endpoint.reset();
    reporter_b.reset();
    reporter_a.reset();
    server.reset();
    ctxs.clear();
  }

  std::size_t conns() {
    std::size_t n = 0;
    for (net::NodeId h = 0; h < 3; ++h) n += cluster.host(h).tcp().conn_count();
    return n;
  }

  void run(Nanos d) { cluster.engine().run_for(d); }
};

/// The sweep destroys each object at each of the first kSweptEvents event
/// boundaries after creation.
constexpr int kSweptEvents = 160;

TEST(ManagementPlane, RackDrivesEveryPathWithinTheSweptEvents) {
  // Within the swept events the channel rides the fallback and comes back,
  // a scrape is served and both reporters are heard: each object is
  // destroyed before, during and after each of them.
  ManagementRack rack;
  ASSERT_NE(rack.client_ch, nullptr);
  rack.create();
  for (int i = 0; i < kSweptEvents; ++i) {
    ASSERT_TRUE(rack.cluster.engine().step());
  }
  EXPECT_EQ(rack.cycles, 1);
  EXPECT_FALSE(rack.client_ch->mocked());
  EXPECT_GE(rack.endpoint->scrapes(), 1u);
  EXPECT_EQ(rack.server->nodes_reporting(), 2u);
  rack.destroy_all();
  rack.run(millis(20));
  EXPECT_EQ(rack.conns(), 0u);
}

TEST(ManagementPlane, DestroyAnywhereLeavesNothingBehind) {
  const std::pair<const char*, std::function<void(ManagementRack&)>>
      victims[] = {
          {"XrServer", [](ManagementRack& r) { r.server.reset(); }},
          {"StatsReporter a", [](ManagementRack& r) { r.reporter_a.reset(); }},
          {"StatsReporter b", [](ManagementRack& r) { r.reporter_b.reset(); }},
          {"MetricsEndpoint", [](ManagementRack& r) { r.endpoint.reset(); }},
          {"MockFallback", [](ManagementRack& r) { r.mock.reset(); }},
      };
  for (const auto& [name, destroy] : victims) {
    for (int k = 0; k < kSweptEvents; ++k) {
      ManagementRack rack;
      ASSERT_NE(rack.client_ch, nullptr);
      rack.create();
      for (int i = 0; i < k; ++i) ASSERT_TRUE(rack.cluster.engine().step());
      destroy(rack);
      rack.run(millis(20));
      rack.destroy_all();
      rack.run(millis(20));
      ASSERT_EQ(rack.conns(), 0u) << name << " destroyed " << k
                                  << " events after creation";
    }
  }
}

}  // namespace
}  // namespace xrdma

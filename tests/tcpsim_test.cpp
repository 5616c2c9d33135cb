// TCP model: establishment cost, byte-stream delivery, ordering, window
// behaviour, keepalive, crash detection, and what dropping a listen or dial
// handle undoes.
#include <gtest/gtest.h>

#include <string>

#include "testbed/cluster.hpp"

namespace xrdma::tcpsim {
namespace {

struct TcpPair {
  testbed::Cluster cluster;
  TcpConn* client = nullptr;
  TcpConn* server = nullptr;
  Registration listener;
  Registration dial;

  void establish(std::uint16_t port = 80) {
    listener = cluster.host(1).tcp().listen(
        port, [this](TcpConn& c) { server = &c; });
    dial = cluster.host(0).tcp().connect(1, port, [this](Result<TcpConn*> r) {
      ASSERT_TRUE(r.ok());
      client = r.value();
    });
    cluster.engine().run_for(millis(5));
    ASSERT_NE(client, nullptr);
    ASSERT_NE(server, nullptr);
  }

  void run(Nanos d) { cluster.engine().run_for(d); }
};

TEST(Tcp, EstablishmentTakesRoughly100Microseconds) {
  TcpPair t;
  const Nanos start = t.cluster.engine().now();
  Nanos connected_at = -1;
  t.listener = t.cluster.host(1).tcp().listen(80, [](TcpConn&) {});
  t.dial = t.cluster.host(0).tcp().connect(1, 80, [&](Result<TcpConn*> r) {
    ASSERT_TRUE(r.ok());
    connected_at = t.cluster.engine().now();
  });
  t.run(millis(5));
  // ~100 us vs ~4 ms for rdma_cm: the §III issue-3 comparison.
  EXPECT_EQ(connected_at - start, t.cluster.host(0).tcp().config().handshake_delay);
  EXPECT_LT(connected_at - start, micros(200));
}

TEST(Tcp, ConnectToUnboundPortRefused) {
  TcpPair t;
  Errc err = Errc::ok;
  t.dial = t.cluster.host(0).tcp().connect(
      1, 81, [&](Result<TcpConn*> r) { err = r.error(); });
  t.run(millis(5));
  EXPECT_EQ(err, Errc::connection_refused);
}

TEST(Tcp, StreamDeliversBytesInOrder) {
  TcpPair t;
  t.establish();
  std::string received;
  t.server->set_on_data([&](Buffer b) { received += b.to_string(); });
  t.client->send(Buffer::from_string("hello "));
  t.client->send(Buffer::from_string("tcp "));
  t.client->send(Buffer::from_string("world"));
  t.run(millis(10));
  EXPECT_EQ(received, "hello tcp world");
}

TEST(Tcp, LargeTransferSegmentsAndReassembles) {
  TcpPair t;
  t.establish();
  const std::size_t total = 1u << 20;
  Buffer big = Buffer::make(total);
  fill_pattern(big, 5);
  Buffer assembled = Buffer::make(total);
  std::size_t got = 0;
  t.server->set_on_data([&](Buffer b) {
    std::memcpy(assembled.data() + got, b.data(), b.size());
    got += b.size();
  });
  t.client->send(std::move(big));
  t.run(millis(200));
  ASSERT_EQ(got, total);
  EXPECT_TRUE(check_pattern(assembled, 5));
  EXPECT_EQ(t.server->bytes_delivered(), total);
}

TEST(Tcp, BidirectionalTrafficWorks) {
  TcpPair t;
  t.establish();
  std::string a, b;
  t.server->set_on_data([&](Buffer d) { a += d.to_string(); });
  t.client->set_on_data([&](Buffer d) { b += d.to_string(); });
  t.client->send(Buffer::from_string("ping"));
  t.server->send(Buffer::from_string("pong"));
  t.run(millis(10));
  EXPECT_EQ(a, "ping");
  EXPECT_EQ(b, "pong");
}

TEST(Tcp, KeepaliveDetectsDeadPeer) {
  TcpPair t;
  t.establish();
  t.client->set_keepalive(millis(5), millis(20));
  Errc err = Errc::ok;
  t.client->set_on_error([&](Errc e) { err = e; });
  t.run(millis(10));
  EXPECT_EQ(err, Errc::ok);  // healthy while the peer answers probes
  t.cluster.host(1).set_alive(false);
  t.run(millis(200));
  EXPECT_EQ(err, Errc::peer_dead);
  EXPECT_FALSE(t.client->open());
}

TEST(Tcp, CloseNotifiesPeer) {
  TcpPair t;
  t.establish();
  Errc err = Errc::ok;
  t.server->set_on_error([&](Errc e) { err = e; });
  t.client->close();
  t.run(millis(10));
  EXPECT_EQ(err, Errc::connection_reset);
  EXPECT_FALSE(t.server->open());
}

TEST(Tcp, ReleasedConnsAreErasedByTheNextEvent) {
  TcpPair t;
  t.establish();
  t.server->set_on_error([&](Errc) { t.server->release(); });
  // Two sends in one instant leave a paced send pending on the client.
  ASSERT_EQ(t.client->send(Buffer::make(64)), Errc::ok);
  ASSERT_EQ(t.client->send(Buffer::make(64)), Errc::ok);
  t.client->release();
  EXPECT_FALSE(t.client->open());
  EXPECT_EQ(t.cluster.host(0).tcp().conn_count(), 1u);
  t.run(millis(10));
  EXPECT_EQ(t.cluster.host(0).tcp().conn_count(), 0u);
  EXPECT_EQ(t.cluster.host(1).tcp().conn_count(), 0u);
}

TEST(Tcp, DroppedListenerRefusesDialsAndAbortsItsConns) {
  TcpPair t;
  t.establish();
  Errc server_err = Errc::ok;
  Errc client_err = Errc::ok;
  t.server->set_on_error([&](Errc e) {
    server_err = e;
    t.server->release();
  });
  t.client->set_on_error([&](Errc e) {
    client_err = e;
    t.client->release();
  });
  t.listener.reset();
  EXPECT_EQ(server_err, Errc::cancelled);
  Errc redial = Errc::ok;
  t.dial = t.cluster.host(0).tcp().connect(
      1, 80, [&](Result<TcpConn*> r) { redial = r.error(); });
  t.run(millis(10));
  EXPECT_EQ(client_err, Errc::connection_reset);  // the peer saw the FIN
  EXPECT_EQ(redial, Errc::connection_refused);
  EXPECT_EQ(t.cluster.host(0).tcp().conn_count(), 0u);
  EXPECT_EQ(t.cluster.host(1).tcp().conn_count(), 0u);
}

TEST(Tcp, DroppedDialMakesNoConnAndNeverCallsBack) {
  TcpPair t;
  int accepted = 0;
  bool called = false;
  t.listener =
      t.cluster.host(1).tcp().listen(80, [&](TcpConn&) { ++accepted; });
  t.dial = t.cluster.host(0).tcp().connect(
      1, 80, [&](Result<TcpConn*>) { called = true; });
  t.run(micros(50));  // inside the 100 us handshake
  t.dial.reset();
  t.run(millis(5));
  EXPECT_FALSE(called);
  EXPECT_EQ(accepted, 0);
  EXPECT_EQ(t.cluster.host(0).tcp().conn_count(), 0u);
  EXPECT_EQ(t.cluster.host(1).tcp().conn_count(), 0u);
}

TEST(Tcp, SendOnClosedConnFails) {
  TcpPair t;
  t.establish();
  t.client->close();
  EXPECT_EQ(t.client->send(Buffer::make(8)), Errc::channel_closed);
}

TEST(Tcp, ThroughputReasonableForWindowAndRtt) {
  TcpPair t;
  t.establish();
  const std::size_t total = 8u << 20;
  std::size_t got = 0;
  Nanos finished_at = 0;
  t.server->set_on_data([&](Buffer b) {
    got += b.size();
    if (got >= total) finished_at = t.cluster.engine().now();
  });
  const Nanos start = t.cluster.engine().now();
  t.client->send(Buffer::make(total));
  t.run(seconds(2));
  ASSERT_EQ(got, total);
  const double gbps = static_cast<double>(total) * 8.0 /
                      static_cast<double>(finished_at - start);
  // Far below the 25G line rate (kernel stack + window bound), but not
  // absurdly slow.
  EXPECT_GT(gbps, 1.0);
  EXPECT_LT(gbps, 25.0);
}

}  // namespace
}  // namespace xrdma::tcpsim

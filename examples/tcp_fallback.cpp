// Mock (§VI-C): mid-stream fallback of a live channel from RDMA to TCP and
// back, with the RPC traffic never noticing.
#include <cstdio>

#include "analysis/mock.hpp"
#include "core/context.hpp"
#include "testbed/cluster.hpp"

using namespace xrdma;

int main() {
  testbed::Cluster cluster;
  core::Context server(cluster.rnic(1), cluster.cm());
  core::Context client(cluster.rnic(0), cluster.cm());

  core::Channel* sch = nullptr;
  core::Channel* cch = nullptr;
  server.listen(7000, [&](core::Channel& ch) {
    sch = &ch;
    ch.set_on_msg([](core::Channel& c, core::Msg&& m) {
      if (m.is_rpc_req) c.reply(m.rpc_id, std::move(m.payload));
    });
  });
  client.connect(1, 7000, [&](Result<core::Channel*> r) { cch = r.value(); });
  server.start_polling_loop();
  client.start_polling_loop();
  cluster.run_for(millis(20));

  // Server side arms the fallback listener.
  analysis::MockFallback fallback(server, cluster.host(1).tcp(), 9100);

  auto rpc = [&](const char* label) {
    cch->call(Buffer::from_string(label), [&, label](Result<core::Msg> r) {
      std::printf("[rpc] %-12s -> %s (transport: %s)\n", label,
                  r.ok() ? "ok" : std::string(errc_name(r.error())).c_str(),
                  cch->mocked() ? "TCP" : "RDMA");
    });
  };

  rpc("over-rdma");
  cluster.run_for(millis(5));

  std::printf("[mock] RDMA anomaly detected; switching channel to TCP...\n");
  const Registration dial = analysis::MockFallback::switch_to_tcp(
      *cch, cluster.host(0).tcp(), 9100, [](Errc e) {
        std::printf("[mock] switch result: %s\n",
                    std::string(errc_name(e)).c_str());
      });
  cluster.run_for(millis(5));

  rpc("over-tcp-1");
  rpc("over-tcp-2");
  cluster.run_for(millis(20));

  std::printf("[mock] anomaly cleared; restoring RDMA...\n");
  analysis::MockFallback::restore_rdma(*cch);
  cluster.run_for(millis(5));

  rpc("rdma-again");
  cluster.run_for(millis(20));

  std::printf("channel stats: msgs_tx=%llu mock_tx=%llu\n",
              static_cast<unsigned long long>(cch->stats().msgs_tx),
              static_cast<unsigned long long>(cch->stats().mock_tx));
  return 0;
}

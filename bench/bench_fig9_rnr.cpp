// Figure 9: receiver-not-ready errors, raw RDMA vs X-RDMA.
//
// A bursty sender pushes messages at a receiver whose application polls
// (and re-posts receive buffers) slowly. Raw verbs: the RQ drains and the
// NIC fires RNR NAKs (the paper's production trace averages ~0.91 RNR
// events per interval). X-RDMA: the seq-ack window never lets the sender
// outrun the pre-posted bounce credits — zero RNR by construction.
#include "bench/bench_util.hpp"
#include "verbs/verbs.hpp"

using namespace xrdma;
using namespace xrdma::bench;

namespace {

struct Sample {
  Nanos at;
  std::uint64_t rnr;
};

/// Raw verbs: sender free-runs, receiver reposts buffers only when its
/// slow poll loop runs.
std::vector<Sample> run_raw(Nanos duration, Nanos bucket) {
  testbed::Cluster cluster;
  verbs::Pd spd(cluster.rnic(0)), rpd(cluster.rnic(1));
  verbs::Cq scq = spd.create_cq(4096), rcq = rpd.create_cq(4096);
  verbs::Qp sqp = spd.create_qp(verbs::QpType::rc, scq, scq,
                                {.max_send_wr = 512, .max_recv_wr = 64});
  verbs::Qp rqp = rpd.create_qp(verbs::QpType::rc, rcq, rcq,
                                {.max_send_wr = 64, .max_recv_wr = 64});
  auto wire = [](verbs::Qp& qp, net::NodeId peer, rnic::QpNum pq) {
    verbs::QpAttr a;
    a.state = verbs::QpState::init;
    qp.modify(a);
    a.state = verbs::QpState::rtr;
    a.dest_node = peer;
    a.dest_qp = pq;
    a.rnr_retry = 7;  // production settings retry forever
    qp.modify(a);
    a.state = verbs::QpState::rts;
    qp.modify(a);
  };
  wire(sqp, 1, rqp.num());
  wire(rqp, 0, sqp.num());

  verbs::Mr smr = spd.reg_mr(4096);
  verbs::Mr rmr = rpd.reg_mr(64 * 4096);
  const int kRq = 16;
  for (int i = 0; i < kRq; ++i) {
    rqp.post_recv({.wr_id = static_cast<std::uint64_t>(i),
                   .sge = {rmr.addr() + static_cast<std::uint64_t>(i) * 4096,
                           4096, rmr.lkey()}});
  }

  // Sender: production-style bursts. Most bursts fit the RQ; occasionally
  // one slightly overruns it and the receiver's slow poll loop can't
  // repost in time — the occasional RNR the paper's Fig. 9 trace shows.
  Rng rng(99);
  auto send_burst = [&] {
    verbs::Wc wc[16];
    while (scq.poll(wc, 16) > 0) {
    }
    const int burst = static_cast<int>(rng.uniform(4, 18));  // RQ holds 16
    for (int i = 0; i < burst; ++i) {
      sqp.post_send({.wr_id = 1,
                     .opcode = verbs::Opcode::send,
                     .local = {smr.addr(), 2048, smr.lkey()}});
    }
  };
  sim::PeriodicTimer sender_timer(cluster.engine(), millis(5),
                                  [&] { send_burst(); });
  sender_timer.start();

  // Receiver application: polls only every 300 us (a busy thread — the
  // situation §III issue 1 describes).
  sim::PeriodicTimer recv_timer(cluster.engine(), micros(300), [&] {
    verbs::Wc wc[16];
    int n;
    while ((n = rcq.poll(wc, 16)) > 0) {
      for (int i = 0; i < n; ++i) {
        rqp.post_recv(
            {.wr_id = wc[i].wr_id,
             .sge = {rmr.addr() + wc[i].wr_id * 4096, 4096, rmr.lkey()}});
      }
    }
  });
  recv_timer.start();

  std::vector<Sample> samples;
  std::uint64_t last = 0;
  sim::PeriodicTimer sampler(cluster.engine(), bucket, [&] {
    const std::uint64_t now_rnr = cluster.rnic(1).stats().rnr_naks_sent;
    samples.push_back({cluster.engine().now(), now_rnr - last});
    last = now_rnr;
  });
  sampler.start();

  cluster.engine().run_until(duration);
  sender_timer.stop();
  recv_timer.stop();
  sampler.stop();
  return samples;
}

/// X-RDMA: same shape — slow-polling server, free-running client.
std::vector<Sample> run_xrdma(Nanos duration, Nanos bucket) {
  core::Config cfg;
  cfg.poll_mode = core::PollMode::busy;
  testbed::Pair pair(cfg);
  pair.establish(7000, millis(30));
  pair.server_ch->set_on_msg([](core::Channel&, core::Msg&&) {});
  // Server polls every 300 us, like the raw receiver.
  pair.server.stop_polling_loop();
  sim::PeriodicTimer slow_poll(pair.cluster.engine(), micros(300),
                               [&] { pair.server.polling(256); });
  slow_poll.start();

  // Client keeps the pipe full (the window queues the excess).
  sim::PeriodicTimer sender_timer(pair.cluster.engine(), micros(20), [&] {
    while (pair.client_ch->queued_msgs() < 128) {
      pair.client_ch->send_msg(Buffer::synthetic(2048));
    }
  });
  sender_timer.start();

  std::vector<Sample> samples;
  std::uint64_t last = 0;
  sim::PeriodicTimer sampler(pair.cluster.engine(), bucket, [&] {
    const std::uint64_t now_rnr = pair.cluster.rnic(1).stats().rnr_naks_sent;
    samples.push_back({pair.cluster.engine().now(), now_rnr - last});
    last = now_rnr;
  });
  sampler.start();

  pair.cluster.engine().run_until(duration);
  sender_timer.stop();
  slow_poll.stop();
  sampler.stop();
  return samples;
}

double mean_of(const std::vector<Sample>& s) {
  if (s.empty()) return 0;
  double total = 0;
  for (const auto& x : s) total += static_cast<double>(x.rnr);
  return total / static_cast<double>(s.size());
}

}  // namespace

int main() {
  const Nanos duration = millis(400);
  const Nanos bucket = millis(20);
  print_header("Fig. 9 — RNR NAK counter per 20ms interval (slow receiver)");

  const auto raw = run_raw(duration, bucket);
  const auto xr = run_xrdma(duration, bucket);

  print_row({"t_ms", "raw_rdma_rnr", "xrdma_rnr"});
  for (std::size_t i = 0; i < std::min(raw.size(), xr.size()); ++i) {
    print_row({fmt("%.0f", to_millis(raw[i].at)),
               std::to_string(raw[i].rnr), std::to_string(xr[i].rnr)});
  }
  std::printf(
      "\nmean RNR per interval: raw=%.2f (paper: ~0.91)  xrdma=%.2f "
      "(paper: 0, RNR-free)\n",
      mean_of(raw), mean_of(xr));
  return 0;
}

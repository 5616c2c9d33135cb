// Self-healing channel recovery latency (§VI-C).
//
// Measures, over seeded deterministic trials, the time from an injected
// fault to the moment the application sees traffic again — no application
// involvement anywhere:
//
//  (a) QP kill with a warm QP cache: fault -> first redelivered message,
//      fault -> burst fully drained, and the internal detect -> re-established
//      resume time (xr_stat's recovery_latency);
//  (b) the same with the QP cache disabled, isolating what QP reuse (§IV-E)
//      saves on the recovery path;
//  (c) escalation: every resume attempt times out, so the channel burns its
//      recovery budget and switches to the Mock TCP fallback — fault -> first
//      message over TCP — then the fault clears and the background probe
//      restores RDMA.
#include "analysis/filter.hpp"
#include "analysis/mock.hpp"
#include "bench/bench_util.hpp"
#include "common/histogram.hpp"

using namespace xrdma;
using namespace xrdma::bench;

namespace {

constexpr int kTrials = 10;
constexpr int kBurst = 16;  // in-flight messages when the fault lands

struct Sample {
  Nanos redeliver = -1;  // kill -> first message delivered after the kill
  Nanos drain = -1;      // kill -> all kBurst messages delivered
  Nanos resume = -1;     // fault detected -> channel usable (internal stat)
};

Sample measure_qp_recovery(bool warm_cache, std::uint64_t seed) {
  core::Config cfg;
  if (!warm_cache) cfg.qp_cache_capacity = 0;
  testbed::Pair pair(cfg);
  if (!pair.establish(7000, millis(30))) return {};
  analysis::Filter filter(pair.client, seed);

  Sample s;
  int got = 0;
  Nanos t_kill = -1;
  pair.server_ch->set_on_msg([&](core::Channel&, core::Msg&&) {
    ++got;
    const Nanos now = pair.cluster.engine().now();
    if (s.redeliver < 0) s.redeliver = now - t_kill;
    if (got == kBurst) s.drain = now - t_kill;
  });

  // Issue the whole burst and kill the QP in the same tick: nothing has
  // drained yet, so every delivery below rides the recovery path.
  for (int i = 0; i < kBurst; ++i) {
    pair.client_ch->send_msg(Buffer::make(64 + static_cast<std::size_t>(i)));
  }
  t_kill = pair.cluster.engine().now();
  filter.kill_qp(*pair.client_ch);
  pair.run_until([&] { return got == kBurst; }, millis(500));

  const auto& lat = pair.client.stats().recovery_latency;
  if (lat.count() > 0) s.resume = static_cast<Nanos>(lat.mean());
  return s;
}

struct FallbackSample {
  Nanos escalate = -1;  // kill -> first message delivered over TCP
  Nanos restore = -1;   // fault cleared -> channel back on RDMA
};

FallbackSample measure_fallback(std::uint64_t seed) {
  testbed::Pair pair;
  if (!pair.establish(7000, millis(30))) return {};
  const std::uint16_t port = static_cast<std::uint16_t>(9400 + seed);
  analysis::MockFallback server_mock(pair.server, pair.cluster.host(1).tcp(),
                                     port);
  analysis::MockFallback::enable_auto(pair.client, pair.cluster.host(0).tcp(),
                                      port);
  analysis::Filter filter(pair.client, seed);
  const std::size_t cm_rule =
      filter.add_rule({analysis::FaultKind::cm_timeout, 1.0, 0, -1, 0});

  FallbackSample s;
  int got = 0;
  Nanos t_kill = -1;
  pair.server_ch->set_on_msg([&](core::Channel&, core::Msg&&) {
    ++got;
    if (s.escalate < 0) s.escalate = pair.cluster.engine().now() - t_kill;
  });

  for (int i = 0; i < kBurst; ++i) {
    pair.client_ch->send_msg(Buffer::make(64));
  }
  t_kill = pair.cluster.engine().now();
  filter.kill_qp(*pair.client_ch);
  pair.run_until([&] { return got == kBurst; }, seconds(1));
  if (!pair.client_ch->mocked()) return s;  // escalation never happened

  // Path heals: drop the CM fault and wait for the RDMA probe to restore.
  const Nanos t_heal = pair.cluster.engine().now();
  filter.remove_rule(cm_rule);
  if (pair.run_until([&] { return !pair.client_ch->mocked(); }, seconds(1))) {
    s.restore = pair.cluster.engine().now() - t_heal;
  }
  return s;
}

void report(const char* title, const Histogram& redeliver,
            const Histogram& drain, const Histogram& resume) {
  print_header(title);
  print_row({"metric", "min us", "mean us", "max us"}, 22);
  print_row({"first redelivery", fmt("%.0f", to_micros(redeliver.min())),
             fmt("%.0f", to_micros(static_cast<Nanos>(redeliver.mean()))),
             fmt("%.0f", to_micros(redeliver.max()))}, 22);
  print_row({"burst drained", fmt("%.0f", to_micros(drain.min())),
             fmt("%.0f", to_micros(static_cast<Nanos>(drain.mean()))),
             fmt("%.0f", to_micros(drain.max()))}, 22);
  print_row({"detect->resumed", fmt("%.0f", to_micros(resume.min())),
             fmt("%.0f", to_micros(static_cast<Nanos>(resume.mean()))),
             fmt("%.0f", to_micros(resume.max()))}, 22);
}

}  // namespace

int main() {
  Histogram redeliver_warm, drain_warm, resume_warm;
  Histogram redeliver_cold, drain_cold, resume_cold;
  for (int i = 0; i < kTrials; ++i) {
    const std::uint64_t seed = static_cast<std::uint64_t>(1000 + i);
    const Sample warm = measure_qp_recovery(/*warm_cache=*/true, seed);
    if (warm.redeliver >= 0) redeliver_warm.record(warm.redeliver);
    if (warm.drain >= 0) drain_warm.record(warm.drain);
    if (warm.resume >= 0) resume_warm.record(warm.resume);
    const Sample cold = measure_qp_recovery(/*warm_cache=*/false, seed);
    if (cold.redeliver >= 0) redeliver_cold.record(cold.redeliver);
    if (cold.drain >= 0) drain_cold.record(cold.drain);
    if (cold.resume >= 0) resume_cold.record(cold.resume);
  }
  report("QP kill -> transparent recovery, warm QP cache "
         "(16 in-flight msgs, 10 trials)",
         redeliver_warm, drain_warm, resume_warm);
  report("QP kill -> transparent recovery, QP cache disabled",
         redeliver_cold, drain_cold, resume_cold);

  Histogram escalate, restore;
  for (int i = 0; i < kTrials; ++i) {
    const FallbackSample s = measure_fallback(static_cast<std::uint64_t>(i));
    if (s.escalate >= 0) escalate.record(s.escalate);
    if (s.restore >= 0) restore.record(s.restore);
  }
  print_header("CM dead -> TCP fallback escalation and RDMA restore");
  print_row({"metric", "min us", "mean us", "max us", "n"}, 22);
  print_row({"fault->first TCP msg", fmt("%.0f", to_micros(escalate.min())),
             fmt("%.0f", to_micros(static_cast<Nanos>(escalate.mean()))),
             fmt("%.0f", to_micros(escalate.max())),
             fmt("%.0f", static_cast<double>(escalate.count()))}, 22);
  print_row({"heal->back on RDMA", fmt("%.0f", to_micros(restore.min())),
             fmt("%.0f", to_micros(static_cast<Nanos>(restore.mean()))),
             fmt("%.0f", to_micros(restore.max())),
             fmt("%.0f", static_cast<double>(restore.count()))}, 22);
  std::printf("\nescalation = recovery_max_attempts x (connect timeout + "
              "backoff) before the switch;\nrestore is paced by the "
              "background RDMA probe interval.\n");
  return 0;
}

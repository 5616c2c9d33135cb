// X-Check shape table: every schedule shape is one row — the preset its
// plane is tested with, the expectations each run must meet, the
// expectations the summed sweep must meet and the sweep indices pinned as
// regressions. Four tests run over every row: a smoke_seeds(20) sweep, the
// pinned indices, a same-seed determinism check and a replay round trip. One soak walks the rows on fresh seeds. Tests about one shape's
// generator rather than a sweep sit below the table. See TESTING.md.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

#include "check/harness.hpp"
#include "check/schedule.hpp"

namespace xrdma::check {
namespace {

RunOptions quiet() {
  RunOptions opt;
  opt.verbose = false;
  return opt;
}

/// Incast into bounded queues over shrunken memcaches: a dense burst that
/// must actually fill the queues and reach the pressure ladder.
ScheduleParams overload_params() {
  ScheduleParams p;
  p.num_hosts = 4;
  p.num_ops = 300;
  p.num_faults = 8;
  p.horizon = millis(20);
  p.window_depth = 2;
  p.tx_queue_cap = 2;
  p.incast = true;      // every flow aims at node 0
  p.mem_budget_mb = 2;  // small pools: the pressure ladder is reachable
  return p;
}

/// Victim host toggles down/up twice across a long horizon: each down
/// window (~19ms) comfortably exceeds the fixed detection bound
/// (keepalive_intv 2ms + keepalive_timeout 10ms), so the detector and the
/// circuit breaker must both trip — and both recoveries must land cleanly.
ScheduleParams flap_params(bool adaptive) {
  ScheduleParams p;
  p.num_hosts = 3;
  p.num_ops = 80;
  p.num_faults = 6;
  p.horizon = millis(120);
  p.flap_cycles = 2;
  p.health_adaptive = adaptive;
  return p;
}

/// Every link carries a persistent 0..3ms ingress+egress delay — well under
/// the detector's bound in both fixed and adaptive mode. No other faults,
/// so oracle 11 stays armed for the whole workload window: latency
/// inflation must never read as death. Quiesce's flush kills may declare
/// dead after that, legitimately, so no row expects dead == 0.
ScheduleParams brownout_params(bool adaptive) {
  ScheduleParams p;
  p.num_hosts = 3;
  p.num_ops = 110;
  p.num_faults = 0;
  p.brownout_delay_us = 3000;
  p.health_adaptive = adaptive;
  return p;
}

/// Two drain cycles across a 120 ms horizon: each draining window
/// (~18 ms) dwarfs the 4 ms force-close clock, so every cycle reaches
/// `drained` and restarts; peers see DRAIN announcements mid-traffic.
ScheduleParams drain_params(bool mixed) {
  ScheduleParams p;
  p.num_hosts = 3;
  p.num_ops = 90;
  p.num_faults = 4;
  p.horizon = millis(120);
  p.drain_cycles = 2;
  p.mixed_versions = mixed;
  return p;
}

/// Mixed-version cluster with no drains: pure rolling-upgrade traffic —
/// every even host speaks wire v1 only, every pair negotiates down.
ScheduleParams mixed_params() {
  ScheduleParams p;
  p.num_hosts = 4;
  p.num_ops = 110;
  p.num_faults = 8;
  p.mixed_versions = true;
  return p;
}

/// Batching shape over the default 30 ms horizon: 80% of sends land at or
/// below the inline/chain-interesting sizes (0..257 B), every node draws
/// its own point in the knob matrix (chained vs single-WR, inline
/// on/off/small, poll-end flush vs fallback), and the generator appends
/// mid-chain qp_kill faults shortly after send bursts.
ScheduleParams batching_params() {
  ScheduleParams p;
  p.num_hosts = 3;
  p.num_ops = 120;
  p.num_faults = 10;
  p.batch_shape = 1;
  return p;
}

/// Corruption shape over the default 30 ms horizon: ~30% of the fault
/// budget flips one wire byte (2/3 ingress, 1/3 egress), per-node e2e_crc
/// drawn from (seed, shape, node) with ~3/4 of nodes protected.
ScheduleParams corruption_params() {
  ScheduleParams p;
  p.num_hosts = 3;
  p.num_ops = 110;
  p.num_faults = 14;
  p.corruption_shape = 1;
  return p;
}

/// One X-Check shape. Every run of every row must pass all oracles and
/// deliver something; `each` and `total` add the row's own expectations.
struct Shape {
  const char* name;
  /// The preset for sweep index i: the health and drain rows alternate a
  /// mode (fixed/adaptive, plain/mixed) by index.
  ScheduleParams (*params)(std::size_t i);
  /// Expectations on every run of the sweep (nullptr = none).
  void (*each)(const RunReport& r);
  /// Expectations on the sweep's summed report (nullptr = none): the proof
  /// that the shape drove its plane, not just that no oracle fired.
  void (*total)(const RunReport& sum);
  /// Sweep indices past the smoke sweep that once failed this row, each
  /// run with smoke_seed(i) and params(i) as a regression.
  std::vector<std::size_t> pinned = {};
};

void PrintTo(const Shape& shape, std::ostream* os) { *os << shape.name; }

const Shape kShapes[] = {
    {"plain", [](std::size_t) { return ScheduleParams{}; },
     [](const RunReport& r) {
       EXPECT_GT(r.rpcs_issued, 0u) << describe(r);
       EXPECT_GT(r.faults_injected, 0u) << describe(r);
       EXPECT_GT(r.oracle_observations, 0u) << describe(r);
       EXPECT_GT(r.span_posts, 0u) << describe(r);
     },
     nullptr},
    {"overload", [](std::size_t) { return overload_params(); },
     [](const RunReport& r) {
       EXPECT_GT(r.oracle_observations, 0u) << describe(r);
     },
     [](const RunReport& sum) {
       // The bounded queue must have pushed back at least once, and
       // rejection must never be the common case (graceful degradation,
       // not collapse).
       EXPECT_GT(sum.msgs_rejected, 0u);
       EXPECT_GT(sum.msgs_delivered, sum.msgs_rejected);
     },
     // Stalls: a passive QP swap purged an in-flight ACK or NOP whose flag
     // outlived it, so the acceptor never acked again.
     {140, 288}},
    {"flap", [](std::size_t i) { return flap_params(i % 2 == 1); },
     [](const RunReport& r) {
       EXPECT_GT(r.faults_injected, 0u) << describe(r);
     },
     [](const RunReport& sum) {
       EXPECT_GT(sum.health.dead_declarations, 0u);
       EXPECT_GT(sum.health.breaker_opens, 0u);
       // Other faults declare peers dead too; only a host that stays down
       // keeps a breaker open long enough to deny a connect.
       EXPECT_GT(sum.health.connects_denied, 0u);
     }},
    {"brownout", [](std::size_t i) { return brownout_params(i % 2 == 1); },
     [](const RunReport& r) {
       // The schedule has no discrete faults, so every injected fault is a
       // brownout delay.
       EXPECT_GT(r.faults_injected, 0u) << describe(r);
     },
     nullptr,
     // Stalls: a rendezvous descriptor delayed past its QP's death pulled
     // through the dead QP and failed the channel mid-recovery.
     {34, 47, 54, 56, 108, 128, 136, 226, 252, 291, 414, 415, 434, 440, 444,
      529, 546, 590, 678, 685, 735, 750, 835, 843, 899, 942}},
    {"drain", [](std::size_t i) { return drain_params(i % 2 == 1); }, nullptr,
     [](const RunReport& sum) {
       EXPECT_GT(sum.ctx.drains_started, 0u);
       EXPECT_GT(sum.ctx.drains_completed, 0u);
       // The drain courtesy must have bitten at least once: a verdict
       // suppressed, a recovery ladder parked, or an admission bounced at a
       // draining node. Which one fires is seed-dependent; the deterministic
       // per-mechanism coverage lives in core_lifecycle_test.
       EXPECT_GT(sum.health.drain_suppressions + sum.chan.drain_recovery_parks +
                     sum.ctx.lifecycle_rejects,
                 0u);
     }},
    {"mixed", [](std::size_t) { return mixed_params(); }, nullptr, nullptr},
    {"batching", [](std::size_t) { return batching_params(); }, nullptr,
     [](const RunReport& sum) {
       // WRs must have flowed through accumulators and out of them, inline
       // sends must have fired, and at least one doorbell must have carried
       // more than one WQE: a sweep that only ever took the single-WR slow
       // path proves nothing about chaining.
       EXPECT_GT(sum.ctx.batch_accumulated, 0u);
       EXPECT_GT(sum.ctx.batch_posted, 0u);
       EXPECT_GT(sum.chan.inline_sends, 0u);
       EXPECT_GT(sum.chan.doorbell_wrs, sum.chan.doorbells);
       // Production knobs chain too; what only the shape does is skew 80% of
       // sends to 257 B or less, leaving rendezvous sends a small minority.
       EXPECT_LT(4 * sum.chan.large_msgs_tx, sum.chan.msgs_tx);
     }},
    {"corruption", [](std::size_t) { return corruption_params(); },
     [](const RunReport& r) {
       // Exhaustion would fold a transient corruption into a channel
       // teardown; with one-shot faults and a retry budget of 3 it must
       // never trigger.
       EXPECT_EQ(r.chan.integrity_exhausted, 0u) << describe(r);
     },
     [](const RunReport& sum) {
       // Frames must have been stamped, corruption caught, and at least one
       // NAK'd frame replayed from the send window. Whether a corrupt fault
       // lands on one of the ~1/4 unprotected nodes is up to the draw, so
       // unprotected_anomalies carries no expectation.
       EXPECT_GT(sum.chan.crc_stamped_tx, 0u);
       EXPECT_GT(sum.chan.crc_failures_rx, 0u);
       EXPECT_GT(sum.chan.integrity_naks_tx, 0u);
       EXPECT_GT(sum.chan.integrity_retransmits, 0u);
     }},
};

/// Adds the fields a row's `total` reads into `sum`.
void add_to(RunReport& sum, const RunReport& r) {
  sum.chan += r.chan;
  sum.ctx += r.ctx;
  sum.health += r.health;
  sum.msgs_delivered += r.msgs_delivered;
  sum.msgs_rejected += r.msgs_rejected;
}

/// A failing run dumps its replay file, and under XCHECK_REPLAY_DIR its
/// flight dumps too, for the CI artifact upload.
RunOptions dumping_options(const Shape& shape, std::uint64_t seed) {
  RunOptions opt;
  std::string dir = testing::TempDir();
  if (const char* env = std::getenv("XCHECK_REPLAY_DIR")) {
    dir = std::string(env) + "/";
    opt.dump_dir = env;
  }
  opt.replay_path = dir + "xcheck_" + shape.name + "_" +
                    std::to_string(seed) + ".replay";
  return opt;
}

/// The ten replay keys added after `xcheck v1`: txcap, incast, membudget,
/// flap, brownout, adaptive, drain, mixedver, batching, crcshape.
std::array<std::uint64_t, 10> post_v1_keys(const ScheduleParams& p) {
  return {p.tx_queue_cap, p.incast, p.mem_budget_mb, p.flap_cycles,
          p.brownout_delay_us, p.health_adaptive, p.drain_cycles,
          p.mixed_versions, p.batch_shape, p.corruption_shape};
}

#define EXPECT_SAME_FIELD(field, name) EXPECT_EQ(a.field, b.field) << #field;
void expect_same(const core::ChannelStats& a, const core::ChannelStats& b) {
  XR_CHANNEL_STATS(EXPECT_SAME_FIELD)
}
void expect_same(const core::ContextStats& a, const core::ContextStats& b) {
  XR_CONTEXT_STATS(EXPECT_SAME_FIELD)
}
void expect_same(const core::HealthStats& a, const core::HealthStats& b) {
  XR_HEALTH_STATS(EXPECT_SAME_FIELD)
}
#undef EXPECT_SAME_FIELD

class ShapeTest : public testing::TestWithParam<Shape> {};

/// One sweep run: `seed` with the row's preset for index `i`, held to every
/// oracle and the row's per-run expectations.
RunReport check_index(const Shape& shape, std::uint64_t seed, std::size_t i) {
  SCOPED_TRACE(testing::Message() << "XCHECK_SEED=" << seed << " index " << i);
  const RunReport r =
      check_seed(seed, shape.params(i), dumping_options(shape, seed));
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_GT(r.msgs_delivered, 0u) << describe(r);
  if (shape.each) shape.each(r);
  return r;
}

// Smoke sweep: every oracle holds across the row's seeds. XCHECK_SEED /
// XCHECK_SMOKE_COUNT select the seeds (see smoke_seeds); a seed's index
// picks the row's alternating mode.
TEST_P(ShapeTest, SeedsSatisfyAllOracles) {
  const Shape& shape = GetParam();
  RunReport sum;
  std::size_t i = 0;
  for (const std::uint64_t seed : smoke_seeds(20)) {
    add_to(sum, check_index(shape, seed, i++));
  }
  if (shape.total) shape.total(sum);
}

// Pinned regressions: every index the row pins, whatever the environment
// selects for the sweep.
TEST_P(ShapeTest, PinnedIndicesSatisfyAllOracles) {
  const Shape& shape = GetParam();
  for (const std::size_t i : shape.pinned) check_index(shape, smoke_seed(i), i);
}

// Every timer, control message and recorder write rides the engine; none of
// it may introduce nondeterminism, down to the flight-recorder dumps.
TEST_P(ShapeTest, SameSeedIsBitIdentical) {
  const Schedule s = generate_schedule(4242, GetParam().params(1));
  RunOptions opt = quiet();
  opt.capture_dumps = true;
  const RunReport a = run_schedule(s, opt);
  const RunReport b = run_schedule(s, opt);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.msgs_rejected, b.msgs_rejected);
  EXPECT_EQ(a.unprotected_anomalies, b.unprotected_anomalies);
  expect_same(a.chan, b.chan);
  expect_same(a.ctx, b.ctx);
  expect_same(a.health, b.health);
  ASSERT_EQ(a.dumps.size(), b.dumps.size());
  for (std::size_t i = 0; i < a.dumps.size(); ++i) {
    EXPECT_EQ(a.dumps[i], b.dumps[i]) << "node " << i << " dump differs";
  }
}

// The replay text carries every shape knob, and the loaded schedule is the
// same run.
TEST_P(ShapeTest, ReplayRoundTrips) {
  const Schedule s = generate_schedule(31, GetParam().params(1));
  Schedule back;
  ASSERT_TRUE(deserialize_schedule(serialize_schedule(s), back));
  EXPECT_EQ(post_v1_keys(back.params), post_v1_keys(s.params));
  EXPECT_EQ(serialize_schedule(back), serialize_schedule(s));
  EXPECT_EQ(run_schedule(back, quiet()).digest,
            run_schedule(s, quiet()).digest);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ShapeTest, testing::ValuesIn(kShapes),
                         [](const testing::TestParamInfo<Shape>& info) {
                           return std::string(info.param.name);
                         });

TEST(Replay, LegacyFilesWithoutPostV1KeysStillLoad) {
  // A replay written before the overload knobs existed has none of the
  // post-v1 keys: it must parse with every one of them at its legacy
  // default (0 / off) and run unchanged.
  const std::string legacy =
      "xcheck v1\n"
      "seed 12\n"
      "params hosts 2 slots 1 numops 4 numfaults 0 horizon 1000000\n"
      "op 1000 send 0 1 0 512 7\n"
      "end\n";
  Schedule s;
  ASSERT_TRUE(deserialize_schedule(legacy, s));
  EXPECT_EQ(post_v1_keys(s.params), (std::array<std::uint64_t, 10>{}));
  EXPECT_EQ(s.ops.size(), 1u);
  const RunReport r = run_schedule(s, quiet());
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_EQ(r.ctx.drains_started, 0u);
}

TEST(Replay, OutOfRangeOpsAndParamsAreRejected) {
  // An op's src and dst index the runner's contexts: the parser refuses one
  // naming a host past `hosts`, so it never reaches run_schedule. A value
  // that does not fit its field is refused too, never wrapped.
  const std::string head =
      "xcheck v1\n"
      "params hosts 2 slots 1 numops 4 numfaults 0 horizon 1000000\n";
  Schedule s;
  EXPECT_TRUE(deserialize_schedule(head + "op 1000 open 1 0 0 0 0\nend\n", s));
  for (const char* bad : {"op 1000 open 7 1 0 0 0\n", "op 1000 open 0 2 0 0 0\n",
                          "op 1000 open 256 1 0 0 0\n",  // would wrap to 0
                          "fault 5 qp_kill 0 0 1 -1 0\n",
                          "params hosts -1\n", "params frag 4294967296\n",
                          "params corrupt -1\n", "params window\n"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(deserialize_schedule(head + bad + "end\n", s));
  }
  EXPECT_EQ(s.ops.size(), 1u);  // a refused parse leaves `out` untouched
}

// Wall-clock-bounded soak for the nightly job: seed base + k runs on row
// k % rows until XCHECK_SOAK_MS expires. The base is smoke_seeds(1).front(),
// so XCHECK_SEED=random explores fresh seeds (the base is printed) and
// XCHECK_SEED=<n> restarts a soak at n. Skipped unless the env var is set.
TEST(Soak, ExploresSeedsUntilWallClockBudgetExpires) {
  const char* budget_env = std::getenv("XCHECK_SOAK_MS");
  if (!budget_env) GTEST_SKIP() << "set XCHECK_SOAK_MS to enable";
  const long budget_ms = std::strtol(budget_env, nullptr, 10);
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t base = smoke_seeds(1).front();
  const std::size_t rows = std::size(kShapes);
  std::uint64_t k = 0;
  while (std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
             .count() < budget_ms) {
    const Shape& shape = kShapes[k % rows];
    const std::uint64_t seed = base + k;
    SCOPED_TRACE(testing::Message() << "XCHECK_SEED=" << seed << " row "
                                    << shape.name << " index " << k / rows);
    RunOptions opt = dumping_options(shape, seed);
    // With XCHECK_CAPTURE_DUMPS every run cuts and encodes its `.xrd`
    // dumps, pass or fail, so the recorder soaks end to end.
    opt.capture_dumps = std::getenv("XCHECK_CAPTURE_DUMPS") != nullptr;
    const RunReport r = check_seed(seed, shape.params(k / rows), opt);
    ASSERT_TRUE(r.passed()) << describe(r);
    ++k;
  }
  std::fprintf(stderr, "[xcheck] soak: %llu seeds in %ld ms budget\n",
               static_cast<unsigned long long>(k), budget_ms);
  EXPECT_GT(k, 0u);
}

// ---------------------------------------------------------------------------
// Generator checks: each asserts a property of one shape's schedules.

TEST(Overload, IncastScheduleTargetsSingleReceiver) {
  const Schedule s = generate_schedule(5, overload_params());
  for (const Op& op : s.ops) {
    if (op.kind == OpKind::send || op.kind == OpKind::call) {
      EXPECT_EQ(op.dst, 0);
      EXPECT_NE(op.src, 0);
    }
  }
}

TEST(HealthShapes, FlapScheduleTogglesOneVictim) {
  const Schedule s = generate_schedule(77, flap_params(false));
  std::uint32_t downs = 0, ups = 0;
  int victim = -1;
  for (const FaultOp& f : s.faults) {
    if (f.kind == analysis::FaultKind::host_down) {
      ++downs;
      if (victim < 0) victim = f.node;
      EXPECT_EQ(f.node, victim);
    } else if (f.kind == analysis::FaultKind::host_up) {
      ++ups;
      EXPECT_EQ(f.node, victim);
    }
  }
  EXPECT_EQ(downs, 2u);
  EXPECT_EQ(ups, 2u);
  EXPECT_GE(victim, 0);
  EXPECT_LT(victim, 3);
}

TEST(BatchingShapes, MidChainKillsAreGeneratedAndSurvived) {
  // The generator plants qp_kill faults ~300 ns after send bursts when the
  // batching shape is on: chains die between accumulate and completion.
  // Check the faults exist (on top of the base fault budget) and that runs
  // with them still pass every oracle, including conservation.
  std::size_t with_extra_kills = 0;
  std::size_t i = 0;
  for (const std::uint64_t seed : smoke_seeds(20)) {
    if (i++ >= 6) break;  // schedule inspection is cheap; runs are not
    const Schedule s = generate_schedule(seed, batching_params());
    if (s.faults.size() > batching_params().num_faults) ++with_extra_kills;
    SCOPED_TRACE(testing::Message() << "XCHECK_SEED=" << seed);
    const RunReport r = run_schedule(s, quiet());
    EXPECT_TRUE(r.passed()) << describe(r);
  }
  EXPECT_GT(with_extra_kills, 0u);
}

TEST(CorruptionShapes, CorruptFaultsAreActuallyGenerated) {
  // The boosted draw must plant ingress/egress-corrupt faults without
  // with_corruption being set — that legacy switch stays expected-fail.
  std::size_t corrupt_faults = 0;
  for (const std::uint64_t seed : smoke_seeds(20)) {
    const Schedule s = generate_schedule(seed, corruption_params());
    EXPECT_FALSE(s.params.with_corruption);
    for (const FaultOp& f : s.faults) {
      if (f.kind == analysis::FaultKind::ingress_corrupt ||
          f.kind == analysis::FaultKind::egress_corrupt) {
        ++corrupt_faults;
      }
    }
  }
  EXPECT_GT(corrupt_faults, 0u);
}

TEST(MixSeeds, IncastUnderBatchingRetiresEveryEntry) {
  // Shapes combined through the fields they set, every other field at its
  // default. This seed once stalled like `overload` 140 and 288: all
  // delivered, one entry left in flight after a passive QP swap.
  ScheduleParams p;
  p.incast = true;
  p.batch_shape = 1;
  const std::uint64_t seed = 1372354551948;
  SCOPED_TRACE(testing::Message() << "XCHECK_SEED=" << seed);
  const RunReport r = check_seed(seed, p, quiet());
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_GT(r.msgs_delivered, 0u) << describe(r);
}

TEST(CorruptionShapes, ComposesWithMixedVersionsAndRemainsGreen) {
  // Rolling upgrade meets the integrity plane: even hosts speak v1 (no
  // feature bits at all), odd hosts draw e2e_crc from the shape. Mixed
  // pairs must negotiate CRC off cleanly and still pass every oracle —
  // their anomalies under corruption fall under the tolerated class.
  ScheduleParams p = corruption_params();
  p.mixed_versions = true;
  std::size_t i = 0;
  for (const std::uint64_t seed : smoke_seeds(20)) {
    if (i++ >= 6) break;  // the full matrix rides the corruption row
    SCOPED_TRACE(testing::Message() << "XCHECK_SEED=" << seed);
    const RunReport r = check_seed(seed, p, quiet());
    EXPECT_TRUE(r.passed()) << describe(r);
  }
}

}  // namespace
}  // namespace xrdma::check

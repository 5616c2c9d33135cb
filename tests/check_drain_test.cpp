// X-Check lifecycle shapes: the drain-cycle schedule (one victim walks
// active -> draining -> drained -> restart while the workload and fault
// schedule keep running) and the mixed-version cluster (half the hosts
// pinned to wire v1) must keep all thirteen oracles green — in particular
// oracle 13 (a draining peer is never graded suspect/dead and trips no
// breaker) and oracle 1 (exactly-once delivery across drain -> restart ->
// reconnect). Replays must carry the new knobs and stay bit-identical.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>

#include "check/harness.hpp"
#include "check/schedule.hpp"

namespace xrdma::check {
namespace {

RunOptions quiet() {
  RunOptions opt;
  opt.verbose = false;
  return opt;
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

TEST(DrainShapes, DrainSeedsSatisfyAllOracles) {
  std::uint64_t started = 0, completed = 0, courtesy = 0;
  std::size_t i = 0;
  for (const std::uint64_t seed : smoke_seeds(20)) {
    const bool mixed = (i++ % 2) == 1;
    SCOPED_TRACE(testing::Message()
                 << "XCHECK_SEED=" << seed << " mixed=" << mixed);
    const RunReport r = check_seed(seed, drain_params(mixed), quiet());
    EXPECT_TRUE(r.passed()) << describe(r);
    EXPECT_GT(r.msgs_delivered, 0u) << describe(r);
    started += r.ctx.drains_started;
    completed += r.ctx.drains_completed;
    courtesy += r.health.drain_suppressions + r.chan.drain_recovery_parks +
                r.ctx.lifecycle_rejects;
  }
  // The shape exists to drive the lifecycle plane: across the sweep the
  // victim must actually have entered and completed drains — a sweep that
  // never drains proves nothing.
  EXPECT_GT(started, 0u);
  EXPECT_GT(completed, 0u);
  // And the drain courtesy must have bitten at least once: a verdict
  // suppressed, a recovery ladder parked, or an admission bounced at a
  // draining node. (Which one fires is seed-dependent — the deterministic
  // per-mechanism coverage lives in core_lifecycle_test.)
  EXPECT_GT(courtesy, 0u);
}

TEST(DrainShapes, MixedVersionSeedsSatisfyAllOracles) {
  for (const std::uint64_t seed : smoke_seeds(20)) {
    SCOPED_TRACE(testing::Message() << "XCHECK_SEED=" << seed);
    const RunReport r = check_seed(seed, mixed_params(), quiet());
    EXPECT_TRUE(r.passed()) << describe(r);
    EXPECT_GT(r.msgs_delivered, 0u) << describe(r);
  }
}

TEST(DrainShapes, RunsAreDeterministicUnderDrainCycles) {
  // Drain timers, DRAIN control messages, recovery parking and the restart
  // all ride the engine; none of it may introduce nondeterminism — and the
  // flight-recorder dumps must come out bit-identical across replays.
  const Schedule s = generate_schedule(4242, drain_params(true));
  RunOptions opt = quiet();
  opt.capture_dumps = true;
  const RunReport a = run_schedule(s, opt);
  const RunReport b = run_schedule(s, opt);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.ctx.drains_started, b.ctx.drains_started);
  EXPECT_EQ(a.ctx.drains_completed, b.ctx.drains_completed);
  EXPECT_EQ(a.health.drain_suppressions, b.health.drain_suppressions);
  EXPECT_EQ(a.violations, b.violations);
  ASSERT_EQ(a.dumps.size(), b.dumps.size());
  for (std::size_t i = 0; i < a.dumps.size(); ++i) {
    EXPECT_EQ(a.dumps[i], b.dumps[i]) << "node " << i << " dump differs";
  }
}

TEST(DrainShapes, ReplayRoundTripsLifecycleParams) {
  Schedule s = generate_schedule(31, drain_params(false));
  s.params.mixed_versions = true;
  Schedule back;
  ASSERT_TRUE(deserialize_schedule(serialize_schedule(s), back));
  EXPECT_EQ(back.params.drain_cycles, 2u);
  EXPECT_TRUE(back.params.mixed_versions);
  EXPECT_EQ(serialize_schedule(back), serialize_schedule(s));
}

TEST(DrainShapes, LegacyReplayFilesWithoutLifecycleKeysStillLoad) {
  // A replay written before the lifecycle plane existed has no drain /
  // mixedver keys: it must parse, default to no drains and a same-version
  // cluster, and run unchanged.
  const std::string legacy =
      "xcheck v1\n"
      "seed 12\n"
      "params hosts 2 slots 1 numops 4 numfaults 0 horizon 1000000 "
      "flap 0 adaptive 0\n"
      "op 1000 send 0 1 0 512 7\n"
      "end\n";
  Schedule s;
  ASSERT_TRUE(deserialize_schedule(legacy, s));
  EXPECT_EQ(s.params.drain_cycles, 0u);
  EXPECT_FALSE(s.params.mixed_versions);
  const RunReport r = run_schedule(s, quiet());
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_EQ(r.ctx.drains_started, 0u);
}

// Wall-clock-bounded drain-cycle soak for the nightly job (run under ASan
// there): fresh seeds alternating plain / mixed-version drain shapes until
// XCHECK_DRAIN_SOAK_MS expires. Skipped unless the env var is set.
TEST(Soak, DrainSeedsUntilWallClockBudgetExpires) {
  const char* budget_env = std::getenv("XCHECK_DRAIN_SOAK_MS");
  if (!budget_env) GTEST_SKIP() << "set XCHECK_DRAIN_SOAK_MS to enable";
  const long budget_ms = std::strtol(budget_env, nullptr, 0);
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t base = 0xd7a1ULL;
  if (const char* env = std::getenv("XCHECK_SEED")) {
    if (std::string(env) == "random") {
      base = (static_cast<std::uint64_t>(std::random_device{}()) << 32) ^
             std::random_device{}();
      std::fprintf(stderr, "[xcheck] drain soak: random base %llu\n",
                   static_cast<unsigned long long>(base));
    } else {
      base = std::strtoull(env, nullptr, 0);
    }
  }
  std::uint64_t runs = 0;
  while (std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
             .count() < budget_ms) {
    const std::uint64_t seed = base + runs;
    SCOPED_TRACE(testing::Message() << "XCHECK_SEED=" << seed);
    RunOptions opt = quiet();
    if (const char* dir = std::getenv("XCHECK_REPLAY_DIR")) {
      opt.replay_path = std::string(dir) + "/xcheck_drain_" +
                        std::to_string(seed) + ".replay";
      opt.dump_dir = dir;
      opt.verbose = true;
    }
    const RunReport r = check_seed(seed, drain_params(runs % 2 == 1), opt);
    ASSERT_TRUE(r.passed()) << describe(r);
    ++runs;
  }
  std::fprintf(stderr, "[xcheck] drain soak: %llu seeds in %ld ms budget\n",
               static_cast<unsigned long long>(runs), budget_ms);
  EXPECT_GT(runs, 0u);
}

}  // namespace
}  // namespace xrdma::check

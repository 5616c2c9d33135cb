// X-Check conformance harness: determinism, oracle coverage, replay
// round-trip and schedule shrinking. The per-shape sweeps and the soak live
// in check_shapes_test. See TESTING.md for the design.
#include <gtest/gtest.h>

#include <optional>

#include "analysis/filter.hpp"
#include "analysis/recorder.hpp"
#include "common/logging.hpp"
#include "check/harness.hpp"
#include "check/oracles.hpp"
#include "check/schedule.hpp"
#include "core/context.hpp"
#include "testbed/cluster.hpp"
#include "tools/xr_triage.hpp"

namespace xrdma::check {
namespace {

/// Small, fast schedule for the tests that run many candidate executions.
ScheduleParams small_params() {
  ScheduleParams p;
  p.num_hosts = 2;
  p.num_ops = 40;
  p.num_faults = 16;
  p.horizon = millis(12);
  return p;
}

RunOptions quiet() {
  RunOptions opt;
  opt.verbose = false;
  return opt;
}

// ---------------------------------------------------------------------------
// Schedule generation and the replay-file format.

TEST(Schedule, GenerationIsDeterministic) {
  const Schedule a = generate_schedule(1234);
  const Schedule b = generate_schedule(1234);
  EXPECT_EQ(serialize_schedule(a), serialize_schedule(b));
  const Schedule c = generate_schedule(1235);
  EXPECT_NE(serialize_schedule(a), serialize_schedule(c));
}

TEST(Schedule, SerializationRoundTrips) {
  const Schedule s = generate_schedule(77);
  ASSERT_FALSE(s.ops.empty());
  ASSERT_FALSE(s.faults.empty());
  Schedule back;
  ASSERT_TRUE(deserialize_schedule(serialize_schedule(s), back));
  EXPECT_EQ(serialize_schedule(s), serialize_schedule(back));
  EXPECT_EQ(back.seed, 77u);
  EXPECT_EQ(back.ops.size(), s.ops.size());
  EXPECT_EQ(back.faults.size(), s.faults.size());
}

TEST(Schedule, RejectsMalformedInput) {
  Schedule out;
  EXPECT_FALSE(deserialize_schedule("", out));
  EXPECT_FALSE(deserialize_schedule("xcheck v1\nseed 1\n", out));  // no end
  EXPECT_FALSE(deserialize_schedule("xcheck v1\nbogus line\nend\n", out));
  EXPECT_FALSE(
      deserialize_schedule("xcheck v1\nop 5 warble 0 1 0 0 0\nend\n", out));
}

TEST(Schedule, SizesStraddleEveryProtocolEdge) {
  const Schedule s = generate_schedule(5);
  const std::uint32_t cutoff = 4096;
  const std::uint32_t frag = s.params.frag_size;
  bool below_cutoff = false, at_cutoff = false, above_cutoff = false;
  bool at_frag = false, above_frag = false;
  for (const Op& op : s.ops) {
    if (op.kind != OpKind::send && op.kind != OpKind::call) continue;
    below_cutoff |= op.size < cutoff;
    at_cutoff |= op.size == cutoff;
    above_cutoff |= op.size > cutoff;
    at_frag |= op.size == frag;
    above_frag |= op.size > frag;
  }
  EXPECT_TRUE(below_cutoff && at_cutoff && above_cutoff);
  EXPECT_TRUE(at_frag && above_frag);
}

TEST(Schedule, WithoutItemsDropsOpsAndFaults) {
  const Schedule s = generate_schedule(9);
  const Schedule cut = without_items(s, {0, s.ops.size()});
  EXPECT_EQ(cut.ops.size(), s.ops.size() - 1);
  EXPECT_EQ(cut.faults.size(), s.faults.size() - 1);
  EXPECT_EQ(cut.items(), s.items() - 2);
}

// ---------------------------------------------------------------------------
// The determinism contract: same seed -> bit-identical run, same process.

TEST(Determinism, SameSeedTwiceProducesIdenticalDigests) {
  const Schedule s = generate_schedule(42, small_params());
  const RunReport a = run_schedule(s, quiet());
  const RunReport b = run_schedule(s, quiet());
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.msgs_delivered, b.msgs_delivered);
  EXPECT_EQ(a.violations, b.violations);
  // And a different seed diverges.
  const RunReport c = run_schedule(generate_schedule(43, small_params()),
                                   quiet());
  EXPECT_NE(a.digest, c.digest);
}

TEST(Determinism, SameSeedReplayProducesBitIdenticalFlightDumps) {
  // Recorder records carry only sim time and deterministic payloads, so
  // replaying one schedule must flush byte-identical `.xrd` dumps — the
  // flight recorder is itself under the determinism contract.
  const Schedule s = generate_schedule(42, small_params());
  RunOptions opt = quiet();
  opt.capture_dumps = true;
  const RunReport a = run_schedule(s, opt);
  const RunReport b = run_schedule(s, opt);
  ASSERT_EQ(a.dumps.size(), static_cast<std::size_t>(s.params.num_hosts));
  ASSERT_EQ(a.dumps.size(), b.dumps.size());
  for (std::size_t i = 0; i < a.dumps.size(); ++i) {
    EXPECT_EQ(a.dumps[i], b.dumps[i]) << "node " << i << " dump diverged";
  }
  // The captured bytes decode into a populated dump.
  analysis::Dump dump;
  ASSERT_TRUE(
      analysis::decode_xrd(a.dumps[0].data(), a.dumps[0].size(), dump));
  EXPECT_EQ(dump.reason, "capture");
  EXPECT_FALSE(dump.records.empty());
  EXPECT_FALSE(dump.metrics.empty());
}

// Golden determinism table: one fixed seed per X-Check shape, with its
// observables pinned across builds and commits. The in-process tests above
// cannot catch a refactor that changes the model; this table can. A change
// that alters the model on purpose updates the pinned values (the failure
// message prints the replacement row) and names the change in CHANGES.md.

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

ScheduleParams golden_params(const std::string& shape) {
  ScheduleParams p;  // the default 3-host, 110-op schedule
  if (shape == "tx_queue_cap") {
    p.window_depth = 2;
    p.tx_queue_cap = 2;
  } else if (shape == "incast") {
    p.incast = true;
  } else if (shape == "mem_budget_mb") {
    p.incast = true;
    p.mem_budget_mb = 2;
  } else if (shape == "flap_cycles") {
    p.num_faults = 6;
    p.horizon = millis(120);
    p.flap_cycles = 2;
  } else if (shape == "brownout_delay_us") {
    p.num_faults = 0;
    p.brownout_delay_us = 3000;
  } else if (shape == "drain_cycles") {
    p.num_faults = 4;
    p.horizon = millis(120);
    p.drain_cycles = 2;
  } else if (shape == "mixed_versions") {
    p.mixed_versions = true;
  } else if (shape == "batch_shape") {
    p.batch_shape = 1;
  } else if (shape == "corruption_shape") {
    p.corruption_shape = 1;
  }
  return p;
}

struct GoldenRow {
  const char* shape;
  std::uint64_t seed;
  std::uint64_t digest;
  std::uint64_t events;
  Nanos end_time;
  std::vector<std::uint64_t> xrd_fnv;  // per node
};

std::string format_row(const char* shape, std::uint64_t seed,
                       const RunReport& r) {
  std::string row = strfmt("{\"%s\", %llu, 0x%016llxULL, %llu, %lld, {", shape,
                           static_cast<unsigned long long>(seed),
                           static_cast<unsigned long long>(r.digest),
                           static_cast<unsigned long long>(r.events),
                           static_cast<long long>(r.end_time));
  for (std::size_t i = 0; i < r.dumps.size(); ++i) {
    row += strfmt("%s0x%016llxULL", i ? ", " : "",
                  static_cast<unsigned long long>(fnv1a(r.dumps[i])));
  }
  return row + "}},";
}

TEST(Determinism, GoldenTablePinsEveryShape) {
  // {shape, seed, digest, events, end_time, {.xrd FNV-1a per node}}
  const std::vector<GoldenRow> table = {
      {"plain", 1, 0x5f2176ffe120e32bULL, 291944, 91000000,
       {0x6624968696722703ULL, 0xeea8556bce0608b9ULL,
        0x37b37c00f5781900ULL}},
      {"tx_queue_cap", 2, 0xe0f31b99725f601aULL, 293781, 91000000,
       {0xdf325ae4519aca10ULL, 0x829985037fd47027ULL,
        0xd71b8fe1ef2786d7ULL}},
      {"incast", 3, 0x21a4aa884ddf41c2ULL, 258531, 83000000,
       {0x27f525a4cf1b8fefULL, 0xc59033724105f857ULL,
        0x0754997abfab7db5ULL}},
      {"mem_budget_mb", 4, 0x60db18ed27dfe8caULL, 331230, 107000000,
       {0xc89716a76bd8b146ULL, 0xbcf08d6745032849ULL,
        0xb682b7e5d54ae2b0ULL}},
      {"flap_cycles", 5, 0xafe875b3f85ef94dULL, 563165, 181000000,
       {0x22068927c4156fd7ULL, 0x7fbb26f872de17a2ULL,
        0x92ac90f2d519a7dcULL}},
      {"brownout_delay_us", 6, 0xbe6e471bcf62f138ULL, 291747, 91000000,
       {0xfe8d00f100a7812dULL, 0x1c31952675d3cbe3ULL,
        0xb36e2c658462818bULL}},
      {"drain_cycles", 7, 0x8a2ef618e41ec2d9ULL, 533795, 173000000,
       {0x47fbfbec7b650862ULL, 0x50dc6d6777676340ULL,
        0xaad3737fecb1c45aULL}},
      {"mixed_versions", 8, 0x0a1e6660e8a74ef4ULL, 266950, 83000000,
       {0x7927682c5cc07cf9ULL, 0xa61fc01049172d01ULL,
        0x7ad185a2b6b400b0ULL}},
      {"batch_shape", 9, 0x3020bdec402094a7ULL, 287478, 91000000,
       {0x77af1f5502f2f668ULL, 0x2500fa461d8bd770ULL,
        0x9761c2e83d62967eULL}},
      {"corruption_shape", 10, 0x9cd8034b38c5ced0ULL, 288605, 91000000,
       {0x911a8c905f2876c8ULL, 0x14687d60f0c071eeULL,
        0x918ca3866f093f7eULL}},
  };
  RunOptions opt = quiet();
  opt.capture_dumps = true;
  for (const GoldenRow& row : table) {
    SCOPED_TRACE(row.shape);
    const RunReport r =
        run_schedule(generate_schedule(row.seed, golden_params(row.shape)), opt);
    EXPECT_TRUE(r.passed()) << describe(r);
    std::vector<std::uint64_t> hashes;
    for (const auto& dump : r.dumps) hashes.push_back(fnv1a(dump));
    const bool same = r.digest == row.digest && r.events == row.events &&
                      r.end_time == row.end_time && hashes == row.xrd_fnv;
    EXPECT_TRUE(same) << "model changed; pinned row is now:\n      "
                      << format_row(row.shape, row.seed, r);
  }
}

// ---------------------------------------------------------------------------
// Oracle 1 (delivery): a fault-free schedule must deliver everything it
// accepted, exactly once, in order, content-verified.

TEST(Oracles, FaultFreeScheduleDeliversEverything) {
  ScheduleParams p = small_params();
  p.num_faults = 0;
  const RunReport r = run_schedule(generate_schedule(7, p), quiet());
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_EQ(r.msgs_delivered, r.msgs_sent) << describe(r);
  EXPECT_EQ(r.rpcs_completed, r.rpcs_issued) << describe(r);
}

// Oracles 2, 4, 5 run between engine events; a passing run must have
// observed continuously, and disabling continuous checks must still pass
// (the quiesce-time oracles alone).

TEST(Oracles, ContinuousChecksObserveThroughoutTheRun) {
  RunOptions opt = quiet();
  opt.probe_stride = 4;
  const RunReport r =
      run_schedule(generate_schedule(21, small_params()), opt);
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_GT(r.oracle_observations, 1000u) << describe(r);

  RunOptions off = quiet();
  off.continuous_checks = false;
  const RunReport r2 =
      run_schedule(generate_schedule(21, small_params()), off);
  EXPECT_TRUE(r2.passed()) << describe(r2);
  EXPECT_EQ(r2.oracle_observations, 0u);
}

// Oracle 5 (no RNR): the oracle reports when the RNIC counters say
// otherwise. Poke the counter directly to prove the detector works.

TEST(Oracles, RnrConditionIsDetected) {
  testbed::Cluster cluster;
  core::Context ctx(cluster.rnic(0), cluster.cm());
  ViolationLog log;
  LiveOracle live;
  live.attach({&ctx}, {&cluster.rnic(0)}, &log);
  live.observe(0);
  EXPECT_TRUE(log.empty());
  cluster.rnic(0).stats().rnr_naks_sent = 1;
  live.observe(1);
  EXPECT_EQ(log.total(), 1u);
  live.observe(2);  // reported once, not once per probe
  EXPECT_EQ(log.total(), 1u);
}

// Oracle 6 (trace-span completeness): a delivery with no matching post is
// a violation; matched pairs are not.

TEST(Oracles, SpanLedgerFlagsOrphanDeliveries) {
  SpanLedger spans;
  ViolationLog log;
  core::SpanPostEvent post;
  post.trace_id = 0xabc;
  core::SpanDeliverEvent del;
  del.trace_id = 0xabc;
  spans.on_span_post(post);
  spans.on_span_deliver(del);
  spans.check(log, 0);
  EXPECT_TRUE(log.empty());

  core::SpanDeliverEvent orphan;
  orphan.trace_id = 0xdef;
  spans.on_span_deliver(orphan);
  spans.check(log, 0);
  EXPECT_EQ(log.total(), 1u);
}

TEST(Oracles, ViolationLogBoundsKeptEntries) {
  ViolationLog log;
  for (std::uint64_t i = 0; i < ViolationLog::kMaxKept + 10; ++i) {
    log.add(static_cast<Nanos>(i), "boom");
  }
  EXPECT_EQ(log.total(), ViolationLog::kMaxKept + 10);
  EXPECT_EQ(log.entries().size(), ViolationLog::kMaxKept);
}

// ---------------------------------------------------------------------------
// Planted violation -> replay file -> shrinking. Corruption schedules flip
// a byte in flight; when it lands in a payload the delivery oracle must
// catch it, the dumped replay must reproduce it, and shrinking must cut the
// schedule down while preserving the failure.

std::optional<Schedule> find_planted_failure(RunReport* failing_report) {
  ScheduleParams p = small_params();
  p.with_corruption = true;
  p.num_faults = 24;  // denser corruption so a seed fails quickly
  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    Schedule s = generate_schedule(seed, p);
    bool has_corrupt = false;
    for (const FaultOp& f : s.faults) {
      has_corrupt |= f.kind == analysis::FaultKind::ingress_corrupt ||
                     f.kind == analysis::FaultKind::egress_corrupt;
    }
    if (!has_corrupt) continue;
    const RunReport r = run_schedule(s, quiet());
    if (!r.passed()) {
      if (failing_report) *failing_report = r;
      return s;
    }
  }
  return std::nullopt;
}

TEST(ReplayAndShrink, PlantedCorruptionReplaysAndShrinks) {
  RunReport first;
  const std::optional<Schedule> planted = find_planted_failure(&first);
  ASSERT_TRUE(planted.has_value())
      << "no corruption seed in [100,140) produced a violation";

  // Replay: dump to file, load it back, re-run -> identical failure.
  const std::string path = testing::TempDir() + "xcheck_planted.replay";
  RunOptions opt = quiet();
  opt.replay_path = path;
  const RunReport dumped = run_schedule(*planted, opt);
  ASSERT_FALSE(dumped.passed());
  Schedule loaded;
  ASSERT_TRUE(load_schedule(path, loaded));
  EXPECT_EQ(serialize_schedule(loaded), serialize_schedule(*planted));
  const RunReport replayed = run_schedule(loaded, quiet());
  EXPECT_FALSE(replayed.passed());
  EXPECT_EQ(replayed.digest, dumped.digest);
  EXPECT_EQ(replayed.violations, dumped.violations);

  // Shrink: fewer items, failure preserved.
  const ShrinkResult res = shrink_schedule(*planted, quiet(), 80);
  EXPECT_TRUE(res.still_fails);
  EXPECT_GT(res.removed, 0u);
  EXPECT_LT(res.minimized.items(), planted->items());
  const RunReport min_run = run_schedule(res.minimized, quiet());
  EXPECT_FALSE(min_run.passed()) << describe(min_run);
}

TEST(ReplayAndShrink, OracleFailureFlushesTriageableFlightDumps) {
  const std::optional<Schedule> planted = find_planted_failure(nullptr);
  ASSERT_TRUE(planted.has_value())
      << "no corruption seed in [100,140) produced a violation";

  std::string dir = testing::TempDir();
  if (!dir.empty() && dir.back() == '/') dir.pop_back();
  RunOptions opt = quiet();
  opt.dump_dir = dir;
  const RunReport r = run_schedule(*planted, opt);
  ASSERT_FALSE(r.passed());

  // One `.xrd` per context, triageable straight from disk: the CI artifact
  // workflow is exactly this (dump_dir + xr_triage_file).
  for (std::uint32_t node = 0; node < planted->params.num_hosts; ++node) {
    const std::string path = strfmt("%s/xcheck-seed%llu.node%u.xrd",
                                    dir.c_str(),
                                    static_cast<unsigned long long>(r.seed),
                                    node);
    auto triage = tools::xr_triage_file(path);
    ASSERT_TRUE(triage.ok()) << path;
    EXPECT_NE(triage.value().verdict.find("X-Check oracle failure"),
              std::string::npos)
        << triage.value().verdict;
    EXPECT_NE(triage.value().timeline.find("DUMP TRIGGER: oracle_failure"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace xrdma::check

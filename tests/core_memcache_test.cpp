// MemCache: allocation, growth/shrink, isolation canaries, RNIC-only
// blocks, an allocator property sweep, and the page-touch budget of
// bringing contexts and connections up.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include <sys/resource.h>

#include "common/rng.hpp"
#include "core/context.hpp"
#include "core/memcache.hpp"
#include "testbed/cluster.hpp"

namespace xrdma::core {
namespace {

struct CacheFixture : ::testing::Test {
  testbed::Cluster cluster;
  rnic::Rnic& nic = cluster.rnic(0);
};

TEST_F(CacheFixture, AllocGivesWritableRegisteredMemory) {
  MemCache cache(nic);
  MemBlock b = cache.alloc(1024);
  ASSERT_TRUE(b.valid());
  std::uint8_t* p = cache.data(b);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x7e, 1024);
  EXPECT_EQ(nic.mr_ptr(b.addr, 1024), p);
}

TEST_F(CacheFixture, DistinctBlocksDoNotOverlap) {
  MemCache cache(nic);
  std::vector<MemBlock> blocks;
  for (int i = 0; i < 100; ++i) blocks.push_back(cache.alloc(4096));
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    for (std::size_t j = i + 1; j < blocks.size(); ++j) {
      const bool disjoint =
          blocks[i].addr + blocks[i].len <= blocks[j].addr ||
          blocks[j].addr + blocks[j].len <= blocks[i].addr;
      EXPECT_TRUE(disjoint) << i << " vs " << j;
    }
  }
}

TEST_F(CacheFixture, GrowsWhenFirstMrExhausted) {
  MemCacheConfig cfg;
  cfg.mr_bytes = 64 * 1024;
  MemCache cache(nic, cfg);
  EXPECT_EQ(cache.num_mrs(), 1u);
  std::vector<MemBlock> blocks;
  for (int i = 0; i < 40; ++i) {
    MemBlock b = cache.alloc(4096);
    ASSERT_TRUE(b.valid());
    blocks.push_back(b);
  }
  EXPECT_GT(cache.num_mrs(), 1u);
  EXPECT_GT(cache.stats().grow_events, 1u);
}

TEST_F(CacheFixture, ShrinkReleasesIdleMrs) {
  MemCacheConfig cfg;
  cfg.mr_bytes = 64 * 1024;
  MemCache cache(nic, cfg);
  std::vector<MemBlock> blocks;
  for (int i = 0; i < 40; ++i) blocks.push_back(cache.alloc(4096));
  const std::size_t grown = cache.num_mrs();
  for (const auto& b : blocks) cache.free(b);
  cache.shrink();
  EXPECT_EQ(cache.num_mrs(), cfg.min_mrs);
  EXPECT_LT(cache.num_mrs(), grown);
  EXPECT_GT(cache.stats().shrink_events, 0u);
}

TEST_F(CacheFixture, InUseBytesTracksAllocFreeCycle) {
  MemCache cache(nic);
  EXPECT_EQ(cache.stats().in_use_bytes, 0u);
  MemBlock a = cache.alloc(1000);
  MemBlock b = cache.alloc(2000);
  const std::uint64_t used = cache.stats().in_use_bytes;
  EXPECT_GE(used, 3000u);  // plus guard bands
  cache.free(a);
  cache.free(b);
  EXPECT_EQ(cache.stats().in_use_bytes, 0u);
}

// A double free must not touch the accounting: before the fix the second
// free of `a` subtracted its size again, leaving in_use_bytes at 0 while
// `b` was live.
TEST_F(CacheFixture, DoubleFreeChangesNothingAndIsCounted) {
  MemCache cache(nic);
  MemBlock a = cache.alloc(1000);
  MemBlock b = cache.alloc(1000);
  ASSERT_TRUE(a.valid() && b.valid());
  cache.free(a);
  cache.free(a);
  EXPECT_EQ(cache.stats().in_use_bytes, 1128u);  // b, with its guard bands
  EXPECT_EQ(cache.stats().bad_frees, 1u);
  EXPECT_EQ(cache.stats().guard_violations, 0u);
  cache.free(b);
  EXPECT_EQ(cache.stats().in_use_bytes, 0u);
  EXPECT_EQ(cache.stats().bad_frees, 1u);
}

// Once `a` and `b` coalesce back into one free range, a second free of `a`
// used to wrap in_use_bytes and the region's `used` below zero. The next
// allocation then brought `used` back to 0 with a live block in the region,
// and shrink() deregistered it.
TEST_F(CacheFixture, DoubleFreeAfterCoalescingCannotWrapAccounting) {
  MemCacheConfig cfg;
  cfg.mr_bytes = 64 * 1024;
  MemCache cache(nic, cfg);
  // With its two 64 B guard bands, `filler` fills region 1 exactly.
  const MemBlock filler = cache.alloc(64 * 1024 - 128);
  MemBlock a = cache.alloc(1000);
  MemBlock b = cache.alloc(1000);
  ASSERT_EQ(cache.num_mrs(), 2u);
  ASSERT_EQ(a.lkey, b.lkey);
  ASSERT_NE(a.lkey, filler.lkey);
  cache.free(b);
  cache.free(a);
  cache.free(a);
  EXPECT_EQ(cache.stats().in_use_bytes, 64u * 1024);
  EXPECT_EQ(cache.stats().bad_frees, 1u);

  MemBlock c = cache.alloc(1000);
  ASSERT_EQ(c.lkey, a.lkey);
  cache.shrink();
  EXPECT_EQ(cache.num_mrs(), 2u);
  EXPECT_NE(cache.data(c), nullptr);
  cache.free(c);
  cache.free(filler);
  EXPECT_EQ(cache.stats().in_use_bytes, 0u);
  EXPECT_EQ(cache.stats().bad_frees, 1u);
}

TEST_F(CacheFixture, OversizedAllocationFails) {
  MemCacheConfig cfg;
  cfg.mr_bytes = 64 * 1024;
  MemCache cache(nic, cfg);
  MemBlock b = cache.alloc(128 * 1024);
  EXPECT_FALSE(b.valid());
  EXPECT_EQ(cache.stats().failed_allocs, 1u);
}

TEST_F(CacheFixture, IsolationDetectsOutOfBoundsWrite) {
  MemCacheConfig cfg;
  cfg.isolation = true;
  MemCache cache(nic, cfg);
  int violations = 0;
  cache.set_violation_handler([&](const MemBlock&) { ++violations; });

  MemBlock b = cache.alloc(256);
  std::uint8_t* p = cache.data(b);
  p[256] = 0xff;  // classic off-by-one past the buffer
  cache.free(b);
  EXPECT_EQ(violations, 1);
  EXPECT_EQ(cache.stats().guard_violations, 1u);

  MemBlock ok = cache.alloc(256);
  std::memset(cache.data(ok), 1, 256);  // in-bounds is fine
  cache.free(ok);
  EXPECT_EQ(violations, 1);
}

TEST_F(CacheFixture, UnderflowWriteAlsoDetected) {
  MemCache cache(nic);
  int violations = 0;
  cache.set_violation_handler([&](const MemBlock&) { ++violations; });
  MemBlock b = cache.alloc(128);
  cache.data(b)[-1] = 0;  // write before the block
  cache.free(b);
  EXPECT_EQ(violations, 1);
}

// A block only the RNIC writes (a posted receive buffer) takes the same
// padded footprint as a host-written one, so every later block lands where
// it always would, but its guard bytes are neither written nor checked.
TEST_F(CacheFixture, RnicOnlyBlocksKeepTheFootprintButCarryNoCanaries) {
  MemCache host(nic);
  MemCache rnic_only(nic);
  int violations = 0;
  rnic_only.set_violation_handler([&](const MemBlock&) { ++violations; });

  const MemBlock h0 = host.alloc(100, /*privileged=*/true);
  const MemBlock h1 = host.alloc(100, /*privileged=*/true);
  const MemBlock r0 = rnic_only.alloc(100, true, BlockWriter::rnic);
  const MemBlock r1 = rnic_only.alloc(100, true, BlockWriter::rnic);
  ASSERT_TRUE(r0.valid() && r1.valid());
  EXPECT_TRUE(h0.guarded);
  EXPECT_FALSE(r0.guarded);
  EXPECT_EQ(r1.addr - r0.addr, h1.addr - h0.addr);
  EXPECT_EQ(rnic_only.stats().in_use_bytes, host.stats().in_use_bytes);

  EXPECT_EQ(host.data(h0)[-1], 0xa5);     // canary written
  EXPECT_EQ(rnic_only.data(r0)[-1], 0u);  // guard byte never touched
  EXPECT_EQ(rnic_only.data(r0)[100], 0u);

  // A host block next to RNIC-only ones keeps its canaries and its check.
  const MemBlock h2 = rnic_only.alloc(100);
  EXPECT_TRUE(h2.guarded);
  rnic_only.data(h2)[100] = 0xff;
  rnic_only.free(h2);
  EXPECT_EQ(violations, 1);
  rnic_only.free(r1);
  rnic_only.free(r0);
  EXPECT_EQ(violations, 1);
  EXPECT_EQ(rnic_only.stats().guard_violations, 1u);
  EXPECT_EQ(rnic_only.stats().in_use_bytes, 0u);
  EXPECT_EQ(rnic_only.stats().bad_frees, 0u);
}

TEST_F(CacheFixture, CoalescingAllowsLargeAllocAfterFragmentedFrees) {
  MemCacheConfig cfg;
  cfg.mr_bytes = 1u << 20;
  cfg.max_mrs = 1;  // force reuse of the single MR
  cfg.isolation = false;
  MemCache cache(nic, cfg);
  std::vector<MemBlock> blocks;
  for (int i = 0; i < 16; ++i) blocks.push_back(cache.alloc(60 * 1024));
  EXPECT_FALSE(cache.alloc(120 * 1024).valid());
  // Free two adjacent blocks: coalescing must make room for a double-size
  // allocation.
  cache.free(blocks[3]);
  cache.free(blocks[4]);
  EXPECT_TRUE(cache.alloc(120 * 1024).valid());
}

TEST_F(CacheFixture, IdleShrinkFiresAfterQuietPeriod) {
  MemCacheConfig cfg;
  cfg.mr_bytes = 64 * 1024;
  MemCache cache(nic, cfg);
  cache.enable_idle_shrink(millis(5));
  std::vector<MemBlock> blocks;
  for (int i = 0; i < 40; ++i) blocks.push_back(cache.alloc(4096));
  const std::size_t grown = cache.num_mrs();
  ASSERT_GT(grown, 1u);
  for (const auto& b : blocks) cache.free(b);
  // Activity keeps pushing the deadline back: no fire while we churn.
  for (int i = 0; i < 5; ++i) {
    cluster.engine().run_for(millis(2));
    cache.free(cache.alloc(64));
  }
  EXPECT_EQ(cache.stats().idle_shrink_fires, 0u);
  // Go quiet: the idle timer reclaims everything down to min_mrs.
  cluster.engine().run_for(millis(10));
  EXPECT_EQ(cache.stats().idle_shrink_fires, 1u);
  EXPECT_EQ(cache.num_mrs(), cfg.min_mrs);
  // One fire per idle spell, not a periodic drumbeat.
  cluster.engine().run_for(millis(50));
  EXPECT_EQ(cache.stats().idle_shrink_fires, 1u);
}

TEST_F(CacheFixture, ReserveAdmitsOnlyPrivilegedAllocations) {
  MemCacheConfig cfg;
  cfg.mr_bytes = 64 * 1024;
  cfg.max_mrs = 1;
  cfg.isolation = false;
  cfg.reserve_bytes = 16 * 1024;
  MemCache cache(nic, cfg);
  // Fill the unreserved part of the budget.
  std::vector<MemBlock> data;
  while (true) {
    MemBlock b = cache.alloc(4096);
    if (!b.valid()) break;
    data.push_back(b);
  }
  EXPECT_GT(cache.stats().reserve_denials, 0u);
  // The denial left the reserve intact: privileged (control-plane) traffic
  // still gets memory out of the headroom.
  MemBlock ctrl = cache.alloc(4096, /*privileged=*/true);
  EXPECT_TRUE(ctrl.valid());
  EXPECT_EQ(cache.stats().privileged_alloc_fails, 0u);
  cache.free(ctrl);
  for (const auto& b : data) cache.free(b);
}

TEST_F(CacheFixture, StarvedCacheFailsCleanlyAtMrCap) {
  // max_mrs=1 is the starved configuration the channel alloc-audit tests
  // run against: the cap must surface as invalid blocks + failed_allocs,
  // never as unbounded growth.
  MemCacheConfig cfg;
  cfg.mr_bytes = 64 * 1024;
  cfg.max_mrs = 1;
  cfg.isolation = false;
  MemCache cache(nic, cfg);
  std::vector<MemBlock> blocks;
  while (true) {
    MemBlock b = cache.alloc(8 * 1024);
    if (!b.valid()) break;
    blocks.push_back(b);
  }
  EXPECT_GT(cache.stats().failed_allocs, 0u);
  EXPECT_EQ(cache.num_mrs(), 1u);
  EXPECT_LE(cache.stats().occupied_bytes, cache.budget_bytes());
  for (const auto& b : blocks) cache.free(b);
  EXPECT_EQ(cache.stats().in_use_bytes, 0u);
}

// Allocator property sweep: random alloc/free sequences preserve
// accounting and never hand out overlapping blocks.
class MemCacheProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MemCacheProperty, RandomAllocFreeKeepsInvariants) {
  testbed::Cluster cluster;
  MemCacheConfig cfg;
  cfg.mr_bytes = 256 * 1024;
  MemCache cache(cluster.rnic(0), cfg);
  Rng rng(GetParam());

  struct Live {
    MemBlock block;
  };
  std::vector<Live> live;
  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.chance(0.55)) {
      const std::uint32_t len =
          static_cast<std::uint32_t>(rng.uniform(1, 32 * 1024));
      MemBlock b = cache.alloc(len);
      if (!b.valid()) continue;
      // No overlap with any live block.
      for (const auto& l : live) {
        const bool disjoint = b.addr + b.len <= l.block.addr ||
                              l.block.addr + l.block.len <= b.addr;
        ASSERT_TRUE(disjoint);
      }
      live.push_back({b});
    } else {
      const std::size_t i =
          static_cast<std::size_t>(rng.next_below(live.size()));
      cache.free(live[i].block);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  for (const auto& l : live) cache.free(l.block);
  EXPECT_EQ(cache.stats().in_use_bytes, 0u);
  EXPECT_EQ(cache.stats().guard_violations, 0u);
  EXPECT_EQ(cache.stats().bad_frees, 0u);
  cache.shrink();
  EXPECT_EQ(cache.num_mrs(), cfg.min_mrs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemCacheProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// Set-up touches only the pages it writes. Registered memory is demand-zero,
// bounce buffers carry no canaries and the flight-recorder ring is never
// zero-filled, so building a context or a connection faults in few pages.
// The counts are this thread's minor page faults (getrusage). A sanitizer
// build faults its shadow pages too, so the budget holds only without one.
#if !defined(__SANITIZE_ADDRESS__)
long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return ru.ru_minflt;
}

TEST(SetupPageTouches, ContextsAndConnectionsFaultOnlyWhatTheyWrite) {
  constexpr int kChannels = 32;
  testbed::Cluster cluster;
  const long before_contexts = minor_faults();
  Context server(cluster.rnic(1), cluster.cm(), Config{});
  Context client(cluster.rnic(0), cluster.cm(), Config{});
  const long context_faults = minor_faults() - before_contexts;

  int accepted = 0;
  int connected = 0;
  server.listen(7000, [&](Channel&) { ++accepted; });
  const long before_connect = minor_faults();
  for (int i = 0; i < kChannels; ++i) {
    client.connect(1, 7000, [&](Result<Channel*> r) {
      if (r.ok()) ++connected;
    });
  }
  cluster.engine().run_until(cluster.engine().now() + millis(20));
  const long connect_faults = minor_faults() - before_connect;
  ASSERT_EQ(connected, kChannels);
  ASSERT_EQ(accepted, kChannels);

  // Measured on x86-64 Linux with 4 KiB pages: 17-34 faults for the two
  // contexts and 17 per connection. Zero-filling the recorder rings makes
  // the first 84-95; writing canaries into the bounce buffers makes the
  // second 296.
  EXPECT_LE(context_faults, 64);
  EXPECT_LE(connect_faults, 48 * kChannels)
      << connect_faults / kChannels << " faults per connection";
}
#endif

}  // namespace
}  // namespace xrdma::core

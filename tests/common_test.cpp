// Foundation utilities: histogram, rng, ring buffer, rate meters, buffers
// and their pool, wire header codec, logging.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/histogram.hpp"
#include "common/logging.hpp"
#include "common/pool.hpp"
#include "common/rate.hpp"
#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "core/msg.hpp"

namespace xrdma {
namespace {

TEST(TimeHelpers, UnitConversionsRoundTrip) {
  EXPECT_EQ(micros(1), 1000);
  EXPECT_EQ(millis(1), micros(1000));
  EXPECT_EQ(seconds(1), millis(1000));
  EXPECT_DOUBLE_EQ(to_micros(micros(7)), 7.0);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(3)), 3.0);
}

TEST(TimeHelpers, TransmissionTimeMatchesLineRate) {
  // 1250 bytes at 10 Gbps = 1 us.
  EXPECT_EQ(transmission_time(1250, 10.0), micros(1));
  // 4 KB at 25 Gbps ~ 1.31 us.
  EXPECT_NEAR(static_cast<double>(transmission_time(4096, 25.0)), 1310.0, 2.0);
}

TEST(TimeHelpers, FormatDurationPicksUnit) {
  EXPECT_EQ(format_duration(nanos(500)), "500ns");
  EXPECT_EQ(format_duration(micros(2)), "2.000us");
  EXPECT_EQ(format_duration(millis(3)), "3.000ms");
  EXPECT_EQ(format_duration(seconds(4)), "4.000s");
}

TEST(Histogram, PercentilesOnUniformRamp) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(i * 1000);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(static_cast<double>(h.percentile(50)), 500e3, 500e3 * 0.05);
  EXPECT_NEAR(static_cast<double>(h.percentile(99)), 990e3, 990e3 * 0.05);
  EXPECT_EQ(h.min(), 1000);
  EXPECT_EQ(h.max(), 1000000);
  EXPECT_NEAR(h.mean(), 500500.0, 1.0);
}

TEST(Histogram, BoundedRelativeError) {
  Histogram h;
  for (const std::int64_t v : {1, 7, 63, 1000, 123456, 99999999}) {
    h.reset();
    h.record(v);
    const double got = static_cast<double>(h.percentile(50));
    EXPECT_NEAR(got, static_cast<double>(v), static_cast<double>(v) * 0.04 + 1)
        << v;
  }
}

TEST(Histogram, MergeCombinesDistributions) {
  Histogram a, b;
  for (int i = 0; i < 100; ++i) a.record(100);
  for (int i = 0; i < 100; ++i) b.record(10000);
  a.merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_LT(a.percentile(25), 200);
  EXPECT_GT(a.percentile(75), 5000);
  EXPECT_EQ(a.max(), 10000);
}

TEST(Histogram, EmptyHistogramReportsZeroes) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0), 0);
  EXPECT_EQ(h.percentile(50), 0);
  EXPECT_EQ(h.percentile(100), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(Histogram, PercentileEndpointsAreExactMinMax) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(i * 1000);
  // p<=0 and p>=100 short-circuit to the exact recorded extremes (no bucket
  // rounding), including out-of-range requests.
  EXPECT_EQ(h.percentile(0), 1000);
  EXPECT_EQ(h.percentile(-5), 1000);
  EXPECT_EQ(h.percentile(100), 1000000);
  EXPECT_EQ(h.percentile(250), 1000000);
}

TEST(Histogram, SingleSamplePercentilesCollapse) {
  Histogram h;
  h.record(777);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.percentile(0), 777);
  EXPECT_EQ(h.percentile(100), 777);
  EXPECT_NEAR(static_cast<double>(h.percentile(50)), 777.0, 777.0 * 0.04);
  EXPECT_NEAR(static_cast<double>(h.percentile(99)), 777.0, 777.0 * 0.04);
}

TEST(Histogram, MergeDifferentlySizedHistograms) {
  Histogram small, large;
  for (int i = 0; i < 10; ++i) small.record(100);
  for (int i = 0; i < 1000; ++i) large.record(1000000);
  small.merge(large);
  EXPECT_EQ(small.count(), 1010u);
  EXPECT_EQ(small.min(), 100);
  EXPECT_EQ(small.max(), 1000000);
  // The big side dominates the median after the merge.
  EXPECT_NEAR(static_cast<double>(small.percentile(50)), 1e6, 1e6 * 0.04);

  // Merging an empty histogram is a no-op; merging into an empty one copies.
  Histogram empty, copy;
  const auto before = small.count();
  small.merge(empty);
  EXPECT_EQ(small.count(), before);
  EXPECT_EQ(small.min(), 100);
  copy.merge(small);
  EXPECT_EQ(copy.count(), small.count());
  EXPECT_EQ(copy.min(), small.min());
  EXPECT_EQ(copy.max(), small.max());
  EXPECT_EQ(copy.percentile(50), small.percentile(50));
}

TEST(Histogram, ZeroAndNegativeClamped) {
  Histogram h;
  h.record(0);
  h.record(-5);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.percentile(100), 0);
}

// The pre-sizing layout, kept as the oracle: 64 rows of 32 buckets, all
// allocated up front. The sized-on-demand Histogram must answer every query
// exactly as this does.
class FixedLayoutHistogram {
 public:
  void record(std::int64_t value) {
    const std::size_t b = bucket_for(value);
    if (b >= buckets_.size()) return;
    ++buckets_[b];
    if (count_ == 0 || value < min_) min_ = value;
    if (value > max_) max_ = value;
    ++count_;
    sum_ += static_cast<double>(value);
  }
  std::uint64_t count() const { return count_; }
  std::int64_t min() const { return count_ ? min_ : 0; }
  std::int64_t max() const { return max_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  std::int64_t percentile(double p) const {
    if (count_ == 0) return 0;
    if (p <= 0) return min_;
    if (p >= 100) return max_;
    const double target = p / 100.0 * static_cast<double>(count_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (static_cast<double>(seen) >= target) return bucket_value(i);
    }
    return max_;
  }
  std::string summary() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "n=%llu mean=%.2f p50=%.2f p99=%.2f p999=%.2f max=%.2f%s",
                  static_cast<unsigned long long>(count_), mean() * 1e-3,
                  static_cast<double>(percentile(50)) * 1e-3,
                  static_cast<double>(percentile(99)) * 1e-3,
                  static_cast<double>(percentile(99.9)) * 1e-3,
                  static_cast<double>(max_) * 1e-3, "us");
    return buf;
  }

 private:
  static std::size_t bucket_for(std::int64_t value) {
    const auto v = static_cast<std::uint64_t>(std::max<std::int64_t>(value, 0));
    if (v < 32) return static_cast<std::size_t>(v);
    const int msb = 63 - std::countl_zero(v);
    return static_cast<std::size_t>(msb - 4) * 32 + ((v >> (msb - 5)) & 31);
  }
  static std::int64_t bucket_value(std::size_t index) {
    const std::size_t exp = index / 32;
    const std::size_t sub = index % 32;
    if (exp == 0) return static_cast<std::int64_t>(sub);
    const std::uint64_t base = (std::uint64_t{32} + sub) << (exp - 1);
    return static_cast<std::int64_t>(base + ((std::uint64_t{1} << (exp - 1)) / 2));
  }

  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(2048, 0);
  std::uint64_t count_ = 0;
  double sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

template <typename A, typename B>
void expect_same_answers(const A& a, const B& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_EQ(a.mean(), b.mean());
  for (const double p : {0.0, 0.1, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    EXPECT_EQ(a.percentile(p), b.percentile(p)) << "p" << p;
  }
  EXPECT_EQ(a.summary(), b.summary());
}

/// Seeded values in [-5, 2^62]: 0, both sides of every power of two (the
/// row edges), then log-uniform draws so every row sees samples.
std::vector<std::int64_t> histogram_values(std::uint64_t seed, int draws) {
  std::vector<std::int64_t> out = {-5, -1, 0, std::int64_t{1} << 62};
  for (int k = 0; k < 62; ++k) {
    const std::int64_t edge = std::int64_t{1} << k;
    out.insert(out.end(), {edge - 1, edge, edge + 1});
  }
  Rng rng(seed);
  for (int i = 0; i < draws; ++i) {
    const int k = static_cast<int>(rng.next_below(63));
    out.push_back(rng.uniform(-5, std::int64_t{1} << k));
  }
  return out;
}

TEST(Histogram, AnswersEqualFixedLayoutReference) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    Rng order(seed);
    std::vector<std::int64_t> values = histogram_values(seed, 5000);
    // Shuffle so the largest sample arrives at a random point and the
    // buckets grow in several steps.
    for (std::size_t i = values.size(); i > 1; --i) {
      std::swap(values[i - 1], values[order.next_below(i)]);
    }
    Histogram h;
    FixedLayoutHistogram ref;
    expect_same_answers(h, ref);
    for (std::size_t i = 0; i < values.size(); ++i) {
      h.record(values[i]);
      ref.record(values[i]);
      if (i % 997 == 0) expect_same_answers(h, ref);
    }
    expect_same_answers(h, ref);
  }
}

TEST(Histogram, MergeInAnyOrderEqualsRecordingTheUnion) {
  // Sums stay below 2^53, so every order adds them exactly.
  Histogram empty, small, large, all;
  for (std::int64_t v = 1; v <= 300; ++v) {
    small.record(v * 7);
    large.record(v << 32);
    all.record(v * 7);
    all.record(v << 32);
  }
  const Histogram* parts[] = {&empty, &small, &large};
  int perm[] = {0, 1, 2};
  do {
    Histogram acc;
    for (const int i : perm) acc.merge(*parts[i]);
    expect_same_answers(acc, all);
    Histogram pair = *parts[perm[0]];
    pair.merge(*parts[perm[1]]);
    pair.merge(*parts[perm[2]]);
    expect_same_answers(pair, all);
  } while (std::next_permutation(std::begin(perm), std::end(perm)));
}

TEST(Histogram, ResetThenRecordStartsOver) {
  Histogram h, fresh;
  h.record(std::int64_t{1} << 50);
  h.reset();
  EXPECT_EQ(h.bucket_count(), 0u);
  for (const std::int64_t v : {3, 900, 12000}) {
    h.record(v);
    fresh.record(v);
  }
  expect_same_answers(h, fresh);
  EXPECT_EQ(h.bucket_count(), fresh.bucket_count());
}

TEST(Histogram, HoldsOnlyTheRowsItRecorded) {
  Histogram h;
  EXPECT_EQ(h.bucket_count(), 0u);  // no sample, no allocation
  const Histogram copy = h;
  EXPECT_EQ(copy.bucket_count(), 0u);
  for (std::int64_t v = 500; v <= 30'000; v += 500) h.record(v);  // <= 30 us
  EXPECT_GT(h.bucket_count(), 0u);
  EXPECT_LE(h.bucket_count(), 16u * 32u);  // 16 power-of-two rows
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
  }
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i) {
    if (a2.next_u64() != c.next_u64()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(1);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform(10, 20);
    EXPECT_GE(v, 10);
    EXPECT_LE(v, 20);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 11u);  // every value hit
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(2);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(hits, 3000, 200);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.exponential(100.0);
  EXPECT_NEAR(sum / 20000, 100.0, 4.0);
}

TEST(RingBuffer, CapacityRoundsToPowerOfTwo) {
  RingBuffer<int> r(5);
  EXPECT_EQ(r.capacity(), 8u);
  RingBuffer<int> r2(64);
  EXPECT_EQ(r2.capacity(), 64u);
}

TEST(RingBuffer, FifoAcrossWrapAround) {
  RingBuffer<int> r(4);
  int next_in = 0, next_out = 0;
  for (int round = 0; round < 100; ++round) {
    while (!r.full()) r.push(next_in++);
    while (!r.empty()) EXPECT_EQ(r.pop(), next_out++);
  }
  EXPECT_EQ(next_in, next_out);
}

TEST(RingBuffer, AtIndexesFromFront) {
  RingBuffer<int> r(8);
  for (int i = 0; i < 5; ++i) r.push(i * 10);
  r.pop();
  EXPECT_EQ(r.at(0), 10);
  EXPECT_EQ(r.at(3), 40);
  EXPECT_EQ(r.head_seq(), 1u);
  EXPECT_EQ(r.tail_seq(), 5u);
}

TEST(RateMeter, WindowedRateTracksInput) {
  RateMeter meter(millis(10));
  // 1 MB over 10 ms = 0.8 Gbps.
  for (int i = 0; i < 10; ++i) {
    meter.add(millis(i), 100 * 1024);
  }
  EXPECT_NEAR(meter.gbps(millis(10)), 0.82, 0.05);
  // After the window passes with no traffic, the rate decays to zero.
  EXPECT_EQ(meter.gbps(millis(25)), 0.0);
}

TEST(Buffer, RealBufferRoundTripsContent) {
  Buffer b = Buffer::from_string("payload");
  EXPECT_EQ(b.size(), 7u);
  EXPECT_EQ(b.to_string(), "payload");
  Buffer c = b.clone();
  EXPECT_TRUE(b == c);
  c.data()[0] = 'X';
  EXPECT_FALSE(b == c);  // deep copy
}

TEST(Buffer, SyntheticCarriesOnlyLength) {
  Buffer b = Buffer::synthetic(1 << 20);
  EXPECT_EQ(b.size(), 1u << 20);
  EXPECT_TRUE(b.is_synthetic());
  EXPECT_EQ(b.data(), nullptr);
  Buffer c = b.clone();
  EXPECT_TRUE(c.is_synthetic());
  EXPECT_EQ(c.size(), b.size());
}

TEST(Buffer, MakeZeroFillsARecycledDirtyBlock) {
  const std::vector<std::uint8_t> ones(100, 0xff);
  std::uintptr_t dirty_block = 0;
  {
    const Buffer dirty = Buffer::copy_of(ones.data(), ones.size());
    dirty_block = reinterpret_cast<std::uintptr_t>(dirty.data());
  }
  // Same size class, so the pool hands back the block just released.
  const Buffer b = Buffer::make(ones.size());
  ASSERT_EQ(reinterpret_cast<std::uintptr_t>(b.data()), dirty_block);
  for (std::size_t i = 0; i < b.size(); ++i) ASSERT_EQ(b.data()[i], 0) << i;
}

TEST(Buffer, CopyOfKeepsSizeAndBytes) {
  std::vector<std::uint8_t> src(4096);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  const Buffer b = Buffer::copy_of(src.data(), src.size());
  ASSERT_EQ(b.size(), src.size());
  EXPECT_FALSE(b.is_synthetic());
  EXPECT_EQ(std::memcmp(b.data(), src.data(), src.size()), 0);
  src[0] ^= 1;  // a copy, not a view
  EXPECT_NE(b.data()[0], src[0]);
  EXPECT_TRUE(Buffer::copy_of(src.data(), 0).empty());
}

TEST(Buffer, CloneOfSyntheticStaysSynthetic) {
  const Buffer s = Buffer::synthetic(777);
  const Buffer c = s.clone();
  EXPECT_TRUE(c.is_synthetic());
  EXPECT_EQ(c.size(), 777u);
  EXPECT_EQ(c.data(), nullptr);
  EXPECT_TRUE(c == s);
  EXPECT_FALSE(c == Buffer::make(777));
}

TEST(Buffer, MakeZeroIsEmptyWithoutStorage) {
  const Buffer b = Buffer::make(0);
  EXPECT_EQ(b.data(), nullptr);
  EXPECT_TRUE(b.empty());
  EXPECT_FALSE(b.is_synthetic());
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.to_string(), "");
  EXPECT_TRUE(b == Buffer{});
  EXPECT_TRUE(b == Buffer::synthetic(0));
  EXPECT_TRUE(b.clone() == b);
}

TEST(Buffer, OversizeBuffersBypassThePool) {
  // One MTU of payload plus the refcount fits the largest class...
  Buffer mtu = Buffer::make(4096);
  const std::size_t parked = SizeClassPool::free_blocks();
  mtu = Buffer{};
  EXPECT_EQ(SizeClassPool::free_blocks(), parked + 1);
  // ...anything larger goes back to operator delete, not to a free list.
  Buffer big = Buffer::make(SizeClassPool::kMaxPooled);
  const std::size_t parked_big = SizeClassPool::free_blocks();
  big = Buffer{};
  EXPECT_EQ(SizeClassPool::free_blocks(), parked_big);
}

TEST(Buffer, PatternFillAndCheck) {
  Buffer b = Buffer::make(4096);
  fill_pattern(b, 99);
  EXPECT_TRUE(check_pattern(b, 99));
  EXPECT_FALSE(check_pattern(b, 100));
  b.data()[2048] ^= 1;
  EXPECT_FALSE(check_pattern(b, 99));
}

TEST(WireHeader, EncodeDecodeRoundTrip) {
  core::WireHeader hdr;
  hdr.flags = core::kFlagLarge | core::kFlagRpcReq | core::kFlagTraced;
  hdr.payload_len = 123456;
  hdr.seq = 0xdeadbeefcafeULL;
  hdr.ack = 0xdeadbeefcafdULL;
  hdr.rpc_id = 42;
  hdr.rv_addr = 0x10002000;
  hdr.rv_rkey = 77;
  hdr.t_send = micros(123);
  hdr.trace_id = 999;

  std::uint8_t buf[128];
  hdr.encode(buf);
  core::WireHeader out;
  ASSERT_TRUE(core::WireHeader::decode(buf, hdr.wire_size(), out));
  EXPECT_EQ(out.flags, hdr.flags);
  EXPECT_EQ(out.payload_len, hdr.payload_len);
  EXPECT_EQ(out.seq, hdr.seq);
  EXPECT_EQ(out.ack, hdr.ack);
  EXPECT_EQ(out.rpc_id, hdr.rpc_id);
  EXPECT_EQ(out.rv_addr, hdr.rv_addr);
  EXPECT_EQ(out.rv_rkey, hdr.rv_rkey);
  EXPECT_EQ(out.t_send, hdr.t_send);
  EXPECT_EQ(out.trace_id, hdr.trace_id);
}

TEST(WireHeader, DecodeRejectsGarbage) {
  std::uint8_t buf[64] = {0};
  core::WireHeader out;
  EXPECT_FALSE(core::WireHeader::decode(buf, 64, out));  // bad magic
  core::WireHeader hdr;
  hdr.encode(buf);
  EXPECT_FALSE(core::WireHeader::decode(buf, 10, out));  // truncated
  buf[4] = 9;                                            // bad version
  EXPECT_FALSE(core::WireHeader::decode(buf, 64, out));
}

TEST(WireHeader, TraceBlockOnlyWhenFlagged) {
  core::WireHeader bare;
  EXPECT_EQ(bare.wire_size(), core::WireHeader::kBareSize);
  core::WireHeader traced;
  traced.flags = core::kFlagTraced;
  EXPECT_EQ(traced.wire_size(),
            core::WireHeader::kBareSize + core::WireHeader::kTraceSize);
}

TEST(Logging, SinksReceiveRecordsAboveMinLevel) {
  Logger& log = Logger::global();
  EXPECT_FALSE(log.wants(LogLevel::error));  // no sink: nothing to format
  std::vector<LogRecord> got;
  Registration sink =
      log.add_sink([&](const LogRecord& r) { got.push_back(r); });
  log.set_min_level(LogLevel::warn);
  EXPECT_FALSE(log.wants(LogLevel::info));
  EXPECT_TRUE(log.wants(LogLevel::warn));
  log.log(micros(5), LogLevel::info, "x", "dropped");
  log.log(micros(6), LogLevel::warn, "x", "kept");
  log.set_min_level(LogLevel::info);
  sink.reset();
  EXPECT_FALSE(log.wants(LogLevel::error));
  log.log(micros(7), LogLevel::error, "x", "after-removal");
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].message, "kept");
  EXPECT_EQ(got[0].sim_time, micros(6));
}

TEST(Logging, StrfmtFormats) {
  EXPECT_EQ(strfmt("%d-%s", 7, "x"), "7-x");
  // Long strings don't truncate.
  const std::string long_arg(500, 'a');
  EXPECT_EQ(strfmt("%s", long_arg.c_str()).size(), 500u);
}

}  // namespace
}  // namespace xrdma

// Log-bucketed latency histogram (HDR-style).
//
// Used by the Statistic component and the benches for percentile reporting.
// Buckets are <mantissa bits> subdivisions per power of two, giving a
// bounded relative error (~1.5% with 5 mantissa bits) over the whole range.
// Buckets are held only up to the largest one recorded: an unrecorded
// histogram allocates nothing, and a ~30 us one holds 11 of the 59 rows.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace xrdma {

class Histogram {
 public:
  void record(std::int64_t value);
  void record_n(std::int64_t value, std::uint64_t count);

  std::uint64_t count() const { return count_; }
  std::int64_t min() const { return count_ ? min_ : 0; }
  std::int64_t max() const { return max_; }
  double mean() const;
  /// p in [0,100]; returns a bucket-representative value.
  std::int64_t percentile(double p) const;

  void merge(const Histogram& other);
  void reset();

  /// Buckets held: up to and including the largest recorded one.
  std::size_t bucket_count() const { return buckets_.size(); }

  /// "n=... mean=... p50=... p99=... max=..." with values printed as
  /// microseconds when `as_micros` (values are then assumed to be ns).
  std::string summary(bool as_micros = true) const;

 private:
  static constexpr int kMantissaBits = 5;
  static constexpr int kSubBuckets = 1 << kMantissaBits;

  static std::size_t bucket_for(std::int64_t value);
  static std::int64_t bucket_value(std::size_t index);

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

}  // namespace xrdma

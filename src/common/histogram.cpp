#include "common/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace xrdma {

std::size_t Histogram::bucket_for(std::int64_t value) {
  if (value < 0) value = 0;
  const auto v = static_cast<std::uint64_t>(value);
  if (v < kSubBuckets) return static_cast<std::size_t>(v);
  const int msb = 63 - std::countl_zero(v);
  const int shift = msb - kMantissaBits;
  const auto sub = static_cast<std::size_t>((v >> shift) & (kSubBuckets - 1));
  return static_cast<std::size_t>(msb - kMantissaBits + 1) * kSubBuckets + sub;
}

std::int64_t Histogram::bucket_value(std::size_t index) {
  const std::size_t exp = index / kSubBuckets;
  const std::size_t sub = index % kSubBuckets;
  if (exp == 0) return static_cast<std::int64_t>(sub);
  // Midpoint of the bucket for low bias.
  const std::uint64_t base = (std::uint64_t{kSubBuckets} + sub) << (exp - 1);
  const std::uint64_t width = std::uint64_t{1} << (exp - 1);
  return static_cast<std::int64_t>(base + width / 2);
}

void Histogram::record(std::int64_t value) { record_n(value, 1); }

void Histogram::record_n(std::int64_t value, std::uint64_t n) {
  if (n == 0) return;
  const std::size_t b = bucket_for(value);
  if (b >= buckets_.size()) buckets_.resize(b + 1);
  buckets_[b] += n;
  if (count_ == 0 || value < min_) min_ = value;
  if (value > max_) max_ = value;
  count_ += n;
  sum_ += static_cast<double>(value) * static_cast<double>(n);
}

double Histogram::mean() const {
  return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

std::int64_t Histogram::percentile(double p) const {
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

void Histogram::merge(const Histogram& other) {
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size());
  }
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  if (other.count_) {
    if (count_ == 0 || other.min_ < min_) min_ = other.min_;
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void Histogram::reset() {
  buckets_.clear();
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

std::string Histogram::summary(bool as_micros) const {
  char buf[256];
  const double k = as_micros ? 1e-3 : 1.0;
  std::snprintf(buf, sizeof(buf),
                "n=%llu mean=%.2f p50=%.2f p99=%.2f p999=%.2f max=%.2f%s",
                static_cast<unsigned long long>(count_), mean() * k,
                static_cast<double>(percentile(50)) * k,
                static_cast<double>(percentile(99)) * k,
                static_cast<double>(percentile(99.9)) * k,
                static_cast<double>(max_) * k, as_micros ? "us" : "");
  return buf;
}

}  // namespace xrdma

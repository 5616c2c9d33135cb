// Rate measurement: a windowed byte-rate meter used by the monitoring
// components (Fig. 3 / Fig. 11 style series).
#pragma once

#include <deque>

#include "common/time.hpp"

namespace xrdma {

/// Bytes-per-second over a sliding time window.
class RateMeter {
 public:
  explicit RateMeter(Nanos window = millis(10)) : window_(window) {}

  void add(Nanos now, std::uint64_t bytes) {
    samples_.push_back({now, bytes});
    total_ += bytes;
    evict(now);
  }

  /// Gbit/s over the window ending at `now`.
  double gbps(Nanos now) {
    evict(now);
    if (window_ <= 0) return 0;
    return static_cast<double>(total_) * 8.0 / static_cast<double>(window_);
  }

  double bytes_per_sec(Nanos now) {
    return gbps(now) * 1e9 / 8.0;
  }

 private:
  void evict(Nanos now) {
    while (!samples_.empty() && samples_.front().at < now - window_) {
      total_ -= samples_.front().bytes;
      samples_.pop_front();
    }
  }
  struct Sample {
    Nanos at;
    std::uint64_t bytes;
  };
  Nanos window_;
  std::deque<Sample> samples_;
  std::uint64_t total_ = 0;
};

}  // namespace xrdma

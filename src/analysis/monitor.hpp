// Monitor (§VI-B): the centralized collector behind the paper's online
// dashboards (Fig. 3, Fig. 11, Fig. 12).
//
// Callers register named samplers (bandwidth, QP counts, memory occupancy,
// CNP counters, ...); the monitor polls them on a fixed period and keeps
// the time series. Benches print the series; tests assert on them. A log
// sink collects the slow-operation records the data plane emits.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "common/time.hpp"
#include "sim/timer.hpp"

namespace xrdma::analysis {

class ContextMetrics;

struct Sample {
  Nanos at = 0;
  double value = 0;
};

struct Series {
  std::string name;
  std::vector<Sample> samples;

  double last() const { return samples.empty() ? 0 : samples.back().value; }
  double max() const;
  double min() const;
  double mean() const;
  /// Jitter metric used by the anti-jitter evaluation: coefficient of
  /// variation (stddev / mean) over the series.
  double cov() const;
};

class Monitor {
 public:
  Monitor(sim::Engine& engine, Nanos period);
  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Register a sampler; polled every period once start()ed.
  void track(const std::string& name, std::function<double()> sampler);
  /// Track one scalar (counter/gauge) out of a context's MetricsRegistry
  /// bridge — the same source XR-Stat and XR-Perf read. `metrics` must
  /// outlive the monitor; refresh is per-tick idempotent, so tracking many
  /// names on one bridge costs one stats sweep per sample.
  void track_metric(ContextMetrics& metrics, const std::string& name);
  void start();
  void stop();
  /// Take one sample of everything right now (benches call this at exact
  /// phase boundaries).
  void sample_now();

  const Series& series(const std::string& name) const;
  std::vector<std::string> names() const;

  /// Collected warn/error log records (slow polls, slow assemblies, ...).
  const std::vector<LogRecord>& logs() const { return logs_; }
  std::size_t count_logs(const std::string& substring) const;

  /// Render all series as aligned columns (one row per sample time).
  std::string table() const;

 private:
  sim::Engine& engine_;
  sim::PeriodicTimer timer_;
  std::vector<std::pair<std::string, std::function<double()>>> samplers_;
  std::map<std::string, Series> series_;
  std::vector<LogRecord> logs_;
  Registration log_sink_;
};

}  // namespace xrdma::analysis

#include "analysis/monitor.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "analysis/metrics.hpp"

namespace xrdma::analysis {

double Series::max() const {
  double m = samples.empty() ? 0 : samples[0].value;
  for (const auto& s : samples) m = std::max(m, s.value);
  return m;
}

double Series::min() const {
  double m = samples.empty() ? 0 : samples[0].value;
  for (const auto& s : samples) m = std::min(m, s.value);
  return m;
}

double Series::mean() const {
  if (samples.empty()) return 0;
  double sum = 0;
  for (const auto& s : samples) sum += s.value;
  return sum / static_cast<double>(samples.size());
}

double Series::cov() const {
  // Degenerate series (empty, single-sample, zero-mean) have no defined
  // coefficient of variation; report "no jitter" instead of NaN/inf or a
  // sign flip on negative-mean series.
  if (samples.size() < 2) return 0;
  const double mu = mean();
  if (mu == 0) return 0;
  double var = 0;
  for (const auto& s : samples) var += (s.value - mu) * (s.value - mu);
  var /= static_cast<double>(samples.size());
  return std::sqrt(var) / std::abs(mu);
}

Monitor::Monitor(sim::Engine& engine, Nanos period)
    : engine_(engine),
      timer_(engine, period, [this] { sample_now(); }),
      log_sink_(Logger::global().add_sink([this](const LogRecord& rec) {
        if (rec.level >= LogLevel::warn) logs_.push_back(rec);
      })) {}

void Monitor::track(const std::string& name, std::function<double()> sampler) {
  samplers_.emplace_back(name, std::move(sampler));
  series_[name].name = name;
}

void Monitor::track_metric(ContextMetrics& metrics, const std::string& name) {
  track(name, [&metrics, name] { return metrics.registry().value(name); });
}

void Monitor::start() { timer_.start(); }
void Monitor::stop() { timer_.stop(); }

void Monitor::sample_now() {
  const Nanos now = engine_.now();
  for (auto& [name, sampler] : samplers_) {
    series_[name].samples.push_back({now, sampler()});
  }
}

const Series& Monitor::series(const std::string& name) const {
  static const Series empty;
  auto it = series_.find(name);
  return it == series_.end() ? empty : it->second;
}

std::vector<std::string> Monitor::names() const {
  std::vector<std::string> out;
  for (const auto& [name, s] : series_) out.push_back(name);
  return out;
}

std::size_t Monitor::count_logs(const std::string& substring) const {
  std::size_t n = 0;
  for (const auto& rec : logs_) {
    if (rec.message.find(substring) != std::string::npos) ++n;
  }
  return n;
}

std::string Monitor::table() const {
  std::ostringstream os;
  os << "time_ms";
  std::size_t rows = 0;
  for (const auto& [name, s] : series_) {
    os << "\t" << name;
    rows = std::max(rows, s.samples.size());
  }
  os << "\n";
  for (std::size_t i = 0; i < rows; ++i) {
    bool first = true;
    for (const auto& [name, s] : series_) {
      if (first) {
        const Nanos t = i < s.samples.size() ? s.samples[i].at : 0;
        os << to_millis(t);
        first = false;
      }
      if (i < s.samples.size()) {
        os << "\t" << s.samples[i].value;
      } else {
        os << "\t-";
      }
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace xrdma::analysis

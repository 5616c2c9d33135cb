#include "analysis/metrics.hpp"

#include <sstream>

#include "common/logging.hpp"

namespace xrdma::analysis {

bool MetricsRegistry::has(const std::string& name) const {
  return counters_.count(name) || gauges_.count(name) ||
         histograms_.count(name);
}

double MetricsRegistry::value(const std::string& name) const {
  if (auto it = counters_.find(name); it != counters_.end()) {
    return static_cast<double>(it->second);
  }
  if (auto it = gauges_.find(name); it != gauges_.end()) return it->second;
  return 0;
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::vector<std::string> MetricsRegistry::names() const {
  std::vector<std::string> out;
  for (const auto& [n, v] : counters_) out.push_back(n);
  for (const auto& [n, v] : gauges_) out.push_back(n);
  for (const auto& [n, v] : histograms_) out.push_back(n);
  return out;
}

double MetricsRegistry::Snapshot::value(const std::string& name) const {
  auto it = values.find(name);
  return it == values.end() ? 0 : it->second;
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  Snapshot s;
  for (const auto& [n, v] : counters_) {
    s.values[n] = static_cast<double>(v);
  }
  for (const auto& [n, v] : gauges_) s.values[n] = v;
  return s;
}

MetricsRegistry::Snapshot MetricsRegistry::delta_since(
    const Snapshot& prev) const {
  Snapshot now = snapshot();
  for (auto& [name, v] : now.values) v -= prev.value(name);
  return now;
}

std::string MetricsRegistry::render() const {
  std::ostringstream os;
  for (const auto& [n, v] : counters_) {
    os << strfmt("%-32s %llu\n", n.c_str(),
                 static_cast<unsigned long long>(v));
  }
  for (const auto& [n, v] : gauges_) {
    os << strfmt("%-32s %.3f\n", n.c_str(), v);
  }
  for (const auto& [n, h] : histograms_) {
    os << strfmt("%-32s %s\n", n.c_str(), h.summary().c_str());
  }
  return os.str();
}

void MetricsRegistry::reset() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

namespace {
// Exports one entry of the core/stats.hpp lists; a null name marks a counter
// that is summed but not exported.
void export_counter(MetricsRegistry& reg, const char* name,
                    std::uint64_t value) {
  if (name != nullptr) reg.counter(name) = value;
}
}  // namespace

void ContextMetrics::refresh() {
  const Nanos now = ctx_.engine().now();
  if (now == last_refresh_) return;
  last_refresh_ = now;

  const core::ChannelStats agg = ctx_.channel_stats();
  const core::ContextStats& cs = ctx_.stats();
  const core::HealthStats& hs = ctx_.health().stats();
#define XR_EXPORT_CHAN(field, name) export_counter(reg_, name, agg.field);
#define XR_EXPORT_CTX(field, name) export_counter(reg_, name, cs.field);
#define XR_EXPORT_HEALTH(field, name) export_counter(reg_, name, hs.field);
  XR_CHANNEL_STATS(XR_EXPORT_CHAN)
  XR_CONTEXT_STATS(XR_EXPORT_CTX)
  XR_HEALTH_STATS(XR_EXPORT_HEALTH)
#undef XR_EXPORT_CHAN
#undef XR_EXPORT_CTX
#undef XR_EXPORT_HEALTH

  std::size_t established = 0;
  std::size_t inflight = 0, queued = 0;
  for (core::Channel* ch : ctx_.channels()) {
    if (ch->usable()) ++established;
    inflight += ch->inflight_msgs();
    queued += ch->queued_msgs();
  }
  reg_.gauge("chan.established") = static_cast<double>(established);
  reg_.gauge("chan.inflight") = static_cast<double>(inflight);
  reg_.gauge("chan.queued") = static_cast<double>(queued);
  reg_.gauge("chan.wrs_per_doorbell") =
      agg.doorbells > 0
          ? static_cast<double>(agg.doorbell_wrs) /
                static_cast<double>(agg.doorbells)
          : 0.0;
  reg_.gauge("overload.queued_tx_bytes") =
      static_cast<double>(ctx_.queued_tx_bytes());
  reg_.gauge("overload.mem_pressure") =
      static_cast<double>(static_cast<int>(ctx_.mem_pressure()));
  reg_.gauge("ctx.worst_poll_gap_us") = to_micros(cs.worst_poll_gap);
  reg_.gauge("ctx.lifecycle") =
      static_cast<double>(static_cast<int>(ctx_.lifecycle()));
  reg_.histogram("ctx.drain_latency") = cs.drain_latency;
  reg_.histogram("ctx.rpc_latency") = cs.rpc_latency;
  reg_.histogram("recovery.latency") = cs.recovery_latency;

  const auto& ctrl = ctx_.ctrl_cache().stats();
  const auto& data = ctx_.data_cache().stats();
  reg_.gauge("mem.occupied_mb") =
      static_cast<double>(ctrl.occupied_bytes + data.occupied_bytes) / 1e6;
  reg_.gauge("mem.in_use_mb") =
      static_cast<double>(ctrl.in_use_bytes + data.in_use_bytes) / 1e6;

  // Health plane: one gauge set per known peer ("health.peer.<node>.*" —
  // what xr_ping's health view reads) plus their roll-up.
  double peers_dead = 0, breakers_open = 0, peers_draining = 0;
  const auto views = ctx_.health().peers();
  for (const core::PeerHealthView& pv : views) {
    if (pv.state == core::PeerState::dead) ++peers_dead;
    if (pv.breaker_open) ++breakers_open;
    if (pv.draining) ++peers_draining;
    const std::string prefix = strfmt("health.peer.%u.", pv.peer);
    reg_.gauge(prefix + "state") =
        static_cast<double>(static_cast<int>(pv.state));
    reg_.gauge(prefix + "phi") = pv.phi;
    reg_.gauge(prefix + "bound_us") = to_micros(pv.silence_bound);
    reg_.gauge(prefix + "rtt_p50_us") = to_micros(pv.rtt_p50);
    reg_.gauge(prefix + "rtt_p99_us") = to_micros(pv.rtt_p99);
    reg_.gauge(prefix + "flaps") = static_cast<double>(pv.flaps);
    reg_.gauge(prefix + "holddown_level") =
        static_cast<double>(pv.holddown_level);
    reg_.gauge(prefix + "channels") = static_cast<double>(pv.channels);
    reg_.gauge(prefix + "draining") = pv.draining ? 1.0 : 0.0;
  }
  reg_.gauge("health.peers") = static_cast<double>(views.size());
  reg_.gauge("health.peers_dead") = peers_dead;
  reg_.gauge("health.breakers_open") = breakers_open;
  reg_.gauge("health.peers_draining") = peers_draining;
}

}  // namespace xrdma::analysis

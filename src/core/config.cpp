#include "core/config.hpp"

#include <limits>
#include <type_traits>
#include <utility>

#include "common/field_range.hpp"

namespace xrdma::core {

namespace {
// How a key's integer maps onto its field: as is, or a Nanos field that the
// key addresses in milliseconds (`*_ms`) or microseconds (`*_us`).
enum class Unit { raw, ms, us };

constexpr std::int64_t nanos_per(Unit u) {
  return u == Unit::ms ? kNanosPerMilli : u == Unit::us ? kNanosPerMicro : 1;
}

// One Table III key. A bool field reads back as 0/1, and any nonzero value
// sets it. `set` stores nothing and returns false when the value is out of
// range (see fits_field) or its unit scaling overflows.
struct Param {
  const char* name;
  bool online;
  std::int64_t (*get)(const Config&);
  bool (*set)(Config&, std::int64_t);
};

template <auto Field, Unit U = Unit::raw>
constexpr Param param(const char* name, bool online) {
  using T = std::remove_reference_t<decltype(std::declval<Config&>().*Field)>;
  return {name, online,
          [](const Config& c) {
            return static_cast<std::int64_t>(c.*Field) / nanos_per(U);
          },
          [](Config& c, std::int64_t v) {
            constexpr std::int64_t scale = nanos_per(U);
            if (v < 0 || v > std::numeric_limits<std::int64_t>::max() / scale ||
                !fits_field<T>(v * scale)) {
              return false;
            }
            c.*Field = static_cast<T>(v * scale);
            return true;
          }};
}

constexpr bool kOnline = true;
constexpr bool kOffline = false;  // refused by set_flag, still readable

constexpr Param kParams[] = {
    param<&Config::keepalive_intv, Unit::ms>("keepalive_intv_ms", kOnline),
    param<&Config::keepalive_timeout, Unit::ms>("keepalive_timeout_ms",
                                                kOnline),
    param<&Config::slow_threshold, Unit::us>("slow_threshold_us", kOnline),
    param<&Config::polling_warn_cycle, Unit::us>("polling_warn_cycle_us",
                                                 kOnline),
    param<&Config::trace_sample_mask>("trace_sample_mask", kOnline),
    param<&Config::reqrsp_mode>("reqrsp_mode", kOnline),
    param<&Config::flowctl>("flowctl", kOnline),
    param<&Config::frag_size>("frag_size", kOnline),
    param<&Config::max_outstanding_wrs>("max_outstanding_wrs", kOnline),
    param<&Config::recovery_max_attempts>("recovery_max_attempts", kOnline),
    param<&Config::recovery_backoff, Unit::us>("recovery_backoff_us",
                                               kOnline),
    param<&Config::fallback_auto>("fallback_auto", kOnline),
    param<&Config::tx_queue_max_msgs>("tx_queue_max_msgs", kOnline),
    param<&Config::tx_queue_max_bytes>("tx_queue_max_bytes", kOnline),
    param<&Config::ctx_tx_max_bytes>("ctx_tx_max_bytes", kOnline),
    param<&Config::mem_soft_pct>("mem_soft_pct", kOnline),
    param<&Config::mem_hard_pct>("mem_hard_pct", kOnline),
    param<&Config::health_adaptive>("health_adaptive", kOnline),
    param<&Config::health_breaker>("health_breaker", kOnline),
    param<&Config::e2e_crc>("e2e_crc", kOnline),
    param<&Config::integrity_retry_max>("integrity_retry_max", kOnline),
    param<&Config::lifecycle_drain>("lifecycle_drain", kOnline),
    param<&Config::lifecycle_drain_timeout, Unit::ms>(
        "lifecycle_drain_timeout_ms", kOnline),
    param<&Config::lifecycle_retry_after, Unit::ms>("lifecycle_retry_after_ms",
                                                    kOnline),
    param<&Config::recorder_enabled>("recorder_enabled", kOnline),
    param<&Config::recorder_sample_mask>("recorder_sample_mask", kOnline),
    param<&Config::tx_batch_max_wrs>("tx_batch_max_wrs", kOnline),
    param<&Config::tx_batch_flush_on_poll_end>("tx_batch_flush_on_poll_end",
                                               kOnline),
    param<&Config::inline_max>("inline_max", kOnline),
    param<&Config::use_srq>("use_srq", kOffline),
    param<&Config::cq_size>("cq_size", kOffline),
    param<&Config::srq_size>("srq_size", kOffline),
    param<&Config::fork_safe>("fork_safe", kOffline),
    param<&Config::ibqp_alloc_type>("ibqp_alloc_type", kOffline),
    param<&Config::small_msg_size>("small_msg_size", kOffline),
    param<&Config::window_depth>("window_depth", kOffline),
    param<&Config::memcache_max_mrs>("memcache_max_mrs", kOffline),
    param<&Config::memcache_ctrl_reserve>("memcache_ctrl_reserve", kOffline),
    param<&Config::recorder_capacity>("recorder_capacity", kOffline),
    param<&Config::proto_version_min>("proto_version_min", kOffline),
    param<&Config::proto_version_max>("proto_version_max", kOffline),
    param<&Config::proto_features>("proto_features", kOffline),
};

const Param* find_param(const std::string& name) {
  for (const Param& p : kParams) {
    if (name == p.name) return &p;
  }
  return nullptr;
}
}  // namespace

Errc set_flag(Config& config, const std::string& name, std::int64_t value) {
  const Param* p = find_param(name);
  if (p == nullptr) return Errc::not_found;
  if (!p->online || !p->set(config, value)) return Errc::invalid_argument;
  return Errc::ok;
}

Result<std::int64_t> get_flag(const Config& config, const std::string& name) {
  const Param* p = find_param(name);
  if (p == nullptr) return Errc::not_found;
  return p->get(config);
}

}  // namespace xrdma::core

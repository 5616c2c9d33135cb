// Peer health plane: a per-peer φ-accrual failure detector (Hayashibara et
// al.) layered over the keepalive/recovery machinery.
//
// Every channel to the same remote node feeds one PeerRecord with proof of
// life (message rx, keepalive probe acks) and probe RTTs; the monitor turns
// that history into a graded state
//
//     healthy -> suspect -> degraded -> dead
//
// and, in adaptive mode, replaces the fixed keepalive_timeout cliff with a
// bound derived from the observed proof-of-life cadence (mean + z_dead * σ,
// with an Akka-style grace of one keepalive interval added to the mean).
// On `dead` a circuit breaker opens: only `kHalfOpenProbes` designated
// channels may keep issuing CM connect attempts; everybody else skips their
// retry ladder and parks on the fallback. Flap suppression adds a per-peer
// hold-down that escalates exponentially while restore-then-fail cycles land
// inside `kFlapWindow` (health.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "analysis/recorder.hpp"
#include "common/histogram.hpp"
#include "common/time.hpp"
#include "core/config.hpp"
#include "core/stats.hpp"
#include "net/packet.hpp"
#include "sim/engine.hpp"

namespace xrdma::core {

// `draining` is not a severity rung: a peer that announced a graceful drain
// is leaving on purpose, so suspicion, dead declarations and breaker trips
// are suppressed for its announced window instead of escalating.
enum class PeerState : std::uint8_t {
  healthy,
  suspect,
  degraded,
  dead,
  draining,
};

const char* to_string(PeerState state);

/// Read-only snapshot of one peer's health, for tools (xr_stat / xr_ping)
/// and tests.
struct PeerHealthView {
  net::NodeId peer = 0;
  PeerState state = PeerState::healthy;
  double phi = 0.0;
  Nanos silence_bound = 0;       // effective dead bound (fixed or adaptive)
  Nanos rtt_p50 = 0;             // keepalive probe RTT percentiles
  Nanos rtt_p99 = 0;
  std::uint64_t probes = 0;      // probe RTT samples recorded
  std::uint64_t flaps = 0;
  std::uint32_t holddown_level = 0;
  Nanos holddown_until = 0;
  bool breaker_open = false;
  std::uint32_t channels = 0;    // channels currently registered to the peer
  bool draining = false;         // inside an announced drain window
  Nanos drain_until = 0;         // when the drain grade expires unrenewed
};

class HealthMonitor {
 public:
  /// φ (= -log10 P(the peer is merely late)) that sizes the adaptive
  /// silence bound: silence this unlikely means dead.
  static constexpr double kPhiDead = 8.0;
  /// Designated half-open probe channels per peer while its breaker is open.
  static constexpr std::uint32_t kHalfOpenProbes = 1;

  HealthMonitor(sim::Engine& engine, const Config& config)
      : engine_(engine), cfg_(config) {}

  // -- Channel registry (Context::adopt_established / channel_closed) --
  void register_channel(net::NodeId peer);
  void unregister_channel(net::NodeId peer, std::uint64_t channel_id);

  // -- Evidence feeds --
  /// Any receive-side sign of life from the peer (message rx, probe ack).
  void note_proof_of_life(net::NodeId peer);
  /// Round-trip of a zero-byte keepalive probe (post -> completion).
  void note_probe_rtt(net::NodeId peer, Nanos rtt);
  /// A window entry had to be re-sent after recovery (degraded detector).
  void note_retransmit(net::NodeId peer);
  /// A frame from the peer failed e2e CRC verification (corruption-storm
  /// detector: kCrcDegraded failures in one scan grade it degraded).
  void note_crc_failure(net::NodeId peer);
  /// A channel starts recovery against the peer; runs flap detection.
  void note_fault(net::NodeId peer);
  /// A keepalive declared the peer silent past the bound; opens the breaker.
  /// Suppressed (counted, not acted on) while the peer's announced drain
  /// window is open — a draining peer's silence is a restart, not a fault.
  void note_peer_dead(net::NodeId peer, std::uint64_t channel_id);
  /// The peer announced a graceful drain (DRAIN control message). Grades it
  /// `draining` for roughly `retry_after` (its reconnect hint; 0 falls back
  /// to lifecycle_retry_after), suppressing suspicion/death/breaker trips
  /// and pausing flap escalation until the window expires or the peer
  /// reconnects.
  void note_peer_draining(net::NodeId peer, Nanos retry_after);
  /// Is the peer inside an announced drain window right now?
  bool peer_draining(net::NodeId peer) const;
  /// Remaining announced drain window (0 when not draining).
  Nanos drain_remaining(net::NodeId peer) const;
  /// A channel came back to RDMA service (resume succeeded). Closes the
  /// breaker. `from_fallback` marks a TCP->RDMA restore, which is what the
  /// flap window measures against. Returns true when this closed an open
  /// breaker (callers use it to nudge parked siblings).
  bool note_restored(net::NodeId peer, bool from_fallback);

  // -- Circuit breaker gate --
  /// May `channel_id` issue a CM connect attempt to `peer` right now?
  bool may_attempt(net::NodeId peer, std::uint64_t channel_id) const;
  /// Ground truth: a CM connect attempt IS being issued (called from the
  /// Context resume choke point). Designates half-open probers and counts
  /// breaker violations for X-Check oracle 12.
  void note_attempt(net::NodeId peer, std::uint64_t channel_id);
  void note_attempt_done(net::NodeId peer, std::uint64_t channel_id);
  /// A channel skipped its ladder because the gate was closed.
  void note_denied(net::NodeId peer);

  // -- Verdicts --
  /// Silence (beyond the last probe ack) that means dead: the fixed
  /// keepalive_timeout, or the φ-accrual bound in adaptive mode once
  /// kMinSamples intervals are banked.
  Nanos silence_bound(net::NodeId peer) const;
  /// Suspicion level now: φ = -log10 P(the peer is merely late).
  double phi(net::NodeId peer, Nanos now) const;
  PeerState state(net::NodeId peer) const;
  /// Budget rule (replaces the old errc==peer_dead special case): a peer the
  /// health plane already distrusts (suspect or worse) gets a halved retry
  /// budget; a first-strike fault against a healthy peer gets the full one.
  std::uint32_t recovery_budget(net::NodeId peer,
                                std::uint32_t max_attempts) const;
  /// Remaining flap hold-down: extra delay before the next RDMA re-probe.
  Nanos probe_holddown(net::NodeId peer) const;

  /// Periodic state refresh (driven from Context::scan_tick).
  void evaluate(Nanos now);

  const HealthStats& stats() const { return stats_; }
  std::optional<PeerHealthView> view(net::NodeId peer) const;
  std::vector<PeerHealthView> peers() const;

  /// Flight-recorder tap. `on_dead` fires after a dead declaration has been
  /// logged — the Context uses it to trigger a post-mortem dump.
  void set_recorder(analysis::FlightRecorder* recorder,
                    std::function<void()> on_dead) {
    recorder_ = recorder;
    on_dead_ = std::move(on_dead);
  }

 private:
  static constexpr std::size_t kIntervalWindow = 64;

  struct PeerRecord {
    std::uint32_t channels = 0;
    // Proof-of-life inter-arrival history (sliding window).
    Nanos last_proof = 0;
    double intervals[kIntervalWindow] = {};
    std::size_t interval_count = 0;
    std::size_t interval_next = 0;
    double interval_sum = 0.0;
    double interval_sumsq = 0.0;
    // Probe RTTs.
    Histogram rtt;
    double rtt_short = 0.0;  // fast EWMA (alpha 1/4)
    double rtt_long = 0.0;   // slow EWMA (alpha 1/64)
    std::uint64_t rtt_samples = 0;
    std::uint64_t retx_in_scan = 0;
    std::uint64_t crc_in_scan = 0;  // CRC failures this evaluation scan
    // State machine.
    PeerState state = PeerState::healthy;
    bool dead = false;
    // Breaker.
    bool breaker_open = false;
    std::vector<std::uint64_t> probers;  // designated half-open channels
    std::uint32_t halfopen_inflight = 0;
    // Flap suppression.
    Nanos last_restore = 0;
    Nanos last_flap = 0;
    std::uint64_t flaps = 0;
    std::uint32_t holddown_level = 0;
    Nanos holddown_until = 0;
    // Announced drain window (graceful-leave grade, not a severity rung).
    bool draining = false;
    Nanos drain_until = 0;
  };

  PeerRecord& record(net::NodeId peer) { return peers_[peer]; }
  const PeerRecord* find(net::NodeId peer) const;
  void rec_log(analysis::RecEvent ev, std::uint16_t code = 0,
               std::uint32_t peer = 0, std::uint64_t a = 0,
               std::uint64_t b = 0);
  void grade_change(net::NodeId peer, PeerRecord& rec, PeerState next);
  void push_interval(PeerRecord& rec, double interval);
  double interval_mean(const PeerRecord& rec) const;
  double interval_sigma(const PeerRecord& rec) const;
  double phi_of(const PeerRecord& rec, Nanos now) const;
  Nanos bound_of(const PeerRecord& rec) const;
  PeerHealthView view_of(net::NodeId peer, const PeerRecord& rec) const;

  sim::Engine& engine_;
  const Config& cfg_;
  std::map<net::NodeId, PeerRecord> peers_;
  HealthStats stats_;
  analysis::FlightRecorder* recorder_ = nullptr;
  std::function<void()> on_dead_;
};

}  // namespace xrdma::core

// Statistic component: the per-channel and per-context counters XR-Stat
// exposes (§VI-B) and the monitor aggregates.
//
// Each counter is declared once, as an `X(field, "plane.metric")` entry in
// one of the lists below. The lists generate the struct fields and their
// sums, and ContextMetrics exports every entry under its metric name;
// `nullptr` marks a counter that is summed but not exported.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/histogram.hpp"
#include "common/time.hpp"

namespace xrdma::core {

#define XR_CHANNEL_STATS(X)                                                   \
  X(msgs_tx, "chan.msgs_tx")                                                  \
  X(msgs_rx, "chan.msgs_rx")                                                  \
  X(bytes_tx, "chan.bytes_tx") /* payload bytes */                            \
  X(bytes_rx, "chan.bytes_rx")                                                \
  X(large_msgs_tx, "chan.large_msgs_tx")                                      \
  X(large_msgs_rx, "chan.large_msgs_rx")                                      \
  X(acks_tx, "chan.acks_tx") /* standalone ACK messages */                    \
  X(acks_rx, nullptr)                                                         \
  X(nops_tx, "chan.nops_tx")                                                  \
  X(nops_rx, nullptr)                                                         \
  X(keepalive_probes, "chan.keepalive_probes")                                \
  X(window_stalls, "chan.window_stalls") /* send_msg had to queue */          \
  X(flowctl_queued, "chan.flowctl_queued") /* WRs deferred by queuing */      \
  X(reads_issued, "chan.reads_issued") /* rendezvous pull fragments */        \
  X(rpc_calls, "chan.rpc_calls")                                              \
  X(rpc_timeouts, "chan.rpc_timeouts")                                        \
  X(bad_messages, "chan.bad_messages") /* framing / protocol anomalies */     \
  X(filtered_drops, "chan.filtered_drops") /* fault-injection ingress */      \
  X(egress_drops, "chan.egress_drops") /* fault-injection egress drops */     \
  X(mock_tx, "chan.mock_tx") /* messages sent over the TCP fallback */        \
  X(dup_msgs_rx, "chan.dup_msgs_rx") /* retransmits already delivered */      \
  /* Recovery plane (retry ladder + TCP fallback). */                         \
  X(recoveries_started, "recovery.started")                                   \
  X(recovery_attempts, "recovery.attempts") /* CM resume handshakes */        \
  X(recoveries_completed, "recovery.completed")                               \
  X(recovery_retransmits, "recovery.retransmits") /* re-sent on resume */     \
  X(fallback_switches, "recovery.fallback_switches") /* onto TCP */           \
  X(fallback_restores, "recovery.fallback_restores") /* TCP to RDMA */        \
  X(rpc_aborts, "chan.rpc_aborts") /* completed channel_closed at close() */  \
  /* Overload control. */                                                     \
  X(tx_would_block, "overload.tx_would_block") /* rejected at the cap */      \
  X(writable_signals, "overload.writable_signals") /* on_writable edges */    \
  X(naks_tx, "overload.naks_tx") /* rendezvous pulls NAK'd (receiver) */      \
  X(naks_rx, "overload.naks_rx") /* NAKs received (sender) */                 \
  X(pulls_deferred, "overload.pulls_deferred") /* parked on mem pressure */   \
  /* Emits/retransmits parked on alloc fail. */                               \
  X(tx_mem_deferrals, "overload.tx_mem_deferrals")                            \
  /* Control plane hit an empty pool. */                                      \
  X(ctrl_alloc_failures, "overload.ctrl_alloc_failures")                      \
  X(tx_shed, "overload.tx_shed") /* sends shed under hard mem pressure */     \
  /* Health plane: retry ladders skipped (breaker open). */                   \
  X(breaker_fastfails, "health.breaker_fastfails")                            \
  /* Lifecycle plane (graceful drain + protocol negotiation). */              \
  /* Decode refused out-of-range version. */                                  \
  X(hdr_version_reject, "chan.hdr_version_reject")                            \
  X(hdr_tlv_skipped, "chan.hdr_tlv_skipped") /* unknown TLVs, by rule */      \
  X(drains_tx, "chan.drains_tx") /* DRAIN announcements sent */               \
  X(drains_rx, "chan.drains_rx") /* DRAIN announcements received */           \
  X(drain_recovery_parks, "recovery.drain_parks") /* peer drains */           \
  /* Batched hot path (doorbell coalescing + inline sends). */                \
  X(doorbells, "chan.doorbells") /* doorbell rings for this channel */        \
  X(doorbell_wrs, nullptr) /* WRs those doorbells carried */                  \
  X(inline_sends, "chan.inline_sends") /* eager sends carried in the WQE */   \
  /* MemCache staging copies skipped. */                                      \
  X(eager_copies_avoided, "mem.eager_copies_avoided")                         \
  /* End-to-end integrity plane (e2e_crc). */                                 \
  X(crc_stamped_tx, "integrity.crc_stamped_tx") /* stamped with CRC TLV */    \
  X(crc_failures_rx, "integrity.crc_failures_rx") /* CRC mismatch drops */    \
  X(integrity_naks_tx, "integrity.naks_tx") /* sent (receiver) */             \
  X(integrity_naks_rx, "integrity.naks_rx") /* received (sender) */           \
  X(integrity_retransmits, "integrity.retransmits") /* re-sent on NAK */      \
  X(integrity_exhausted, "integrity.exhausted") /* retry budgets exhausted */

/// Context-wide health-plane counters (aggregated across peers by the
/// HealthMonitor; X-Check oracles 11/12 read these).
#define XR_HEALTH_STATS(X)                                                    \
  /* Peers declared dead (breaker opens). */                                  \
  X(dead_declarations, "health.dead_declarations")                            \
  X(breaker_opens, "health.breaker_opens")                                    \
  X(breaker_closes, "health.breaker_closes")                                  \
  X(connects_allowed, "health.connects_allowed") /* admitted by the gate */   \
  /* Ladders cut short by an open breaker. */                                 \
  X(connects_denied, "health.connects_denied")                                \
  X(breaker_violations, nullptr) /* attempts issued past a closed gate */     \
  X(flaps, "health.flaps") /* restore-then-fail inside flap window */         \
  X(holddown_escalations, "health.holddown_escalations")                      \
  X(suspect_transitions, "health.suspect_transitions")                        \
  X(degraded_transitions, "health.degraded_transitions")                      \
  /* Lifecycle plane: peers graded draining instead of suspect/dead. */       \
  X(draining_marks, "health.draining_marks") /* note_peer_draining calls */   \
  /* Dead/suspect verdicts suppressed. */                                     \
  X(drain_suppressions, "health.drain_suppressions")                          \
  /* Grades that broke the draining contract (X-Check oracle 13). */          \
  X(drain_violations, "health.drain_violations")                              \
  /* Integrity plane: peers graded degraded by the corruption-storm */        \
  /* detector. */                                                             \
  X(crc_storms, "health.crc_storms")

#define XR_CONTEXT_STATS(X)                                                   \
  X(polls, "ctx.polls")                                                       \
  X(empty_polls, "ctx.empty_polls")                                           \
  X(slow_polls, "ctx.slow_polls") /* poll gap exceeded polling_warn_cycle */  \
  /* Poll-gap watchdog trips. Tracks slow_polls today, but is the plane's */  \
  /* own alarm counter: the trips also land in the flight recorder and */     \
  /* the metrics registry (the satellite wiring slow polls used to lack). */  \
  X(watchdog_trips, "ctx.watchdog_trips")                                     \
  X(events_processed, "ctx.events_processed")                                 \
  X(parks, "ctx.parks") /* hybrid poller switched to event mode */            \
  X(wakeups, "ctx.wakeups")                                                   \
  X(channels_opened, "ctx.channels_opened")                                   \
  X(channels_closed, "ctx.channels_closed")                                   \
  X(channel_errors, "ctx.channel_errors")                                     \
  /* Recoveries brought back to service. */                                   \
  X(channels_recovered, "ctx.channels_recovered")                             \
  /* Ladder transitions into soft / into hard. */                             \
  X(pressure_soft_events, "overload.pressure_soft_events")                    \
  X(pressure_hard_events, "overload.pressure_hard_events")                    \
  /* Lifecycle plane. */                                                      \
  X(drains_started, "ctx.drains_started") /* active -> draining */            \
  X(drains_completed, "ctx.drains_completed") /* draining -> drained */       \
  /* Connects/accepts refused while draining (would_block surface). */        \
  X(lifecycle_rejects, "ctx.lifecycle_rejects")                               \
  /* Doorbell-batch ledger (X-Check oracle 14): every WR that entered an */   \
  /* accumulator is posted, deferred to the flow-control queue, or */         \
  /* dropped (purge/dead channel), or is pending in an accumulator now. */    \
  X(batch_accumulated, nullptr)                                               \
  X(batch_posted, nullptr)                                                    \
  X(batch_deferred, nullptr)                                                  \
  X(batch_dropped, nullptr)                                                   \
  X(batch_pending, nullptr)                                                   \
  /* Reposts of the oldest deferred WR that found its QP's send queue */      \
  /* still full and went back to the front of the queue. */                   \
  X(requeued_heads, nullptr)

#define XR_STAT_FIELD(field, name) std::uint64_t field = 0;
#define XR_STAT_ADD(field, name) field += o.field;

struct ChannelStats {
  XR_CHANNEL_STATS(XR_STAT_FIELD)

  ChannelStats& operator+=(const ChannelStats& o) {
    XR_CHANNEL_STATS(XR_STAT_ADD)
    return *this;
  }
};

struct HealthStats {
  XR_HEALTH_STATS(XR_STAT_FIELD)

  HealthStats& operator+=(const HealthStats& o) {
    XR_HEALTH_STATS(XR_STAT_ADD)
    return *this;
  }
};

struct ContextStats {
  XR_CONTEXT_STATS(XR_STAT_FIELD)
  Nanos worst_poll_gap = 0;
  Histogram drain_latency;  // ns, begin_drain -> drained
  Histogram rpc_latency;  // ns, across all channels
  Histogram recovery_latency;  // ns, fault detection -> channel usable again

  ContextStats& operator+=(const ContextStats& o) {
    XR_CONTEXT_STATS(XR_STAT_ADD)
    worst_poll_gap = std::max(worst_poll_gap, o.worst_poll_gap);
    drain_latency.merge(o.drain_latency);
    rpc_latency.merge(o.rpc_latency);
    recovery_latency.merge(o.recovery_latency);
    return *this;
  }
};

#undef XR_STAT_ADD
#undef XR_STAT_FIELD

}  // namespace xrdma::core

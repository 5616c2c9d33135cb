#include "check/oracles.hpp"

#include "common/logging.hpp"

namespace xrdma::check {

void ViolationLog::add(Nanos at, std::string what) {
  ++total_;
  if (entries_.size() < kMaxKept) {
    entries_.push_back(strfmt("t=%lld: ", static_cast<long long>(at)) +
                       std::move(what));
  }
}

// ---------------------------------------------------------------------------
// SpanLedger (oracle 6).

void SpanLedger::on_span_post(const core::SpanPostEvent& ev) {
  ++posts_by_id_[ev.trace_id];
  ++total_posts_;
}

void SpanLedger::on_span_deliver(const core::SpanDeliverEvent& ev) {
  ++total_delivers_;
  if (tolerate_ && tolerate_(ev)) {
    // The id itself is untrustworthy on this path (no end-to-end CRC under
    // a corruption schedule): exclude it from the post/deliver matching
    // rather than flag a ghost orphan.
    ++tolerated_delivers_;
    return;
  }
  ++delivers_by_id_[ev.trace_id];
}

void SpanLedger::check(ViolationLog& log, Nanos now) const {
  for (const auto& [id, count] : delivers_by_id_) {
    const auto it = posts_by_id_.find(id);
    if (it == posts_by_id_.end()) {
      log.add(now, strfmt("trace-span completeness: trace id %llx delivered "
                          "%u time(s) but never posted",
                          static_cast<unsigned long long>(id), count));
    }
  }
}

void SpanLedger::fold(std::uint64_t& digest) const {
  // FNV-1a over order-independent totals only; trace ids carry the
  // process-global context salt and would break same-process replays.
  const std::uint64_t values[4] = {
      total_posts_, total_delivers_,
      static_cast<std::uint64_t>(posts_by_id_.size()),
      static_cast<std::uint64_t>(delivers_by_id_.size())};
  for (const std::uint64_t v : values) {
    for (int b = 0; b < 8; ++b) {
      digest ^= (v >> (8 * b)) & 0xff;
      digest *= 0x100000001b3ULL;
    }
  }
}

// ---------------------------------------------------------------------------
// LiveOracle (oracles 2, 4, 5).

void LiveOracle::attach(std::vector<core::Context*> contexts,
                        std::vector<const rnic::Rnic*> nics,
                        ViolationLog* log) {
  contexts_ = std::move(contexts);
  nics_ = std::move(nics);
  log_ = log;
}

void LiveOracle::observe_channel(core::Channel& ch, Nanos now) {
  using core::Seq;
  const Seq tx_seq = ch.tx_seq();
  const Seq acked = ch.tx_acked();
  const Seq inflight = ch.inflight_msgs();

  // Window conservation: every claimed SEQ is either retired by a
  // cumulative ack or still occupies exactly one ring slot.
  if (tx_seq < acked || tx_seq - acked != inflight) {
    log_->add(now, strfmt("window conservation: channel %llu seq=%llu "
                          "acked=%llu but inflight=%llu",
                          static_cast<unsigned long long>(ch.id()),
                          static_cast<unsigned long long>(tx_seq),
                          static_cast<unsigned long long>(acked),
                          static_cast<unsigned long long>(inflight)));
  }
  if (inflight > ch.send_window_depth()) {
    log_->add(now, strfmt("window overrun: channel %llu inflight=%llu > "
                          "depth=%u",
                          static_cast<unsigned long long>(ch.id()),
                          static_cast<unsigned long long>(inflight),
                          ch.send_window_depth()));
  }
  const Seq wta = ch.rx_wta();
  const Seq rta = ch.rx_rta();
  if (rta > wta || wta - rta > ch.recv_window_depth()) {
    log_->add(now, strfmt("recv window edges: channel %llu wta=%llu "
                          "rta=%llu depth=%u",
                          static_cast<unsigned long long>(ch.id()),
                          static_cast<unsigned long long>(wta),
                          static_cast<unsigned long long>(rta),
                          ch.recv_window_depth()));
  }

  // Monotonicity: ACKED and RTA never move backwards — an entry retired
  // twice (double completion) or a window rebuilt wrong would show here.
  ChanMark& mark = marks_[{ch.context().node(), ch.id()}];
  if (acked < mark.acked) {
    log_->add(now, strfmt("acked edge moved backwards on channel %llu: "
                          "%llu -> %llu",
                          static_cast<unsigned long long>(ch.id()),
                          static_cast<unsigned long long>(mark.acked),
                          static_cast<unsigned long long>(acked)));
  }
  if (rta < mark.rta) {
    log_->add(now, strfmt("rta edge moved backwards on channel %llu: "
                          "%llu -> %llu",
                          static_cast<unsigned long long>(ch.id()),
                          static_cast<unsigned long long>(mark.rta),
                          static_cast<unsigned long long>(rta)));
  }
  mark.acked = std::max(mark.acked, acked);
  mark.rta = std::max(mark.rta, rta);

  // Oracle 7 (per channel): the bounded tx queue honours its caps. The one
  // deliberate exception is the progress guarantee — an empty queue always
  // admits one message, so a single entry may exceed the byte cap.
  const core::Config& cfg = ch.context().config();
  if (cfg.tx_queue_max_msgs > 0 &&
      ch.queued_msgs() > std::max<std::size_t>(cfg.tx_queue_max_msgs, 1)) {
    log_->add(now, strfmt("tx queue msg cap exceeded on channel %llu: "
                          "queued=%zu cap=%u",
                          static_cast<unsigned long long>(ch.id()),
                          ch.queued_msgs(), cfg.tx_queue_max_msgs));
  }
  if (cfg.tx_queue_max_bytes > 0 && ch.queued_msgs() > 1 &&
      ch.queued_bytes() > cfg.tx_queue_max_bytes) {
    log_->add(now, strfmt("tx queue byte cap exceeded on channel %llu: "
                          "queued=%llu cap=%llu",
                          static_cast<unsigned long long>(ch.id()),
                          static_cast<unsigned long long>(ch.queued_bytes()),
                          static_cast<unsigned long long>(
                              cfg.tx_queue_max_bytes)));
  }

  // Oracle 9: control-plane progress under backlog. An established RDMA
  // channel must show proof of life within one keepalive interval plus two
  // timeout windows — if the data plane is wedged (full queues, exhausted
  // pools), the zero-byte keepalive writes still go through; if the peer is
  // truly gone, keepalive declares peer_dead and the state leaves
  // established. Either way this bound holds.
  if (ch.state() == core::Channel::State::established && !ch.mocked() &&
      cfg.keepalive_intv > 0) {
    const Nanos last_sign =
        std::max({ch.last_tx_time(), ch.last_rx_time(), ch.last_alive_time()});
    const Nanos bound = cfg.keepalive_intv + 2 * cfg.keepalive_timeout;
    if (now - last_sign > bound) {
      log_->add(now, strfmt("control-plane stall on channel %llu: no sign of "
                            "life for %lld ns (bound %lld)",
                            static_cast<unsigned long long>(ch.id()),
                            static_cast<long long>(now - last_sign),
                            static_cast<long long>(bound)));
    }
  }
  // Oracle 9, fallback variant: a channel riding the TCP mock keeps the
  // same liveness contract through the NOP exchange. Our own NOP tx
  // refreshes last_tx constantly, so only receive-side proof counts here.
  if (ch.state() == core::Channel::State::established && ch.mocked() &&
      cfg.keepalive_intv > 0) {
    const Nanos last_sign =
        std::max(ch.last_rx_time(), ch.last_alive_time());
    const Nanos bound = cfg.keepalive_intv + 2 * cfg.keepalive_timeout;
    if (now - last_sign > bound) {
      log_->add(now, strfmt("fallback-stream stall on channel %llu: no sign "
                            "of life for %lld ns (bound %lld)",
                            static_cast<unsigned long long>(ch.id()),
                            static_cast<long long>(now - last_sign),
                            static_cast<long long>(bound)));
    }
  }
}

void LiveOracle::observe(Nanos now) {
  if (!log_) return;
  ++observations_;
  for (core::Context* ctx : contexts_) {
    // Flow-control cap (§V-C): posted-and-uncompleted WRs never exceed the
    // configured bound while the queuing policy is on.
    if (ctx->config().flowctl &&
        ctx->outstanding_wrs() > ctx->config().max_outstanding_wrs) {
      log_->add(now, strfmt("flow-control cap exceeded on node %u: "
                            "outstanding=%u cap=%u",
                            ctx->node(), ctx->outstanding_wrs(),
                            ctx->config().max_outstanding_wrs));
    }
    // Oracle 7 (aggregate): the context-wide queued-byte gauge is exactly
    // the sum over channels — a leak here would quietly disable the
    // ctx_tx_max_bytes admission check.
    std::uint64_t sum = 0;
    for (core::Channel* ch : ctx->channels()) sum += ch->queued_bytes();
    if (sum != ctx->queued_tx_bytes()) {
      log_->add(now, strfmt("tx queue accounting leak on node %u: "
                            "sum=%llu gauge=%llu",
                            ctx->node(), static_cast<unsigned long long>(sum),
                            static_cast<unsigned long long>(
                                ctx->queued_tx_bytes())));
    }

    // Oracle 8: memcache occupancy within budget, and the control-plane
    // reserve did its job — privileged allocations never fail while a
    // reserve is configured.
    for (core::MemCache* cache :
         {&ctx->ctrl_cache(), &ctx->data_cache()}) {
      const auto& ms = cache->stats();
      if (ms.in_use_bytes > ms.occupied_bytes ||
          ms.occupied_bytes > cache->budget_bytes()) {
        log_->add(now, strfmt("memcache bounds on node %u: in_use=%llu "
                              "occupied=%llu budget=%llu",
                              ctx->node(),
                              static_cast<unsigned long long>(ms.in_use_bytes),
                              static_cast<unsigned long long>(
                                  ms.occupied_bytes),
                              static_cast<unsigned long long>(
                                  cache->budget_bytes())));
      }
    }
    if (ctx->config().memcache_ctrl_reserve > 0 &&
        ctx->ctrl_cache().stats().privileged_alloc_fails > 0) {
      log_->add(now, strfmt("control plane starved on node %u despite "
                            "reserve: %llu privileged alloc failures",
                            ctx->node(),
                            static_cast<unsigned long long>(
                                ctx->ctrl_cache().stats()
                                    .privileged_alloc_fails)));
    }

    // Oracle 11: without a silencing fault in the schedule (host_down, or
    // drops that can exhaust the NIC retransmit budget), the health plane
    // must never declare a peer dead — bounded delays, brownouts and
    // corruption cannot mute a hardware-acked zero-byte keepalive.
    if (!silence_faults_injected_ && !false_dead_reported_ &&
        ctx->health().stats().dead_declarations > 0) {
      false_dead_reported_ = true;
      log_->add(now, strfmt("false dead declaration on node %u: %llu peers "
                            "declared dead with no silencing fault injected",
                            ctx->node(),
                            static_cast<unsigned long long>(
                                ctx->health().stats().dead_declarations)));
    }
    // Oracle 13: drain courtesy — the health plane counts every dead
    // declaration or breaker trip that lands inside a peer's announced
    // drain window. Graceful leave must read as `draining`, not failure.
    if (!drain_violation_reported_ &&
        ctx->health().stats().drain_violations > 0) {
      drain_violation_reported_ = true;
      log_->add(now, strfmt("drain courtesy violated on node %u: %llu "
                            "dead/breaker transitions against a peer inside "
                            "its announced drain window",
                            ctx->node(),
                            static_cast<unsigned long long>(
                                ctx->health().stats().drain_violations)));
    }
    // Oracle 14: doorbell-batch conservation. Every WR that ever entered a
    // batch accumulator must be accounted for: rung through a doorbell,
    // parked on the flow-control deferred queue, or dropped with a dead /
    // purged channel. An imbalance means a chain was lost in the
    // accumulator (messages that never hit the wire) or double-posted
    // (duplicate delivery one hop later).
    const core::ContextStats& cs = ctx->stats();
    if (!batch_violation_reported_ &&
        cs.batch_accumulated != cs.batch_posted + cs.batch_deferred +
                                    cs.batch_dropped + cs.batch_pending) {
      batch_violation_reported_ = true;
      log_->add(now, strfmt("batch conservation broken on node %u: "
                            "accumulated %llu != posted %llu + deferred %llu "
                            "+ dropped %llu + pending %llu",
                            ctx->node(),
                            static_cast<unsigned long long>(
                                cs.batch_accumulated),
                            static_cast<unsigned long long>(cs.batch_posted),
                            static_cast<unsigned long long>(cs.batch_deferred),
                            static_cast<unsigned long long>(cs.batch_dropped),
                            static_cast<unsigned long long>(cs.batch_pending)));
    }
    // Oracle 12: breaker consistency — no CM connect attempt ever passed a
    // closed gate (the HealthMonitor counts them at the resume choke point).
    if (!breaker_violation_reported_ &&
        ctx->health().stats().breaker_violations > 0) {
      breaker_violation_reported_ = true;
      log_->add(now, strfmt("breaker violation on node %u: %llu CM connect "
                            "attempts issued while the peer's gate was closed",
                            ctx->node(),
                            static_cast<unsigned long long>(
                                ctx->health().stats().breaker_violations)));
    }

    for (core::Channel* ch : ctx->channels()) observe_channel(*ch, now);
  }
  if (!rnr_reported_) {
    for (const rnic::Rnic* nic : nics_) {
      if (nic->stats().rnr_naks_sent != 0 || nic->stats().rnr_events != 0) {
        log_->add(now, strfmt("RNR condition on node %u: naks_sent=%llu "
                              "rnr_events=%llu",
                              nic->node(),
                              static_cast<unsigned long long>(
                                  nic->stats().rnr_naks_sent),
                              static_cast<unsigned long long>(
                                  nic->stats().rnr_events)));
        rnr_reported_ = true;
      }
    }
  }
}

}  // namespace xrdma::check

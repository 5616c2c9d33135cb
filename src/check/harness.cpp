#include "check/harness.hpp"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>

#include "analysis/filter.hpp"
#include "analysis/recorder.hpp"
#include "check/oracles.hpp"
#include "common/logging.hpp"
#include "core/context.hpp"
#include "testbed/cluster.hpp"

namespace xrdma::check {

namespace {

constexpr std::uint16_t kPort = 7000;

/// A per-node draw that is a pure function of (seed, salt, node), so replay
/// files pin it.
std::uint64_t node_draw(std::uint64_t seed, std::uint64_t salt,
                        std::uint32_t node) {
  std::uint64_t h = seed ^ salt;
  h ^= (static_cast<std::uint64_t>(node) + 1) * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 32;
  return h;
}

void fold64(std::uint64_t& d, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    d ^= (v >> (8 * b)) & 0xff;
    d *= 0x100000001b3ULL;
  }
}

struct SentItem {
  std::uint64_t tag = 0;
  std::uint32_t size = 0;
  bool rpc = false;
};

/// One channel generation of one (src, dst, slot): the unit the delivery
/// oracle reasons about. Keyed at runtime by the conn_token both sides
/// share; identified in the digest by the stable logical key.
struct Flow {
  SlotKey key;
  std::uint32_t generation = 0;
  core::Channel* connector_ch = nullptr;  // kept alive by its Context
  std::vector<SentItem> sent;             // successfully enqueued, in order
  // Rejected by backpressure (would_block): (tag, size). Oracle 10 demands
  // none of these ever reaches the peer — a reject is a promise.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> rejected;
  std::uint64_t delivered = 0;
  std::uint64_t next_seq = 0;  // expected Msg::seq of the next delivery
  std::uint64_t delivery_digest = 0xcbf29ce484222325ULL;
  bool closed_by_op = false;  // workload closed it: prefix delivery suffices
};

struct SlotState {
  core::Channel* ch = nullptr;
  std::uint64_t token = 0;
  std::uint32_t next_generation = 0;
  bool connecting = false;
  bool close_on_connect = false;
};

class Runner {
 public:
  Runner(const Schedule& s, const RunOptions& opt) : s_(s), opt_(opt) {}
  RunReport run();

 private:
  core::Config make_config() const;
  void execute(const Op& op);
  void do_open(const Op& op);
  void close_slot(SlotState& st);
  void inject(const FaultOp& f);
  void on_delivery(core::Channel& ch, core::Msg&& m);
  void quiesce();
  void check_completeness();
  void check_balance();
  void finish_report();

  Nanos now() const { return cluster_->engine().now(); }

  /// Oracle 15 split: a flow whose channel negotiated kFeatE2eCrc must
  /// survive corruption losslessly — its delivery checks stay fatal. Flows
  /// without the feature keep the legacy expected-fail carve-out under
  /// corruption_shape: their anomalies are tolerated and counted.
  bool tolerate_anomaly(const core::Channel& ch) {
    if (s_.params.corruption_shape == 0 ||
        (ch.proto_features() & core::kFeatE2eCrc) != 0) {
      return false;
    }
    ++rep_.unprotected_anomalies;
    return true;
  }

  const Schedule& s_;
  const RunOptions& opt_;
  std::unique_ptr<testbed::Cluster> cluster_;
  std::vector<std::unique_ptr<core::Context>> ctxs_;
  std::vector<std::unique_ptr<analysis::Filter>> filters_;
  std::map<SlotKey, SlotState> slots_;
  std::map<std::uint64_t, Flow> flows_;  // conn_token -> flow
  ViolationLog log_;
  SpanLedger spans_;
  LiveOracle live_;
  struct CacheBaseline {
    std::uint64_t ctrl = 0, data = 0;
  };
  std::vector<CacheBaseline> baseline_;
  // Per-node: can this node's channels negotiate kFeatE2eCrc at all?
  // (e2e_crc drawn on AND speaking wire v2 with the feature advertised.)
  std::vector<bool> node_crc_capable_;
  RunReport rep_;
  std::uint64_t probe_tick_ = 0;
  std::uint64_t host_faults_ = 0;  // host_down/up injections (no Filter rule)
};

core::Config Runner::make_config() const {
  core::Config cfg;
  cfg.window_depth = s_.params.window_depth;
  cfg.max_outstanding_wrs = s_.params.max_outstanding_wrs;
  cfg.trace_sample_mask = s_.params.trace_sample_mask;
  cfg.frag_size = s_.params.frag_size;
  // Overload-control knobs: bounded tx queues (byte cap scaled so mid-size
  // rendezvous messages hit it too) and, when a memory budget is set,
  // pools small enough that the pressure ladder engages under incast.
  cfg.tx_queue_max_msgs = s_.params.tx_queue_cap;
  cfg.tx_queue_max_bytes =
      s_.params.tx_queue_cap > 0
          ? static_cast<std::uint64_t>(s_.params.tx_queue_cap) * 16 * 1024
          : 0;
  if (s_.params.mem_budget_mb > 0) {
    cfg.memcache_mr_bytes = 256 * 1024;
    cfg.memcache_max_mrs = s_.params.mem_budget_mb * 4;
    cfg.mem_soft_pct = 60;
    cfg.mem_hard_pct = 90;
  }
  // Fast failure detection and recovery so a 30 ms workload window sees
  // full kill -> resume -> retransmit cycles, and quiesce converges.
  cfg.keepalive_intv = millis(2);
  cfg.keepalive_timeout = millis(10);
  // Health plane: the φ-accrual adaptive bound is opt-in per schedule; the
  // breaker and flap hold-down are always armed (they are no-ops until a
  // peer is actually declared dead, which needs a host_down fault).
  cfg.health_adaptive = s_.params.health_adaptive;
  // Baseline models the legacy fleet: no end-to-end CRC, so with_corruption
  // schedules (and planted-corruption tests) keep their expected-fail
  // semantics. corruption_shape re-enables it per node below.
  cfg.e2e_crc = false;
  if (s_.params.drain_cycles > 0) {
    // Scale the drain clocks to the horizon: force-close stragglers after
    // 4 ms so a cycle actually reaches `drained`, and announce a
    // retry-after whose 2x forgiveness window (16 ms) covers the 10 ms
    // keepalive cliff — so when a fault strands a channel mid-drain the
    // verdict is suppressed, not a false dead.
    cfg.lifecycle_drain_timeout = millis(4);
    cfg.lifecycle_retry_after = millis(8);
  }
  cfg.recovery_max_attempts = 4;
  cfg.recovery_backoff = micros(200);
  cfg.deadlock_scan_period = micros(500);
  cfg.poll_mode = core::PollMode::busy;
  // 1 us polling keeps event counts (and wall clock) manageable across a
  // smoke sweep while staying far below every protocol timescale.
  cfg.busy_poll_interval = micros(1);
  return cfg;
}

RunReport Runner::run() {
  rep_.seed = s_.seed;
  cluster_ = std::make_unique<testbed::Cluster>(
      testbed::ClusterConfig::rack(static_cast<int>(s_.params.num_hosts)));
  sim::Engine& eng = cluster_->engine();

  const core::Config base_cfg = make_config();
  for (std::uint32_t n = 0; n < s_.params.num_hosts; ++n) {
    core::Config cfg = base_cfg;
    if (s_.params.mixed_versions && (n % 2 == 0)) {
      // "Old build": this node speaks wire v1 only and advertises no
      // feature bits, so every mixed pair must negotiate down to v1 —
      // the rolling-upgrade half-done state.
      cfg.proto_version_max = 1;
      cfg.proto_features = 0;
    }
    if (s_.params.batch_shape > 0) {
      // Batching shape: every node runs a different point in the knob
      // space — chained vs single-WR posting, inline on/off/small, poll-end
      // flush vs schedule_after(0) fallback — so one sweep covers the whole
      // matrix and mixed pairs (batching talker, non-batching listener)
      // exist by construction.
      const std::uint64_t h =
          node_draw(s_.seed, 0xba7c40ULL + s_.params.batch_shape, n);
      static constexpr std::uint32_t kWrs[] = {1, 2, 4, 8, 16};
      static constexpr std::uint32_t kInline[] = {0, 64, 256};
      cfg.tx_batch_max_wrs = kWrs[h % 5];
      cfg.inline_max = kInline[(h >> 8) % 3];
      cfg.tx_batch_flush_on_poll_end = ((h >> 16) & 1) != 0;
    }
    if (s_.params.corruption_shape > 0) {
      // Corruption shape: ~3/4 of nodes arm the integrity plane, the rest
      // model the not-yet-upgraded fleet, so CRC-protected, CRC-free and
      // (with mixed_versions) v1 channels coexist and negotiate against
      // each other in one run.
      const std::uint64_t h =
          node_draw(s_.seed, 0xc4c32cULL + s_.params.corruption_shape, n);
      cfg.e2e_crc = (h % 4) != 0;
    }
    node_crc_capable_.push_back(cfg.e2e_crc && cfg.proto_version_max >= 2 &&
                                (cfg.proto_features & core::kFeatE2eCrc) != 0);
    ctxs_.push_back(std::make_unique<core::Context>(cluster_->rnic(n),
                                                    cluster_->cm(), cfg));
    core::Context& ctx = *ctxs_.back();
    // Pin the per-context salt: the default mixes in a process-global
    // counter, which would make two same-seed runs in one process diverge
    // (it seeds backoff jitter). Node id keeps epochs distinct.
    ctx.set_trace_epoch((static_cast<std::uint64_t>(n) << 56) ^
                        (static_cast<std::uint64_t>(n + 1) << 40));
    ctx.set_span_sink(&spans_);
    ctx.listen(kPort, [this](core::Channel& ch) {
      ch.set_on_msg([this](core::Channel& c, core::Msg&& m) {
        on_delivery(c, std::move(m));
      });
    });
    filters_.push_back(std::make_unique<analysis::Filter>(
        ctx, s_.seed ^ (0xf117e200ULL + n)));
  }

  std::vector<core::Context*> cptrs;
  std::vector<const rnic::Rnic*> nptrs;
  for (auto& c : ctxs_) cptrs.push_back(c.get());
  for (std::uint32_t n = 0; n < s_.params.num_hosts; ++n) {
    nptrs.push_back(&cluster_->rnic(n));
  }
  live_.attach(std::move(cptrs), std::move(nptrs), &log_);
  if (s_.params.corruption_shape > 0) {
    // Oracle 15 carve-out for oracle 6: a corrupt fault on a channel with
    // no end-to-end CRC at either endpoint can rewrite the trace-id bytes
    // in flight, so the deliver would match no post. Tolerate (and count)
    // exactly those paths; CRC-protected paths stay under the strict check.
    spans_.set_tolerate([this](const core::SpanDeliverEvent& ev) {
      const auto capable = [this](net::NodeId n) {
        return n < node_crc_capable_.size() && node_crc_capable_[n];
      };
      return !capable(ev.node) || !capable(ev.peer);
    });
  }
  // Oracle 11 is only meaningful when nothing in the schedule can silence a
  // peer at the transport level: a downed host's own context legitimately
  // declares its whole world dead, and a drop storm that exhausts the NIC's
  // retransmit budget surfaces as retry-exceeded — indistinguishable from a
  // dead peer by design. Delay and corruption faults keep the oracle armed:
  // bounded latency or payload damage must never read as silence.
  // qp_kill counts too: a one-sided kill leaves the surviving peer probing
  // into a void until the resume handshake lands — and when the killed side
  // is a passive acceptor, that silence legitimately exceeds the bound.
  for (const FaultOp& f : s_.faults) {
    if (f.kind == analysis::FaultKind::host_down ||
        f.kind == analysis::FaultKind::host_up ||
        f.kind == analysis::FaultKind::ingress_drop ||
        f.kind == analysis::FaultKind::egress_drop ||
        f.kind == analysis::FaultKind::qp_kill) {
      live_.set_silence_faults_injected(true);
      break;
    }
  }
  if (s_.params.brownout_delay_us > 0) {
    // Brownout shape: persistent bounded latency inflation on every node,
    // both directions, for the whole workload window (cleared at quiesce).
    // The bound must stay under the failure detector's floor — oracle 11
    // fails the run if the health plane still declares anyone dead.
    for (auto& f : filters_) {
      for (const analysis::FaultKind kind :
           {analysis::FaultKind::ingress_delay,
            analysis::FaultKind::egress_delay}) {
        analysis::FaultRule r;
        r.kind = kind;
        r.probability = 0.35;
        r.budget = -1;
        r.delay = micros(s_.params.brownout_delay_us);
        f->add_rule(r);
      }
    }
  }
  if (opt_.continuous_checks) {
    const std::uint32_t stride = opt_.probe_stride ? opt_.probe_stride : 1;
    eng.set_post_event_hook([this, stride] {
      if (++probe_tick_ % stride == 0) live_.observe(now());
    });
  }

  for (auto& c : ctxs_) c->start_polling_loop();
  for (auto& c : ctxs_) {
    baseline_.push_back({c->ctrl_cache().stats().in_use_bytes,
                         c->data_cache().stats().in_use_bytes});
  }

  // Pre-arm the whole schedule; the engine's deterministic ordering does
  // the rest.
  for (const Op& op : s_.ops) {
    eng.schedule_at(op.at, [this, op] { execute(op); });
  }
  for (const FaultOp& f : s_.faults) {
    eng.schedule_at(f.at, [this, f] { inject(f); });
  }
  if (s_.params.drain_cycles > 0) {
    // Drain shape: one victim cycles active -> draining -> drained ->
    // restart across the back 5/8 of the horizon, driven through the same
    // online flag `xr_adm drain` flips. Deliberately NOT a FaultOp: a
    // graceful leave must keep oracle 11 armed, and oracle 13 checks that
    // no peer grades the victim suspect/dead while it drains.
    const auto victim = static_cast<std::uint32_t>((s_.seed >> 16) %
                                                   s_.params.num_hosts);
    const Nanos start = s_.params.horizon / 4;
    const Nanos span = s_.params.horizon * 5 / 8;
    const Nanos segment = span / s_.params.drain_cycles;
    for (std::uint32_t i = 0; i < s_.params.drain_cycles; ++i) {
      const Nanos at = start + static_cast<Nanos>(i) * segment;
      eng.schedule_at(at, [this, victim] {
        ctxs_[victim]->set_flag("lifecycle_drain", 1);
      });
      eng.schedule_at(at + segment / 2, [this, victim] {
        ctxs_[victim]->set_flag("lifecycle_drain", 0);
      });
    }
  }

  eng.run_until(s_.params.horizon);
  quiesce();
  check_balance();
  spans_.check(log_, now());
  finish_report();
  return rep_;
}

void Runner::execute(const Op& op) {
  const SlotKey key{op.src, op.dst, op.slot};
  switch (op.kind) {
    case OpKind::open:
      do_open(op);
      return;
    case OpKind::close: {
      SlotState& st = slots_[key];
      if (st.connecting) {
        st.close_on_connect = true;
      } else if (st.ch) {
        close_slot(st);
      }
      return;
    }
    case OpKind::send:
    case OpKind::call: {
      SlotState& st = slots_[key];
      if (!st.ch) return;  // slot never opened / open failed: no-op
      auto it = flows_.find(st.token);
      if (it == flows_.end()) return;
      Flow& fl = it->second;
      if (fl.closed_by_op) return;
      Buffer b = Buffer::make(op.size);
      fill_pattern(b, op.tag);
      if (op.kind == OpKind::send) {
        const Errc rc = st.ch->send_msg(std::move(b));
        if (rc == Errc::ok) {
          fl.sent.push_back({op.tag, op.size, false});
          ++rep_.msgs_sent;
        } else if (rc == Errc::would_block) {
          fl.rejected.emplace_back(op.tag, op.size);
          ++rep_.msgs_rejected;
        }
        return;
      }
      const std::uint64_t tag = op.tag;
      const std::uint32_t size = op.size;
      // Capture protection at issue time: the response rides the same
      // negotiated channel, so an unprotected flow's corrupted echo is the
      // tolerated legacy class, a protected one stays fatal (oracle 15).
      const bool prot =
          (st.ch->proto_features() & core::kFeatE2eCrc) != 0;
      const Errc rc = st.ch->call(
          std::move(b),
          [this, tag, size, prot](Result<core::Msg> r) {
            if (!r.ok()) {
              ++rep_.rpcs_failed;  // timeout / close abort: legal outcome
              return;
            }
            ++rep_.rpcs_completed;
            const core::Msg& m = r.value();
            if (m.payload.size() != size || !check_pattern(m.payload, tag)) {
              if (s_.params.corruption_shape > 0 && !prot) {
                ++rep_.unprotected_anomalies;
                return;
              }
              log_.add(now(),
                       strfmt("rpc response content mismatch: tag %llx "
                              "expected %u bytes, got %zu (pattern %s)",
                              static_cast<unsigned long long>(tag), size,
                              m.payload.size(),
                              check_pattern(m.payload, tag) ? "ok" : "bad"));
            }
          },
          millis(30));
      if (rc == Errc::ok) {
        fl.sent.push_back({tag, size, true});
        ++rep_.rpcs_issued;
        ++rep_.msgs_sent;  // the request is a windowed data message too
      } else if (rc == Errc::would_block) {
        fl.rejected.emplace_back(tag, size);
        ++rep_.msgs_rejected;
      }
      return;
    }
  }
}

void Runner::do_open(const Op& op) {
  const SlotKey key{op.src, op.dst, op.slot};
  SlotState& st = slots_[key];
  if (st.ch && !st.ch->usable()) {
    // The channel was closed underneath the slot — a drain cycle FIN'd it
    // or recovery gave up. Retire the flow (prefix delivery was enforced
    // on the way) and free the slot so this open dials a new generation:
    // the reconnect-after-restart path the resume handshake renegotiates.
    auto it = flows_.find(st.token);
    if (it != flows_.end()) it->second.closed_by_op = true;
    st.ch = nullptr;
    st.token = 0;
  }
  if (st.ch || st.connecting) return;
  st.connecting = true;
  const std::uint32_t gen = st.next_generation++;
  ctxs_[op.src]->connect(op.dst, kPort, [this, key, gen](
                                            Result<core::Channel*> r) {
    SlotState& st = slots_[key];
    st.connecting = false;
    if (!r.ok()) return;  // refused / timed out: slot stays closed
    st.ch = r.value();
    st.token = st.ch->conn_token();
    Flow& fl = flows_[st.token];
    fl.key = key;
    fl.generation = gen;
    fl.connector_ch = st.ch;
    if (st.close_on_connect) {
      st.close_on_connect = false;
      close_slot(st);
    }
  });
}

void Runner::close_slot(SlotState& st) {
  auto it = flows_.find(st.token);
  if (it != flows_.end()) it->second.closed_by_op = true;
  st.ch->close();
  st.ch = nullptr;
  st.token = 0;
}

void Runner::inject(const FaultOp& f) {
  if (f.node >= filters_.size()) return;
  analysis::Filter& flt = *filters_[f.node];
  if (f.kind == analysis::FaultKind::host_down ||
      f.kind == analysis::FaultKind::host_up) {
    // Host faults bypass the Filter: silence (or revive) the node's RDMA
    // and TCP stacks directly — the closest simulation of a crashed or
    // partitioned machine. Counted by hand since no Filter rule fires.
    cluster_->host(f.node).set_alive(f.kind == analysis::FaultKind::host_up);
    ++host_faults_;
    return;
  }
  if (f.kind == analysis::FaultKind::qp_kill) {
    SlotState& st = slots_[{f.src, f.dst, f.slot}];
    if (st.ch && st.ch->usable()) flt.kill_qp(*st.ch);
    return;
  }
  // Discrete one-shot fault: hits the next matching event on this node.
  analysis::FaultRule r;
  r.kind = f.kind;
  r.probability = 1.0;
  r.budget = 1;
  r.delay = f.delay;
  flt.add_rule(r);
}

void Runner::on_delivery(core::Channel& ch, core::Msg&& m) {
  ++rep_.msgs_delivered;
  auto it = flows_.find(ch.conn_token());
  if (it == flows_.end()) {
    // The connector's connect callback runs before it can send, so every
    // delivery must land on a registered flow.
    log_.add(now(), strfmt("delivery on unknown flow (token %llx, node %u)",
                           static_cast<unsigned long long>(ch.conn_token()),
                           ch.context().node()));
    return;
  }
  Flow& fl = it->second;
  // Oracle 1a: in-order, exactly-once. The acceptor-side data stream is
  // every windowed message the connector sent; seqs must be contiguous
  // from 0 regardless of drops, retransmits and QP replacement.
  if (m.seq != fl.next_seq && !tolerate_anomaly(ch)) {
    log_.add(now(), strfmt("delivery order: flow %u->%u slot %u gen %u "
                           "expected seq %llu, got %llu",
                           fl.key.src, fl.key.dst, fl.key.slot, fl.generation,
                           static_cast<unsigned long long>(fl.next_seq),
                           static_cast<unsigned long long>(m.seq)));
  }
  fl.next_seq = m.seq + 1;
  if (fl.delivered >= fl.sent.size()) {
    if (!tolerate_anomaly(ch)) {
      log_.add(now(),
               strfmt("delivered more than sent on flow %u->%u slot %u "
                      "gen %u (%llu sent)",
                      fl.key.src, fl.key.dst, fl.key.slot, fl.generation,
                      static_cast<unsigned long long>(fl.sent.size())));
    }
    ++fl.delivered;
    return;
  }
  // Oracle 1b: content. In-order exactly-once delivery means the k-th
  // delivery must be the k-th successful send, byte for byte.
  const SentItem& exp = fl.sent[fl.delivered];
  if (m.payload.size() != exp.size) {
    if (!tolerate_anomaly(ch)) {
      log_.add(now(), strfmt("payload size mismatch on flow %u->%u slot %u: "
                             "delivery %llu expected %u bytes, got %zu",
                             fl.key.src, fl.key.dst, fl.key.slot,
                             static_cast<unsigned long long>(fl.delivered),
                             exp.size, m.payload.size()));
    }
  } else if (!check_pattern(m.payload, exp.tag) && !tolerate_anomaly(ch)) {
    log_.add(now(), strfmt("payload content mismatch on flow %u->%u slot %u "
                           "delivery %llu (tag %llx, %u bytes)",
                           fl.key.src, fl.key.dst, fl.key.slot,
                           static_cast<unsigned long long>(fl.delivered),
                           static_cast<unsigned long long>(exp.tag),
                           exp.size));
  }
  if (exp.rpc != m.is_rpc_req && !tolerate_anomaly(ch)) {
    log_.add(now(), strfmt("message kind mismatch on flow %u->%u slot %u "
                           "delivery %llu: sent %s, delivered %s",
                           fl.key.src, fl.key.dst, fl.key.slot,
                           static_cast<unsigned long long>(fl.delivered),
                           exp.rpc ? "rpc" : "send",
                           m.is_rpc_req ? "rpc" : "send"));
  }
  // Oracle 10: a message the bounded queue rejected must never surface at
  // the receiver — would_block is a promise that nothing was enqueued.
  // Tags are unique random patterns, so a content match identifies the
  // message (empty payloads carry no pattern and are skipped).
  if (m.payload.size() > 0) {
    for (const auto& [rtag, rsize] : fl.rejected) {
      if (rsize == m.payload.size() && check_pattern(m.payload, rtag)) {
        log_.add(now(), strfmt("message both rejected and delivered on flow "
                               "%u->%u slot %u: tag %llx (%u bytes)",
                               fl.key.src, fl.key.dst, fl.key.slot,
                               static_cast<unsigned long long>(rtag), rsize));
      }
    }
  }
  fold64(fl.delivery_digest, exp.tag);
  fold64(fl.delivery_digest, m.payload.size());
  ++fl.delivered;
  if (m.is_rpc_req) {
    // Echo service: reply with the request payload, stitched into the
    // request's trace chain so sampled RPC spans complete.
    ch.reply(m.rpc_id, std::move(m.payload), m.trace_id);
  }
}

void Runner::quiesce() {
  sim::Engine& eng = cluster_->engine();
  // 1. Stop injecting; let in-flight chaos settle. Any host still silenced
  // by an unpaired host_down comes back first — quiesce judges a live
  // cluster (generation always pairs down with up, but shrinking may not).
  for (std::uint32_t n = 0; n < s_.params.num_hosts; ++n) {
    cluster_->host(n).set_alive(true);
  }
  // Any drain still in flight is cancelled too — quiesce judges a cluster
  // of active nodes (shrinking can delete the restart half of a cycle).
  for (auto& c : ctxs_) c->set_flag("lifecycle_drain", 0);
  for (auto& f : filters_) f->clear();
  eng.run_for(millis(2));
  // 2. Flush: any channel with unacked or queued traffic gets its QP
  // killed, forcing recovery's retransmit-from-window to push everything
  // through (dropped messages have no other path to delivery).
  for (int round = 0; round < 4; ++round) {
    bool dirty = false;
    for (std::size_t n = 0; n < ctxs_.size(); ++n) {
      for (core::Channel* ch : ctxs_[n]->channels()) {
        if (ch->usable() &&
            (ch->inflight_msgs() > 0 || ch->queued_msgs() > 0)) {
          // The flush kill is itself a silencing fault: from here on the
          // victim's peer may legitimately probe into a void long enough
          // to declare it dead, so oracle 11 stands down.
          live_.set_silence_faults_injected(true);
          filters_[n]->kill_qp(*ch);
          dirty = true;
        }
      }
    }
    eng.run_for(millis(8));
    if (!dirty) break;
  }
  // 3. Drain RPCs: every outstanding call resolves within its 30 ms
  // timeout, by response or by expiry.
  eng.run_for(millis(35));
  // 4. Completeness is judged now, while surviving channels are still
  // open: closing would discard queued traffic and excuse losses.
  check_completeness();
  // 5. Graceful close from the connector side; the FIN closes the
  // acceptor end. Loop because recovering channels may re-establish late.
  for (int pass = 0; pass < 6; ++pass) {
    for (auto& [key, st] : slots_) {
      if (st.ch && st.ch->state() != core::Channel::State::closed &&
          st.ch->state() != core::Channel::State::error) {
        st.ch->close();
      }
    }
    if (pass >= 2) {
      // Orphaned acceptor-side channels (their connector closed but the
      // FIN was lost) sit in passive recovery until the resume deadline —
      // bounded, but up to ~90 ms out. Rather than wait it out, close them
      // directly: close() on a recovering channel fails it locally.
      for (auto& c : ctxs_) {
        for (core::Channel* ch : c->channels()) {
          if (ch->state() != core::Channel::State::closed &&
              ch->state() != core::Channel::State::error) {
            ch->close();
          }
        }
      }
    }
    eng.run_for(millis(8));
    bool all_terminal = true;
    for (auto& c : ctxs_) {
      for (core::Channel* ch : c->channels()) {
        if (ch->state() != core::Channel::State::closed &&
            ch->state() != core::Channel::State::error) {
          all_terminal = false;
        }
      }
    }
    if (all_terminal) break;
  }
  for (auto& c : ctxs_) {
    for (core::Channel* ch : c->channels()) {
      if (ch->state() != core::Channel::State::closed &&
          ch->state() != core::Channel::State::error) {
        log_.add(now(), strfmt("quiesce did not converge: node %u channel "
                               "%llu still in state %d",
                               c->node(),
                               static_cast<unsigned long long>(ch->id()),
                               static_cast<int>(ch->state())));
      }
    }
  }
  for (auto& c : ctxs_) c->stop_polling_loop();
}

void Runner::check_completeness() {
  // Oracle 1c: a flow whose channel is still established (after the fault
  // schedule ended and the flush pass ran) must have delivered *everything*
  // it accepted. Flows closed by the workload or dead channels only owe the
  // prefix rule, which on_delivery enforced incrementally.
  for (auto& [token, fl] : flows_) {
    core::Channel* ch = fl.connector_ch;
    if (!ch || !ch->usable() || fl.closed_by_op) continue;
    if (fl.delivered != fl.sent.size() || ch->inflight_msgs() != 0 ||
        ch->queued_msgs() != 0) {
      // An unprotected flow can lose a message for good when a corrupted
      // seq lands on the expected window slot and steals its ack — the
      // legacy carve-out covers completeness too.
      if (tolerate_anomaly(*ch)) continue;
      log_.add(now(), strfmt("incomplete delivery on live flow %u->%u slot "
                             "%u gen %u: sent %llu delivered %llu "
                             "(inflight %llu queued %llu)",
                             fl.key.src, fl.key.dst, fl.key.slot,
                             fl.generation,
                             static_cast<unsigned long long>(fl.sent.size()),
                             static_cast<unsigned long long>(fl.delivered),
                             static_cast<unsigned long long>(
                                 ch->inflight_msgs()),
                             static_cast<unsigned long long>(
                                 ch->queued_msgs())));
    }
  }
  if (rep_.rpcs_completed + rep_.rpcs_failed != rep_.rpcs_issued) {
    log_.add(now(), strfmt("rpc accounting: issued %llu != completed %llu + "
                           "failed %llu (lost callback)",
                           static_cast<unsigned long long>(rep_.rpcs_issued),
                           static_cast<unsigned long long>(
                               rep_.rpcs_completed),
                           static_cast<unsigned long long>(
                               rep_.rpcs_failed)));
  }
}

void Runner::check_balance() {
  // Oracle 3: with every channel terminal, both memcaches must be back at
  // their pre-workload allocation (no leaked bounce buffers, wire blocks
  // or rendezvous payloads), the canaries intact, no block freed twice,
  // flow control drained, and every QP either destroyed or parked in the
  // QP cache.
  for (std::size_t i = 0; i < ctxs_.size(); ++i) {
    core::Context& ctx = *ctxs_[i];
    const auto& cs = ctx.ctrl_cache().stats();
    const auto& ds = ctx.data_cache().stats();
    if (cs.in_use_bytes != baseline_[i].ctrl) {
      log_.add(now(), strfmt("ctrl memcache imbalance on node %u: %llu in "
                             "use, baseline %llu",
                             ctx.node(),
                             static_cast<unsigned long long>(cs.in_use_bytes),
                             static_cast<unsigned long long>(
                                 baseline_[i].ctrl)));
    }
    if (ds.in_use_bytes != baseline_[i].data) {
      log_.add(now(), strfmt("data memcache imbalance on node %u: %llu in "
                             "use, baseline %llu",
                             ctx.node(),
                             static_cast<unsigned long long>(ds.in_use_bytes),
                             static_cast<unsigned long long>(
                                 baseline_[i].data)));
    }
    if (cs.guard_violations != 0 || ds.guard_violations != 0) {
      log_.add(now(), strfmt("memcache guard canary violated on node %u "
                             "(ctrl %llu, data %llu)",
                             ctx.node(),
                             static_cast<unsigned long long>(
                                 cs.guard_violations),
                             static_cast<unsigned long long>(
                                 ds.guard_violations)));
    }
    if (cs.bad_frees != 0 || ds.bad_frees != 0) {
      log_.add(now(), strfmt("memcache freed a block that was not allocated "
                             "on node %u (ctrl %llu, data %llu)",
                             ctx.node(),
                             static_cast<unsigned long long>(cs.bad_frees),
                             static_cast<unsigned long long>(ds.bad_frees)));
    }
    if (ctx.outstanding_wrs() != 0 || ctx.deferred_wr_count() != 0) {
      log_.add(now(), strfmt("flow control not drained on node %u: "
                             "outstanding %u, deferred %zu",
                             ctx.node(), ctx.outstanding_wrs(),
                             ctx.deferred_wr_count()));
    }
    // Oracle 14 terminal form: with every channel closed, no WR may still
    // be parked in a batch accumulator — an unflushed chain is a lost
    // doorbell and, one hop later, lost messages.
    if (ctx.stats().batch_pending != 0) {
      log_.add(now(), strfmt("doorbell batch not flushed on node %u: %llu "
                             "WRs still parked in accumulators",
                             ctx.node(),
                             static_cast<unsigned long long>(
                                 ctx.stats().batch_pending)));
    }
    const rnic::Rnic& nic = cluster_->rnic(static_cast<net::NodeId>(i));
    if (nic.num_qps() != ctx.qp_cache().size()) {
      log_.add(now(), strfmt("QP balance on node %u: %zu live QPs vs %zu "
                             "cached (leak or stale cache entry)",
                             ctx.node(), nic.num_qps(),
                             ctx.qp_cache().size()));
    }
  }
}

void Runner::finish_report() {
  rep_.violations = log_.total();
  rep_.violation_samples = log_.entries();
  rep_.span_posts = spans_.posts();
  rep_.span_delivers = spans_.delivers();
  rep_.unprotected_anomalies += spans_.tolerated_delivers();
  rep_.oracle_observations = live_.observations();
  rep_.events = cluster_->engine().events_processed();
  rep_.end_time = now();
  for (auto& f : filters_) {
    for (std::size_t k = 0; k < analysis::kNumFaultKinds; ++k) {
      rep_.faults_injected += f->injected(static_cast<analysis::FaultKind>(k));
    }
  }
  rep_.faults_injected += host_faults_;
  for (auto& c : ctxs_) {
    rep_.chan += c->channel_stats();
    rep_.ctx += c->stats();
    rep_.health += c->health().stats();
  }

  std::uint64_t d = 0xcbf29ce484222325ULL;
  fold64(d, s_.seed);
  fold64(d, flows_.size());
  for (const auto& [token, fl] : flows_) {
    fold64(d, fl.key.src);
    fold64(d, fl.key.dst);
    fold64(d, fl.key.slot);
    fold64(d, fl.generation);
    fold64(d, fl.sent.size());
    fold64(d, fl.rejected.size());
    fold64(d, fl.delivered);
    fold64(d, fl.delivery_digest);
    fold64(d, fl.closed_by_op ? 1 : 0);
  }
  fold64(d, rep_.msgs_sent);
  fold64(d, rep_.msgs_rejected);
  fold64(d, rep_.msgs_delivered);
  fold64(d, rep_.rpcs_issued);
  fold64(d, rep_.rpcs_completed);
  fold64(d, rep_.rpcs_failed);
  fold64(d, rep_.faults_injected);
  fold64(d, rep_.chan.crc_failures_rx);
  fold64(d, rep_.chan.integrity_naks_tx);
  fold64(d, rep_.chan.integrity_retransmits);
  fold64(d, rep_.unprotected_anomalies);
  fold64(d, static_cast<std::uint64_t>(rep_.end_time));
  spans_.fold(d);
  rep_.digest = d;

  if (!rep_.passed()) {
    if (opt_.verbose) {
      std::fprintf(stderr,
                   "[xcheck] FAIL seed=%llu violations=%llu digest=%016llx\n",
                   static_cast<unsigned long long>(rep_.seed),
                   static_cast<unsigned long long>(rep_.violations),
                   static_cast<unsigned long long>(rep_.digest));
      for (const std::string& v : rep_.violation_samples) {
        std::fprintf(stderr, "[xcheck]   %s\n", v.c_str());
      }
    }
    if (!opt_.replay_path.empty()) {
      if (save_schedule(s_, opt_.replay_path)) {
        if (opt_.verbose) {
          std::fprintf(stderr, "[xcheck]   replay file: %s\n",
                       opt_.replay_path.c_str());
        }
      } else if (opt_.verbose) {
        std::fprintf(stderr, "[xcheck]   could not write replay file %s\n",
                     opt_.replay_path.c_str());
      }
    }
  }

  // Flight-recorder post-mortem: on an oracle failure the rings hold the
  // decisions that led there — mark the trigger and flush them. The cut is
  // deterministic (sim-time payloads only), so capture_dumps also feeds
  // the bit-identical-replay test on passing runs.
  if (opt_.capture_dumps || (!rep_.passed() && !opt_.dump_dir.empty())) {
    for (auto& c : ctxs_) {
      if (!rep_.passed()) {
        c->trigger_dump(analysis::TrigReason::oracle_failure);
      }
      const analysis::Dump dump = analysis::snapshot_dump(
          *c, rep_.passed() ? "capture" : "oracle_failure");
      if (opt_.capture_dumps) {
        rep_.dumps.push_back(analysis::encode_xrd(dump));
      }
      if (!rep_.passed() && !opt_.dump_dir.empty()) {
        const std::string path =
            strfmt("%s/xcheck-seed%llu.node%u.xrd", opt_.dump_dir.c_str(),
                   static_cast<unsigned long long>(rep_.seed), c->node());
        if (analysis::write_xrd_file(path, dump)) {
          if (opt_.verbose) {
            std::fprintf(stderr, "[xcheck]   flight dump: %s\n",
                         path.c_str());
          }
        } else if (opt_.verbose) {
          std::fprintf(stderr, "[xcheck]   could not write flight dump %s\n",
                       path.c_str());
        }
      }
    }
  }
}

}  // namespace

RunReport run_schedule(const Schedule& s, const RunOptions& opt) {
  Runner runner(s, opt);
  return runner.run();
}

RunReport check_seed(std::uint64_t seed, ScheduleParams params,
                     const RunOptions& opt) {
  return run_schedule(generate_schedule(seed, params), opt);
}

ShrinkResult shrink_schedule(const Schedule& s, const RunOptions& opt,
                             std::size_t max_runs) {
  ShrinkResult res;
  res.minimized = s;
  RunOptions quiet = opt;
  quiet.verbose = false;
  quiet.replay_path.clear();
  quiet.dump_dir.clear();
  quiet.capture_dumps = false;

  res.still_fails = !run_schedule(res.minimized, quiet).passed();
  ++res.runs;
  if (!res.still_fails) return res;  // nothing to shrink

  std::size_t chunk = std::max<std::size_t>(1, res.minimized.items() / 2);
  while (chunk >= 1 && res.runs < max_runs) {
    bool progressed = false;
    for (std::size_t start = 0;
         start < res.minimized.items() && res.runs < max_runs;
         start += chunk) {
      std::vector<std::size_t> drop;
      for (std::size_t i = start;
           i < std::min(start + chunk, res.minimized.items()); ++i) {
        drop.push_back(i);
      }
      Schedule candidate = without_items(res.minimized, drop);
      if (candidate.items() == res.minimized.items()) continue;
      ++res.runs;
      if (!run_schedule(candidate, quiet).passed()) {
        res.removed += res.minimized.items() - candidate.items();
        res.minimized = std::move(candidate);
        progressed = true;
        break;  // restart the sweep over the smaller schedule
      }
    }
    if (!progressed) {
      if (chunk == 1) break;
      chunk /= 2;
    }
  }
  return res;
}

std::vector<std::uint64_t> smoke_seeds(std::uint32_t default_count) {
  std::uint32_t count = default_count;
  if (const char* env = std::getenv("XCHECK_SMOKE_COUNT")) {
    const unsigned long v = std::strtoul(env, nullptr, 10);
    if (v > 0) count = static_cast<std::uint32_t>(v);
  }
  std::vector<std::uint64_t> seeds;
  if (const char* env = std::getenv("XCHECK_SEED")) {
    if (std::string(env) == "random") {
      std::random_device rd;
      const std::uint64_t base =
          (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
      std::fprintf(stderr,
                   "[xcheck] XCHECK_SEED=random -> base seed %llu "
                   "(re-run with XCHECK_SEED=<seed>)\n",
                   static_cast<unsigned long long>(base));
      for (std::uint32_t i = 0; i < count; ++i) seeds.push_back(base + i);
      return seeds;
    }
    seeds.push_back(std::strtoull(env, nullptr, 0));
    return seeds;
  }
  for (std::uint32_t i = 0; i < count; ++i) seeds.push_back(smoke_seed(i));
  return seeds;
}

std::uint64_t smoke_seed(std::size_t i) {
  return 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(i) + 1);
}

std::string describe(const RunReport& r) {
  return strfmt("seed %llu: %s, %llu/%llu msgs, %llu/%llu rpcs, %llu faults, "
                "%llu events, %llu obs, digest %016llx",
                static_cast<unsigned long long>(r.seed),
                r.passed() ? "PASS" : "FAIL",
                static_cast<unsigned long long>(r.msgs_delivered),
                static_cast<unsigned long long>(r.msgs_sent),
                static_cast<unsigned long long>(r.rpcs_completed),
                static_cast<unsigned long long>(r.rpcs_issued),
                static_cast<unsigned long long>(r.faults_injected),
                static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.oracle_observations),
                static_cast<unsigned long long>(r.digest));
}

}  // namespace xrdma::check

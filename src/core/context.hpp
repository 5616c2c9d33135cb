// Context: the per-thread X-RDMA instance (§IV).
//
// Owns the thread's CQs, the memory cache, the QP cache, the timers, and
// every channel the thread opened or accepted — the run-to-complete thread
// model: no resource here is ever touched by another thread, so the data
// plane is lock-free, atomic-free, and syscall-free by construction (in
// the simulation, "thread" = the simulation actor driving polling()).
//
// Public surface follows Table I:
//   send_msg    -> Channel::send_msg / call / reply
//   polling     -> Context::polling
//   get_event_fd / process_event -> Context::event_fd / process_event
//   (de)reg_mem -> Context::reg_mem / dereg_mem
//   set_flag    -> Context::set_flag
//   trace_request -> Context::trace_request
// plus connect/listen from the Fig. 5 workflow.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

#include "analysis/recorder.hpp"
#include "core/channel.hpp"
#include "core/config.hpp"
#include "core/fd.hpp"
#include "core/health.hpp"
#include "core/memcache.hpp"
#include "core/qp_cache.hpp"
#include "core/span.hpp"
#include "core/stats.hpp"
#include "sim/timer.hpp"
#include "verbs/cm.hpp"
#include "verbs/verbs.hpp"

namespace xrdma::core {

/// Node lifecycle (graceful drain, `xr_adm drain`): `active` serves
/// traffic; `draining` refuses new channels/sends and flushes in-flight
/// windows; `drained` has every channel closed cleanly and is safe to
/// restart. Clearing the lifecycle_drain flag models the restart
/// (drained -> active; peers reconnect through CM with renegotiated
/// protocol versions).
enum class Lifecycle : std::uint8_t { active, draining, drained };

const char* to_string(Lifecycle s);

/// What xrdma_trace_req returns for a traced message (§VI-A method I).
struct TraceReport {
  bool traced = false;
  Nanos t_send = 0;         // sender clock
  Nanos t_deliver = 0;      // local clock
  Nanos clock_offset = 0;   // Toff estimate in use
  Nanos network_latency = 0;  // t_deliver - t_send - Toff
  std::uint64_t trace_id = 0;
};

class Context {
 public:
  using ChannelHandler = std::function<void(Channel&)>;
  using ConnectCallback = std::function<void(Result<Channel*>)>;

  Context(rnic::Rnic& nic, verbs::cm::CmService& cm, Config config = {});
  ~Context();
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // --- Connection management (Fig. 5 workflow) -----------------------------
  Errc listen(std::uint16_t port, ChannelHandler on_channel);
  void connect(net::NodeId node, std::uint16_t port, ConnectCallback cb);

  // --- Table I ---------------------------------------------------------------
  /// Drains both CQs, dispatching completions to channels; returns the
  /// number of completions processed. The application's poll loop calls
  /// this (or start_polling_loop drives it).
  int polling(int budget = 64);

  EventFd& event_fd() { return event_fd_; }
  int get_event_fd() const { return event_fd_id_; }
  /// Handle an event-fd notification: clear it, poll, re-arm.
  int process_event();

  /// RDMA-enabled memory for zero-copy sends (xrdma_reg_mem).
  MemBlock reg_mem(std::uint32_t len) { return data_cache_.alloc(len); }
  void dereg_mem(const MemBlock& block) { data_cache_.free(block); }
  std::uint8_t* mem_ptr(const MemBlock& block) { return data_cache_.data(block); }

  /// Online knob change (xr_adm). The recorder knobs take effect at once,
  /// so an operator can quiet or zoom a hot node's ring without restart.
  Errc set_flag(const std::string& name, std::int64_t value);
  Result<std::int64_t> get_flag(const std::string& name) const {
    return core::get_flag(cfg_, name);
  }

  TraceReport trace_request(const Msg& msg) const;

  /// Latency-decomposition tracing (§VI-A): when a sink is installed,
  /// channels publish per-message span events for every traced message.
  void set_span_sink(SpanSink* sink) { span_sink_ = sink; }
  SpanSink* span_sink() const { return span_sink_; }

  /// Per-context salt folded into generated trace ids so ids never collide
  /// across contexts (channel ids and seqs both restart at 1 per context).
  std::uint64_t trace_epoch() const { return trace_epoch_; }
  /// The default epoch mixes in a process-global instance counter, which is
  /// right for production uniqueness but makes two same-seed simulation runs
  /// in one process diverge (the epoch seeds per-channel backoff jitter and
  /// conn tokens). Deterministic harnesses (X-Check) pin it per node before
  /// any channel exists.
  void set_trace_epoch(std::uint64_t epoch) { trace_epoch_ = epoch; }

  // --- Thread model ----------------------------------------------------------
  /// Drives polling() according to Config::poll_mode (busy / hybrid /
  /// event) until stop_polling_loop().
  void start_polling_loop();
  void stop_polling_loop();
  bool polling_loop_running() const { return loop_running_; }

  // --- Introspection ---------------------------------------------------------
  Config& config() { return cfg_; }
  const Config& config() const { return cfg_; }
  rnic::Rnic& nic() { return nic_; }
  sim::Engine& engine() const { return nic_.engine(); }
  net::NodeId node() const { return nic_.node(); }
  ContextStats& stats() { return stats_; }
  /// Every channel's ChannelStats summed: the aggregate the metrics
  /// registry, xr_stat and the reporters read.
  ChannelStats channel_stats() const;
  /// Peer health plane (φ-accrual suspicion, circuit breaker, flap
  /// hold-down) fed by every channel to the same remote node.
  HealthMonitor& health() { return health_; }
  const HealthMonitor& health() const { return health_; }
  /// X-Ray flight recorder: the always-on control-plane event ring every
  /// plane appends to (see analysis/recorder.hpp).
  analysis::FlightRecorder& recorder() { return recorder_; }
  const analysis::FlightRecorder& recorder() const { return recorder_; }
  /// Installed by harnesses/tools that want a `.xrd` dump cut when a
  /// trigger fires (channel death, peer dead, watchdog trip). Null by
  /// default: triggers then only mark the ring.
  using DumpHook = std::function<void(Context&, const std::string& reason)>;
  void set_dump_hook(DumpHook hook) { dump_hook_ = std::move(hook); }
  /// Record a `trigger` event and invoke the dump hook (if any). Reentrant
  /// with respect to the recorder: hooks may append while dumping.
  void trigger_dump(analysis::TrigReason reason);
  // --- Lifecycle plane -------------------------------------------------------
  /// Drain state machine: `xr_adm drain` sets the online lifecycle_drain
  /// flag and scan_tick runs the machine (announce -> flush -> close).
  Lifecycle lifecycle() const { return lifecycle_; }
  /// In (or past) a drain: new channels and new sends are refused with
  /// Errc::would_block (PR 4's backpressure surface).
  bool draining() const { return lifecycle_ != Lifecycle::active; }
  /// Enter the drain now (the flag route arrives here too): announce DRAIN
  /// on every feature-capable channel, stop admission, then scan_tick
  /// flushes in-flight windows and closes channels until `drained`.
  void begin_drain();
  MemCache& ctrl_cache() { return ctrl_cache_; }
  MemCache& data_cache() { return data_cache_; }
  QpCache& qp_cache() { return qp_cache_; }
  /// The shared receive queue in SRQ mode (kInvalidId otherwise).
  rnic::SrqId srq() const { return srq_; }
  /// Flow-control state (§V-C), exposed for the X-Check cap oracle: posted
  /// WRs counted against max_outstanding_wrs, and the deferred queue depth.
  std::uint32_t outstanding_wrs() const { return outstanding_wrs_; }
  std::size_t deferred_wr_count() const { return deferred_wrs_.size(); }

  // --- Overload control ------------------------------------------------------
  /// Aggregate bytes parked in every channel's bounded tx queue — the value
  /// Config::ctx_tx_max_bytes caps and the xr_stat gauge reports.
  std::uint64_t queued_tx_bytes() const { return queued_tx_bytes_; }
  /// Where the data cache sits on the pressure ladder (normal → soft →
  /// hard), per Config::mem_soft_pct / mem_hard_pct. Channels consult this
  /// before admitting new work or issuing rendezvous pulls.
  MemPressure mem_pressure() const;
  std::vector<Channel*> channels();
  std::size_t num_channels() const { return by_qp_.size(); }

  /// Host clock model: local_time() = sim time + this host's clock skew.
  /// The clock-sync service estimates the peer offset used by tracing.
  void set_clock_skew(Nanos skew) { clock_skew_ = skew; }
  Nanos local_time() const { return engine().now() + clock_skew_; }
  /// Toff estimate: how far the *peer's* clock runs ahead of ours
  /// (peer_clock - local_clock). trace_request adds it to correct one-way
  /// latencies; the clock-sync service measures it.
  void set_peer_clock_offset(Nanos toff) { clock_offset_estimate_ = toff; }
  Nanos peer_clock_offset() const { return clock_offset_estimate_; }

  /// Fault injection hooks (Filter, §VI-C): consulted on message ingress
  /// (set_filter) and egress (set_egress_filter). `corrupt` flips one
  /// pseudorandom byte (chosen by corrupt_seed) in the wire bytes.
  enum class FilterAction { pass, drop, delay, corrupt };
  struct FilterDecision {
    FilterAction action = FilterAction::pass;
    Nanos delay = 0;
    std::uint64_t corrupt_seed = 0;
  };
  using FilterHook = std::function<FilterDecision(Channel&, const WireHeader&)>;
  void set_filter(FilterHook hook) { filter_ = std::move(hook); }
  void set_egress_filter(FilterHook hook) { egress_filter_ = std::move(hook); }

  // --- Channel recovery / automatic fallback (§VI-C) ------------------------
  /// Escalation target once recovery_max_attempts reconnects fail: switch
  /// `ch` onto an alternate transport (the Mock TCP fallback installs
  /// itself here via MockFallback::enable_auto).
  using FallbackProvider = std::function<void(Channel&, std::function<void(Errc)>)>;
  void set_fallback_provider(FallbackProvider f) {
    fallback_provider_ = std::move(f);
  }

  verbs::cm::CmService& cm() { return cm_; }
  Channel* channel_by_id(std::uint64_t id);
  /// Lookup by the connection token minted at connect time — the stable
  /// identity that survives QP replacement (resume handshake, Mock hello).
  Channel* channel_by_token(std::uint64_t token);

 private:
  friend class Channel;

  // Work-request registry: send-CQ completions carry a wr_id minted here.
  struct WrInfo {
    enum class Kind : std::uint8_t {
      data_send,   // windowed message SEND
      ctrl_send,   // ack / nop / fin
      read_frag,   // rendezvous pull fragment
      keepalive,   // zero-byte write probe
    };
    Kind kind = Kind::data_send;
    std::uint64_t channel_id = 0;
    Seq seq = 0;               // read_frag: message being pulled
    std::uint16_t flags = 0;   // ctrl_send
    MemBlock block;            // ctrl_send: freed when the WC arrives
    bool counted = false;      // holds a flow-control credit
  };

  std::uint64_t register_wr(WrInfo info);
  /// The one way out of the registry: erases the entry, frees its block
  /// and hands back its flow-control credit. Returns the entry, or nothing
  /// if it was already gone.
  std::optional<WrInfo> retire(std::uint64_t wr_id);
  void dispatch_send_wc(const verbs::Wc& wc);
  void dispatch_recv_wc(const verbs::Wc& wc);
  rnic::QpCaps qp_caps() const;

  /// The one doorbell: posts `n` WRs on the channel's QP as one chain and
  /// counts it in chan.doorbells / doorbell_wrs. Control messages and
  /// keepalives ring it directly, outside the credits: they are rare and
  /// carry the acks that unblock everything else.
  Errc ring_doorbell(Channel& ch, const verbs::SendWr* wrs, std::size_t n);

  // Flow control (§V-C queuing): bounded outstanding WRs, excess queued.
  struct DeferredWr {
    std::uint64_t channel_id = 0;
    verbs::SendWr wr;
  };
  /// Where submit() sent its WRs; flush_tx_batch feeds them to the ledger.
  struct Submitted {
    std::size_t posted = 0, deferred = 0, dropped = 0;
  };
  /// The one credited post path. Posts as many of `wrs` as the credits
  /// cover as one chain and queues the rest, in order, behind any WR
  /// already waiting. A full NIC send queue defers the whole submission;
  /// `head` marks the repost of the oldest waiting WR, which goes back to
  /// the front and is not counted as queued twice. Any other post error
  /// retires every WR and fails the channel. WRs purged since they were
  /// built are dropped.
  Submitted submit(Channel& ch, verbs::SendWr* wrs, std::size_t n,
                   bool head = false);
  /// A credit came back: repost waiting WRs, oldest first.
  void wr_completed();

  // Doorbell batching (hot-path coalescing): data-plane WRs accumulate in
  // their channel's tx_batch_ across a poll iteration and go to submit()
  // as one chain.
  void accumulate_wr(Channel& ch, verbs::SendWr wr);
  void flush_tx_batch(Channel& ch);
  void drop_tx_batch(Channel& ch);

  /// One bounce buffer: a receive slot for a full eager message with its
  /// trace TLV. Privileged, since bounce buffers keep the control plane
  /// (and everything else) receivable, and RNIC-only: nothing on the host
  /// writes it. Post it with its own `len` as the SGE length.
  MemBlock alloc_bounce();

  // Channel lifecycle.
  /// The one CM dial, for new channels and resume handshakes alike: draws
  /// a QP from the cache and returns it there if the connect fails.
  void dial(net::NodeId node, std::uint16_t port, Buffer private_data,
            verbs::cm::ConnectCallback done);
  Channel* adopt_established(verbs::cm::Established est, bool connector,
                             std::uint16_t port, std::uint64_t token);
  void channel_closed(Channel& ch);

  // Channel recovery (driven by Channel).
  /// QP resume handshake toward the channel's peer: a CM connect carrying
  /// the connection token and our rwin RTA in the private data. Lands in
  /// Channel::resume_adopt on success, resume_attempt_failed otherwise.
  void initiate_resume(Channel& ch);
  /// Drop every registered WR of a channel whose QP is being abandoned,
  /// returning the flow-control credits they held (their WCs either sit in
  /// the CQ already — ignored once unregistered — or will never arrive).
  void purge_channel_wrs(std::uint64_t channel_id);
  /// A half-open probe just re-admitted `peer` (breaker closed): wake the
  /// sibling channels parked on the fallback so they re-probe promptly
  /// instead of waiting out their long RDMA probe timers.
  void nudge_peer_probes(net::NodeId peer, std::uint64_t except_id);

  void scan_tick();  // deadlock NOPs, RPC timeouts
  /// One drain step: close channels whose windows flushed (or everything
  /// once lifecycle_drain_timeout expires), declare `drained` when every
  /// channel is terminal.
  void drain_progress();
  void poll_loop_step();
  void park();

  /// Channel tx-queue accounting (signed so dequeue/reset can subtract).
  void note_queued_tx(std::int64_t delta) {
    queued_tx_bytes_ =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(queued_tx_bytes_) +
                                   delta);
  }

  rnic::Rnic& nic_;
  verbs::cm::CmService& cm_;
  Config cfg_;
  analysis::FlightRecorder recorder_;
  HealthMonitor health_;

  verbs::Pd pd_;
  verbs::Cq send_cq_;
  verbs::Cq recv_cq_;
  rnic::SrqId srq_ = rnic::kInvalidId;

  MemCache ctrl_cache_;  // headers + bounce buffers (always real memory)
  MemCache data_cache_;  // large payloads (may be synthetic in benches)
  QpCache qp_cache_;
  std::vector<MemBlock> srq_bounce_;  // SRQ mode: shared bounce buffers

  // Every channel ever opened, by id - 1 (channel_by_id); closed ones stay.
  std::vector<std::unique_ptr<Channel>> channels_;
  std::unordered_map<rnic::QpNum, Channel*> by_qp_;
  std::unordered_map<std::uint64_t, Channel*> by_token_;
  std::uint64_t next_conn_token_ = 0;

  struct PortListener {
    std::unique_ptr<verbs::cm::Listener> listener;
    ChannelHandler on_channel;
  };
  std::map<std::uint16_t, PortListener> listeners_;

  std::unordered_map<std::uint64_t, WrInfo> wrs_;
  std::uint64_t next_wr_ = 1;

  std::uint32_t outstanding_wrs_ = 0;
  std::deque<DeferredWr> deferred_wrs_;

  sim::PeriodicTimer scan_timer_;
  EventFd event_fd_;
  int event_fd_id_;

  Nanos last_poll_ = -1;
  bool loop_running_ = false;
  bool parked_ = false;
  std::uint32_t idle_spins_ = 0;

  Nanos clock_skew_ = 0;
  Nanos clock_offset_estimate_ = 0;
  Nanos last_shrink_ = 0;

  std::uint64_t queued_tx_bytes_ = 0;
  MemPressure last_pressure_ = MemPressure::normal;

  Lifecycle lifecycle_ = Lifecycle::active;
  Nanos drain_started_ = 0;

  FilterHook filter_;
  FilterHook egress_filter_;
  FallbackProvider fallback_provider_;
  DumpHook dump_hook_;
  ContextStats stats_;
  SpanSink* span_sink_ = nullptr;
  std::uint64_t trace_epoch_ = 0;
};

}  // namespace xrdma::core

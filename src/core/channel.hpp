// Channel: one X-RDMA connection (§IV).
//
// A channel owns an RC queue pair and layers the paper's protocol
// extensions over it:
//   - seq-ack window (Algorithm 1) for application-level delivery
//     acknowledgement and RNR-freedom: the sender never has more data
//     messages outstanding than the window depth, and the receiver
//     pre-posts bounce buffers for the whole window plus control slack;
//   - mixed message model: eager SEND below small_msg_size, rendezvous
//     descriptor + receiver-driven fragmented RDMA Read above it (the same
//     pull path implements Read-replace-Write for RPC responses);
//   - keepAlive: zero-byte RDMA Write probes after idle, answered by the
//     peer RNIC in hardware; a dead peer surfaces as a QP error and the
//     channel releases its resources instead of leaking them;
//   - NOP deadlock-break and standalone ACKs (windowless control messages);
//   - built-in RPC (request/response with id matching and timeouts);
//   - self-healing (§VI-C): a transport fault parks the channel in
//     `recovering`, re-establishes the QP through CM (drawing on the QP
//     cache) with capped exponential backoff, replays the unacked send
//     window (the receiver window dedups, so delivery stays exactly-once
//     in-order), and — once the reconnect budget is exhausted — escalates
//     to the Mock TCP fallback while probing RDMA in the background.
//
// Everything runs run-to-complete inside Context::polling(); a channel is
// owned by exactly one context/thread and takes no locks.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "analysis/recorder.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "core/memcache.hpp"
#include "core/msg.hpp"
#include "core/stats.hpp"
#include "core/window.hpp"
#include "sim/timer.hpp"
#include "verbs/verbs.hpp"

namespace xrdma::core {

class Context;

/// An alternate transport a channel can ride instead of its QP: the Mock
/// TCP fallback (§VI-C), implemented on the analysis side. The channel
/// holds the one attached stream and is the only one that ends it: it
/// calls close() when it leaves the fallback, fails, or is destroyed. A
/// stream that dies on its own reports through Channel::on_stream_lost.
struct AltStream {
  virtual ~AltStream() = default;
  /// Carry one whole encoded wire message to the peer.
  virtual void send(Buffer wire) = 0;
  /// End the stream; the peer's end sees it lost. After this the stream
  /// never calls into the channel again.
  virtual void close() = 0;
};

class Channel {
 public:
  enum class State : std::uint8_t {
    established,
    recovering,  // transport fault: QP resume / fallback escalation running
    closing,
    closed,
    error,
  };

  using MsgHandler = std::function<void(Channel&, Msg&&)>;
  using ErrorHandler = std::function<void(Channel&, Errc)>;
  using RpcCallback = std::function<void(Result<Msg>)>;
  using WritableHandler = std::function<void(Channel&)>;

  ~Channel();
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  // --- Table I surface ----------------------------------------------------
  /// One-way message. Queues when the window is full; fails when closed.
  Errc send_msg(Buffer payload);
  /// Zero-copy variant: `block` must come from this context's reg_mem();
  /// ownership passes to the channel and it is freed once the peer acks.
  Errc send_msg(const MemBlock& block, std::uint32_t len);

  /// RPC: send a request, invoke `cb` with the response or an error.
  Errc call(Buffer request, RpcCallback cb, Nanos timeout = millis(100));
  /// Respond to a received request (Msg::rpc_id). Large responses go down
  /// the rendezvous path, i.e. the requester RDMA-Reads them (§IV-C).
  /// Passing the request's Msg::trace_id as `parent_trace_id` stitches the
  /// response into the same trace chain (and forces it traced, so sampled
  /// request→response chains always complete).
  Errc reply(std::uint64_t rpc_id, Buffer response,
             std::uint64_t parent_trace_id = 0);

  void set_on_msg(MsgHandler h) { on_msg_ = std::move(h); }
  void set_on_error(ErrorHandler h) { on_error_ = std::move(h); }
  /// Backpressure relief: after a send/call returned Errc::would_block,
  /// fires once (edge-triggered) when the tx queue drains below the
  /// 50% watermark (kWritablePct) and memory pressure has cleared.
  void set_on_writable(WritableHandler h) { on_writable_ = std::move(h); }

  /// Graceful close: FIN to the peer, QP recycled into the QP cache.
  void close();

  // --- Introspection --------------------------------------------------------
  State state() const { return state_; }
  bool usable() const { return state_ == State::established; }
  net::NodeId peer_node() const { return peer_; }
  std::uint64_t id() const { return id_; }
  rnic::QpNum qp_num() const { return link_.qp.num(); }
  Context& context() { return ctx_; }
  const ChannelStats& stats() const { return stats_; }
  /// Connection token minted at connect time: the stable identity that
  /// survives QP replacement (resume handshake, Mock fallback hello).
  std::uint64_t conn_token() const { return conn_token_; }
  /// Negotiated at CM handshake time: the effective wire version (highest
  /// both ranges contain) and feature set (AND of both ends) in force on
  /// this channel. A channel to an old build runs v1 with no features.
  std::uint16_t proto_version() const { return proto_version_; }
  std::uint32_t proto_features() const { return proto_features_; }
  /// Drain flush check: every send acked and dequeued, and no receive-side
  /// assembly (rendezvous pull, parked pull) still outstanding.
  bool quiescent();
  Nanos last_tx_time() const { return last_tx_; }
  Nanos last_rx_time() const { return last_rx_; }
  std::size_t inflight_msgs() const { return swin_.inflight(); }
  std::size_t queued_msgs() const { return pending_tx_.size(); }
  std::uint64_t queued_bytes() const { return pending_tx_bytes_; }
  Nanos last_alive_time() const { return last_alive_; }
  Seq tx_seq() const { return swin_.next_seq(); }
  Seq rx_rta() const { return rwin_.rta(); }
  // X-Check window-conservation oracle: both window edges plus the
  // negotiated depths, so SEQ/ACKED/WTA/RTA relationships are observable
  // from outside between any two simulation events.
  Seq tx_acked() const { return swin_.acked(); }
  Seq rx_wta() const { return rwin_.wta(); }
  std::uint32_t send_window_depth() const { return swin_.depth(); }
  std::uint32_t recv_window_depth() const { return rwin_.depth(); }

  // --- Alternate transport (Mock, §VI-C) ------------------------------------
  /// While a stream is attached, encoded messages bypass the QP and ride it
  /// (the TCP fallback). Every message rides the stream whole: there is no
  /// QP to pull a rendezvous payload through.
  bool mocked() const { return stream_ != nullptr; }
  /// Ride `stream` from now on; a stream already attached is closed first.
  /// A recovering channel resumes here: it replays the unacked window over
  /// the new path and, on the connector side, keeps probing RDMA so the
  /// channel migrates back when the path heals. A closed channel closes
  /// `stream` at once.
  void attach_stream(std::shared_ptr<AltStream> stream);
  /// Ingress for bytes arriving over the stream (one whole wire message per
  /// call).
  void on_alt_rx(const std::uint8_t* data, std::uint32_t len);
  /// `stream` died under us. Ignored unless it is the attached stream; an
  /// unsolicited loss while the QP is also gone re-enters recovery.
  void on_stream_lost(const AltStream& stream);
  /// Deliberate teardown: close the attached stream (which flips the peer
  /// too) and carry on over the QP, if there is one.
  void leave_fallback();

 private:
  friend class Context;

  struct PendingSend {
    std::uint16_t flags = 0;
    std::uint64_t rpc_id = 0;
    std::uint64_t trace_hint = 0;  // propagate this trace id (0 = mint one)
    Nanos deadline = 0;            // RPC deadline (absolute local time)
    Buffer payload;
    MemBlock zc_block;  // zero-copy payload (valid() when used)
  };

  /// One unacked message: the template every replay rebuilds from. The
  /// payload lives in exactly one place — the app buffer (inline and stream
  /// sends), a zero-copy or staged rendezvous block, or the staged wire
  /// block after the header — and moves into a block when a shape needs it.
  struct TxEntry {
    WireHeader hdr;        // as last emitted
    Buffer payload;        // app bytes while no block holds them
    MemBlock data_block;   // rendezvous source (zero-copy or staged)
    MemBlock wire_block;   // staged SEND bytes: header [+ eager payload]
    std::uint16_t integrity_retries = 0;  // integrity-NAK replays so far
  };

  struct RxState {
    WireHeader hdr;
    Buffer payload;
    MemBlock payload_block;   // rendezvous destination
    std::uint32_t reads_left = 0;
    Nanos t_arrive = 0;
    bool pull_deferred = false;  // rendezvous pull parked (memory pressure)
    bool pull_failed = false;    // pulled payload failed CRC; awaiting a
                                 // descriptor retransmit to retry the pull
  };

  /// Everything bound to one QP incarnation (§VI-C: only the seq-ack window
  /// and sequence state survive a resume). transport_up() hands it its QP
  /// and drop_qp() ends it with `link_ = Link{}`, so a field added here is
  /// reset by construction. The liveness clocks (last_tx_, last_rx_,
  /// last_alive_) are not here: the fallback shortcut in
  /// handle_transport_fault drops the QP while the stream lives on, and the
  /// fallback keepalive reads them, so they belong to the transport.
  struct Link {
    verbs::Qp qp;
    std::vector<MemBlock> bounce;  // pre-posted receive buffers, wr_id = index
    bool ack_inflight = false;  // a standalone ACK awaits its send WC
    bool nop_inflight = false;  // a deadlock-break NOP awaits its send WC
    bool keepalive_outstanding = false;  // a zero-byte probe is unanswered
    Nanos keepalive_posted = 0;  // post time of the outstanding probe (RTT)
  };

  /// `send_depth` is the negotiated in-flight depth (min of both sides'
  /// window_depth, exchanged in the CM private data).
  Channel(Context& ctx, net::NodeId peer, std::uint64_t id,
          std::uint32_t send_depth);

  /// The one way in, and the only place a QP enters the channel: a
  /// transport (`qp`, or the fallback stream with an empty `qp`) is up.
  /// Marks the channel established, routes and arms the QP if there is one,
  /// and restarts the liveness clocks and the keepalive.
  void transport_up(verbs::Qp qp);
  /// Recovery-completed accounting shared by QP resume and fallback attach.
  /// Returns how long the recovery took, or 0 if it was not timed.
  Nanos recovery_completed();
  /// The one way to lose a QP: purge its WRs, unroute it, stop probing it,
  /// return its bounce buffers, recycle it through the QP cache and reset
  /// the link. Safe on a channel with no QP.
  void drop_qp();
  /// The one way out. `end` is closed or error; `cause` (Errc::ok for the
  /// FIN's own completion) is recorded and reported to on_error_. The side
  /// with a cause tears the fallback stream down; the FIN's sender keeps it
  /// so the FIN lands, and loses it when the peer closes the stream.
  void finish(State end, Errc cause);
  void fail(Errc reason) { finish(State::error, reason); }

  /// Flight-recorder append stamped with sim time and this channel's id.
  void record(analysis::RecEvent ev, std::uint16_t code = 0,
              std::uint64_t a = 0, std::uint64_t b = 0);
  /// The single place state_ changes: every transition lands in the
  /// recorder with the old state and the Errc that caused it.
  void set_state(State next, Errc why = Errc::ok);

  // TX path.
  Errc enqueue(std::uint16_t flags, std::uint64_t rpc_id, Buffer payload,
               MemBlock zc_block, std::uint64_t trace_hint = 0,
               Nanos deadline = 0);
  void pump_tx();
  /// Emits the front pending send. Returns false on memory exhaustion,
  /// leaving `p` untouched (still queued) for the mem-retry timer.
  bool emit_data(PendingSend& p);
  /// The one tx frame path: builds `e`'s wire form for the current
  /// transport and posts it, for first sends and every replay alike.
  /// Returns false when a MemCache allocation fails.
  bool transmit(TxEntry& e, bool first);
  /// The entry's payload bytes, wherever they live (nullptr if synthetic).
  const std::uint8_t* payload_bytes(TxEntry& e);
  void copy_payload(TxEntry& e, std::uint8_t* dst);
  /// Posts one data frame through the egress filter: `wqe` (the whole
  /// message, carried in the WQE itself) when non-empty, else `block`.
  void post_wire(const WireHeader& hdr, MemBlock block, Buffer wqe);
  /// The one QP gate: WRs, rendezvous pulls included, may ring the NIC only
  /// when established, or closing (the FIN and the data ahead of it), with
  /// a live QP.
  bool postable() const {
    return (state_ == State::established || state_ == State::closing) &&
           link_.qp.valid();
  }
  /// Windowless control message. `aux_id`/`aux` ride in rpc_id/rv_addr
  /// (kFlagNak: the NAK'd seq and the retry-after hint in ns).
  void post_control(std::uint16_t flags, std::uint64_t aux_id = 0,
                    std::uint64_t aux = 0);
  /// DRAIN announcement (Context::begin_drain): tells the peer we are
  /// leaving gracefully, with a reconnect hint. No-op unless the peer
  /// negotiated kFeatDrain — an old build would mistake the flag for data.
  void send_drain(Nanos retry_after);

  // End-to-end integrity plane (kFeatE2eCrc; see README).
  /// Both ends negotiated the CRC TLV on this channel.
  bool crc_on() const { return (proto_features_ & kFeatE2eCrc) != 0; }
  Nanos crc_serialize(Nanos cost);
  /// encode() + CRC stamp: every tx path funnels its header serialization
  /// through here so a negotiated channel never emits an unstamped frame.
  void encode_stamped(const WireHeader& hdr, std::uint8_t* dst);
  /// Receive-side verification, run before ANY protocol state advances.
  /// Returns false when the frame must be dropped.
  bool verify_rx_integrity(const WireHeader& hdr, const std::uint8_t* bytes,
                           std::uint32_t len);
  /// Windowless NAK carrying the seq whose frame failed verification.
  void send_integrity_nak(Seq seq);
  /// Sender side: replay the unacked tail from the NAK'd seq (go-back-N —
  /// the receive window discarded everything after the dropped frame), or
  /// escalate Errc::integrity_error once the retry budget is spent.
  void on_integrity_nak(Seq seq);

  // Overload control (backpressure + memory-pressure degradation).
  bool tx_cap_reached(std::uint32_t len) const;
  bool tx_writable() const;
  void maybe_fire_writable();
  void account_dequeued(std::uint32_t len);
  void defer_rendezvous_pull(Seq seq, RxState& rx);
  void retry_deferred_pulls();
  void defer_retransmit();
  void arm_mem_retry();
  void mem_retry_fire();

  // RX path.
  void process_wire(const std::uint8_t* bytes, std::uint32_t len);
  /// `bytes` holds the whole frame; process_wire checked that an eager
  /// payload lies inside it.
  void handle_data(const WireHeader& hdr, const std::uint8_t* bytes);
  void start_rendezvous_pull(Seq seq, RxState& rx);
  void issue_pull_frags(Seq seq, RxState& rx);
  void on_read_frag_done(Seq seq, Errc status);
  void deliver(Seq seq, RxState& rx);
  void maybe_standalone_ack();
  void force_ack();

  // Control plumbing (driven by Context).
  void on_send_wc_control(std::uint16_t flags);
  void deadlock_tick();
  void rpc_timeout_scan();
  void keepalive_fire();
  void on_keepalive_wc(Errc status);
  /// Breaker just closed for our peer: pull the next RDMA probe forward.
  void nudge_probe();
  void post_bounce_buffers();
  void abort_calls(Errc reason);
  void free_tx_entry(TxEntry& e);
  /// Terminal-state cleanup (finish): drops queued sends, frees unacked
  /// window entries and half-pulled rendezvous payloads. A channel closed
  /// with traffic still in flight (its ACK was lost) must not keep those
  /// blocks — the X-Check balance oracle found the leak.
  void reclaim_windows();

  // Recovery (§VI-C). Any transport-level fault funnels through
  // handle_transport_fault, which decides between recovery and fail().
  void handle_transport_fault(Errc reason);
  void start_recovery(Errc reason);
  void schedule_recovery_attempt();
  /// A peer that announced a drain is restarting on purpose: park the
  /// ladder for its window. Returns false when no drain is announced.
  bool park_for_drain();
  void recovery_timer_fire();
  void resume_attempt_failed(Errc reason);
  void resume_adopt(verbs::Qp qp, Seq peer_rta);
  void escalate_or_fail();
  /// Circuit-breaker gate for one RDMA attempt. A denial is counted,
  /// recorded and reported to the health plane.
  bool breaker_admits();
  void arm_rdma_probe();
  void retransmit_unacked();
  void retransmit_entry(TxEntry& e);
  void restart_pending_pulls();

  Context& ctx_;
  Link link_;
  net::NodeId peer_;
  std::uint64_t id_;
  State state_ = State::established;

  SendWindow<TxEntry> swin_;
  RecvWindow<RxState> rwin_;
  std::deque<PendingSend> pending_tx_;
  std::uint64_t pending_tx_bytes_ = 0;
  // Doorbell-coalescing accumulator (owned logically by Context, which
  // posts the chain; lives here so per-channel FIFO order is structural).
  std::vector<verbs::SendWr> tx_batch_;
  std::uint64_t tx_batch_bytes_ = 0;
  bool batch_flush_scheduled_ = false;
  bool tx_blocked_ = false;          // a send was rejected; edge for writable
  bool retransmit_pending_ = false;  // retransmit parked on memory pressure
  std::unique_ptr<sim::DeadlineTimer> mem_retry_timer_;
  Seq last_scan_tx_seq_ = 0;  // deadlock-scan progress marker

  std::uint64_t next_rpc_id_ = 1;
  struct PendingCall {
    RpcCallback cb;
    Nanos deadline = 0;
    Nanos t_start = 0;
  };
  std::map<std::uint64_t, PendingCall> calls_;

  std::unique_ptr<sim::DeadlineTimer> keepalive_timer_;
  Nanos last_alive_ = 0;  // last hardware-level proof the peer RNIC lives
  Nanos last_tx_ = 0;
  Nanos last_rx_ = 0;
  Nanos crc_tx_ready_ = 0;  // send-path CRC serialization watermark

  // Recovery state. The single timer serves three roles, dispatched on
  // state: reconnect backoff (connector), passive resume deadline
  // (acceptor), and background RDMA probe (while on the fallback).
  bool connector_ = false;          // we dialed; we drive the resume
  std::uint16_t connect_port_ = 0;  // peer's listen port (resume target)
  std::uint64_t conn_token_ = 0;
  std::uint16_t proto_version_ = 1;   // negotiated wire version
  std::uint32_t proto_features_ = 0;  // negotiated feature bitmap
  Errc recovery_reason_ = Errc::ok;
  std::uint32_t recovery_attempt_ = 0;
  std::uint32_t recovery_budget_ = 0;
  Nanos recovery_started_ = 0;
  std::unique_ptr<sim::DeadlineTimer> recovery_timer_;
  Rng recovery_rng_;  // backoff jitter (seeded per channel, deterministic)
  bool resume_inflight_ = false;

  std::shared_ptr<AltStream> stream_;  // the Mock fallback, while attached

  MsgHandler on_msg_;
  ErrorHandler on_error_;
  WritableHandler on_writable_;
  ChannelStats stats_;
};

}  // namespace xrdma::core

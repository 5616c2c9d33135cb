#include "core/channel.hpp"

#include <algorithm>
#include <cstring>

#include "common/backoff.hpp"
#include "common/crc32c.hpp"
#include "common/logging.hpp"
#include "core/context.hpp"
namespace xrdma::core {

namespace {
// A would_block sender is told writable again once every cap it hit has
// drained to this low watermark (% of the cap).
constexpr std::uint64_t kWritablePct = 50;
// Retry cadence for memory-deferred work; also the retry-after hint a
// receiver NAK carries back to the sender.
constexpr Nanos kMemRetryInterval = micros(100);

// Per-message cost of the X-RDMA send path (framing, window bookkeeping, WR
// posting), calibrated in EXPERIMENTS.md, plus the tracing tax in req-rsp
// mode. The receive path runs inline in polling() and its cost is carried
// by the RNIC rx model.
constexpr Nanos kSendPathOverhead = nanos(250);
constexpr Nanos kTraceOverhead = nanos(50);

Nanos send_path_cost(const Config& cfg) {
  return cfg.reqrsp_mode ? kSendPathOverhead + kTraceOverhead
                         : kSendPathOverhead;
}
}  // namespace

Channel::Channel(Context& ctx, net::NodeId peer, std::uint64_t id,
                 std::uint32_t send_depth)
    : ctx_(ctx),
      peer_(peer),
      id_(id),
      swin_(send_depth),
      rwin_(ctx.config().window_depth) {
  keepalive_timer_ = std::make_unique<sim::DeadlineTimer>(
      ctx_.engine(), [this] { keepalive_fire(); });
  recovery_timer_ = std::make_unique<sim::DeadlineTimer>(
      ctx_.engine(), [this] { recovery_timer_fire(); });
  mem_retry_timer_ = std::make_unique<sim::DeadlineTimer>(
      ctx_.engine(), [this] { mem_retry_fire(); });
  recovery_rng_.reseed(ctx_.trace_epoch() ^ (id * 0x9e3779b97f4a7c15ULL));
}

Channel::~Channel() {
  // Normal teardown happens through finish(); this is the context
  // destructor path, where a live QP destroys itself. The stream is closed
  // here too, so it never outlives the channel it calls into.
  for (const MemBlock& block : link_.bounce) ctx_.ctrl_cache_.free(block);
  if (stream_) stream_->close();
}

void Channel::record(analysis::RecEvent ev, std::uint16_t code,
                     std::uint64_t a, std::uint64_t b) {
  ctx_.recorder().log(ctx_.engine().now(), ev, code,
                      static_cast<std::uint32_t>(id_), a, b);
}

void Channel::set_state(State next, Errc why) {
  if (next == state_) return;
  record(analysis::RecEvent::chan_state, static_cast<std::uint16_t>(next),
         static_cast<std::uint64_t>(state_), static_cast<std::uint64_t>(why));
  state_ = next;
}

void Channel::transport_up(verbs::Qp qp) {
  recovery_timer_->cancel();
  set_state(State::established);
  link_.qp = std::move(qp);
  if (link_.qp.valid()) {
    ctx_.by_qp_[link_.qp.num()] = this;
    post_bounce_buffers();
  }
  last_tx_ = last_rx_ = last_alive_ = ctx_.engine().now();
  // On the fallback the keepalive watches the stream (NOP exchange instead
  // of zero-byte writes): a silently dying stream is noticed too.
  keepalive_timer_->arm_after(ctx_.config().keepalive_intv);
}

void Channel::post_bounce_buffers() {
  const Config& cfg = ctx_.config();
  if (cfg.use_srq) return;
  // Pre-post bounce buffers: the whole receive window plus control slack
  // (standalone ACKs, NOPs, FIN). The sender's window bound plus this
  // pre-posting is what makes the protocol RNR-free (§V-B).
  const std::uint32_t count = 2 * cfg.window_depth + 8;
  link_.bounce.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    MemBlock block = ctx_.alloc_bounce();
    if (!block.valid()) break;
    link_.bounce.push_back(block);
    link_.qp.post_recv(
        {.wr_id = i, .sge = {block.addr, block.len, block.lkey}});
  }
}

// ---------------------------------------------------------------------------
// TX path.

Errc Channel::send_msg(Buffer payload) {
  return enqueue(0, 0, std::move(payload), MemBlock{});
}

Errc Channel::send_msg(const MemBlock& block, std::uint32_t len) {
  Buffer view = Buffer::synthetic(len);  // length carrier; bytes live in block
  return enqueue(0, 0, std::move(view), block);
}

Errc Channel::call(Buffer request, RpcCallback cb, Nanos timeout) {
  const std::uint64_t rpc_id = next_rpc_id_++;
  PendingCall pc;
  pc.cb = std::move(cb);
  pc.t_start = ctx_.engine().now();
  pc.deadline = timeout > 0 ? ctx_.engine().now() + timeout : 0;
  const Errc rc = enqueue(kFlagRpcReq, rpc_id, std::move(request), MemBlock{},
                          0, pc.deadline);
  if (rc != Errc::ok) return rc;
  calls_[rpc_id] = std::move(pc);
  ++stats_.rpc_calls;
  return Errc::ok;
}

Errc Channel::reply(std::uint64_t rpc_id, Buffer response,
                    std::uint64_t parent_trace_id) {
  return enqueue(kFlagRpcRsp, rpc_id, std::move(response), MemBlock{},
                 parent_trace_id);
}

Errc Channel::enqueue(std::uint16_t flags, std::uint64_t rpc_id,
                      Buffer payload, MemBlock zc_block,
                      std::uint64_t trace_hint, Nanos deadline) {
  // Transparent recovery: sends during `recovering` park in pending_tx_
  // and drain once the channel resumes — the application never notices.
  if (state_ != State::established && state_ != State::recovering) {
    return Errc::channel_closed;
  }
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  // Lifecycle drain — ours or the peer's announced one: stop admitting new
  // sends so the windows can flush (RPC responses still pass; completing
  // accepted requests is part of the flush). Same would_block surface as
  // overload backpressure; code 1 = local drain, 2 = peer drain.
  if ((flags & kFlagRpcRsp) == 0 &&
      (ctx_.draining() || ctx_.health().peer_draining(peer_))) {
    ++stats_.tx_would_block;
    tx_blocked_ = true;
    record(analysis::RecEvent::overload_would_block,
           ctx_.draining() ? 1 : 2, len);
    return Errc::would_block;
  }
  // Hard memory pressure: shed all new work. RPC responses still pass —
  // completing accepted requests is how the backlog drains.
  if ((flags & kFlagRpcRsp) == 0 &&
      ctx_.mem_pressure() == MemPressure::hard) {
    ++stats_.tx_shed;
    ++stats_.tx_would_block;
    tx_blocked_ = true;
    record(analysis::RecEvent::overload_shed, 0, len);
    return Errc::would_block;
  }
  // Bounded queue: past either cap the caller must wait for on_writable.
  // An empty queue always admits one message (progress guarantee for
  // payloads larger than the byte cap).
  if (!pending_tx_.empty() && tx_cap_reached(len)) {
    ++stats_.tx_would_block;
    tx_blocked_ = true;
    record(analysis::RecEvent::overload_would_block, 0, len,
           pending_tx_bytes_);
    return Errc::would_block;
  }
  PendingSend p;
  p.flags = flags;
  p.rpc_id = rpc_id;
  p.trace_hint = trace_hint;
  p.deadline = deadline;
  p.payload = std::move(payload);
  p.zc_block = zc_block;
  if (swin_.full() || !pending_tx_.empty()) ++stats_.window_stalls;
  pending_tx_.push_back(std::move(p));
  pending_tx_bytes_ += len;
  ctx_.note_queued_tx(len);
  pump_tx();
  return Errc::ok;
}

bool Channel::tx_cap_reached(std::uint32_t len) const {
  const Config& cfg = ctx_.config();
  if (cfg.tx_queue_max_msgs > 0 &&
      pending_tx_.size() >= cfg.tx_queue_max_msgs) {
    return true;
  }
  if (cfg.tx_queue_max_bytes > 0 &&
      pending_tx_bytes_ + len > cfg.tx_queue_max_bytes) {
    return true;
  }
  if (cfg.ctx_tx_max_bytes > 0 &&
      ctx_.queued_tx_bytes() + len > cfg.ctx_tx_max_bytes) {
    return true;
  }
  return false;
}

bool Channel::tx_writable() const {
  const Config& cfg = ctx_.config();
  if (ctx_.mem_pressure() == MemPressure::hard) return false;
  const auto below = [&](std::uint64_t cur, std::uint64_t cap) {
    return cap == 0 || cur <= cap * kWritablePct / 100;
  };
  return below(pending_tx_.size(), cfg.tx_queue_max_msgs) &&
         below(pending_tx_bytes_, cfg.tx_queue_max_bytes) &&
         below(ctx_.queued_tx_bytes(), cfg.ctx_tx_max_bytes);
}

void Channel::maybe_fire_writable() {
  if (!tx_blocked_) return;
  if (state_ != State::established && state_ != State::recovering) return;
  // Drain rejections clear only when the drain does: ours on restart, the
  // peer's when its announced window lapses (the scan-tick sweep re-runs
  // this, so the edge fires then without a dequeue event).
  if (ctx_.draining() || ctx_.health().peer_draining(peer_)) return;
  if (!tx_writable()) return;
  tx_blocked_ = false;  // edge-triggered: re-arms on the next rejection
  ++stats_.writable_signals;
  if (on_writable_) on_writable_(*this);
}

void Channel::account_dequeued(std::uint32_t len) {
  pending_tx_bytes_ -= len;
  ctx_.note_queued_tx(-static_cast<std::int64_t>(len));
}

void Channel::pump_tx() {
  while (!pending_tx_.empty() && !swin_.full() &&
         state_ == State::established) {
    PendingSend& p = pending_tx_.front();
    if (!emit_data(p)) {
      // Memory exhausted: leave the message queued and retry on the timer
      // (graceful degradation — the pool drains as acks retire entries).
      ++stats_.tx_mem_deferrals;
      record(analysis::RecEvent::overload_mem_defer, 0,
             pending_tx_.size());
      arm_mem_retry();
      break;
    }
    account_dequeued(static_cast<std::uint32_t>(p.payload.size()));
    pending_tx_.pop_front();
  }
  maybe_fire_writable();
}

bool Channel::emit_data(PendingSend& p) {
  const Config& cfg = ctx_.config();
  const Nanos now = ctx_.engine().now();
  const std::uint32_t len = static_cast<std::uint32_t>(p.payload.size());
  // pump_tx guarantees window space, so the push below lands on this seq.
  const Seq seq = swin_.next_seq();

  TxEntry e;
  if (p.zc_block.valid()) {
    e.data_block = p.zc_block;
  } else {
    e.payload = p.payload;
  }
  WireHeader& hdr = e.hdr;
  hdr.version = proto_version_;
  hdr.flags = p.flags;
  hdr.seq = seq;
  hdr.rpc_id = p.rpc_id;
  hdr.payload_len = len;
  if ((p.flags & kFlagRpcReq) != 0 && p.deadline > 0) {
    // Deadline propagation (§VI): stamp the *remaining* budget at emit
    // time — client-side queueing consumed its share — relative, so it
    // survives unsynchronized host clocks. 0 means no deadline, so an
    // already-expired budget is clamped to 1 µs.
    const Nanos left = p.deadline > now ? p.deadline - now : 0;
    hdr.budget_us = static_cast<std::uint32_t>(std::max<Nanos>(
        1, std::min<Nanos>(left / kNanosPerMicro, 0xffffffffLL)));
  }

  // Tracing: req-rsp mode traces everything; bare-data mode samples by
  // trace_sample_mask (0 = off). A message carrying a parent trace id (an
  // RPC response to a traced request) is always traced so chains complete.
  if (p.trace_hint != 0 || cfg.reqrsp_mode ||
      (cfg.trace_sample_mask != 0 && (seq & cfg.trace_sample_mask) == 0)) {
    hdr.flags |= kFlagTraced;
    hdr.t_send = ctx_.local_time();
    // Fold in the context epoch: channel ids and seqs both restart per
    // context, so (id << 24) ^ seq alone collides across contexts.
    hdr.trace_id = p.trace_hint != 0
                       ? p.trace_hint
                       : ctx_.trace_epoch() ^ (id_ << 24) ^ seq;
  }

  if (crc_on()) {
    // Whole-message payload CRC (not per-fragment): one value covers the
    // eager copy, the WQE-inline bytes and a rendezvous pull alike, so the
    // receiver verifies exactly what the application handed us. Synthetic
    // payloads have no bytes to cover — the 0 sentinel tells the receiver
    // to skip payload verification (header integrity still applies).
    hdr.crc_present = true;
    if (const std::uint8_t* src = payload_bytes(e); src && len > 0) {
      hdr.payload_crc = crc32c(src, len);
    }
  }

  // Memory exhaustion leaves the message queued and the window and ack
  // state untouched, so the mem-retry timer can try again.
  if (!transmit(e, /*first=*/true)) return false;
  swin_.push(std::move(e));
  return true;
}

// The shape rule, in order:
//   1. stream      a stream is attached: the whole message rides the Mock
//                  fallback (a descriptor is useless without a QP to pull
//                  through);
//   2. rendezvous  len > small_msg_size or the payload sits in a data block
//                  (zero-copy or staged): the SEND carries a descriptor and
//                  the receiver pulls with RDMA Read (§IV-C);
//   3. re-stamp    the retained wire block exists: refresh its ack and CRC
//                  in place and repost it;
//   4. inline      small eager payloads ride in the WQE itself
//                  (IBV_SEND_INLINE) — no staging block, no tx DMA stage —
//                  bounded by our policy knob and the NIC's inline capacity;
//   5. staged      header and payload are copied into a wire block.
// Rendezvous descriptors and staged frames keep their wire block for the
// next replay (rule 3); inline and stream frames are rebuilt each time.
bool Channel::transmit(TxEntry& e, bool first) {
  const Config& cfg = ctx_.config();
  WireHeader& hdr = e.hdr;
  const std::uint32_t len = hdr.payload_len;
  // Piggybacked ack (Algorithm 1). A replay takes it before staging, a
  // first send only once staging succeeded: a first send that runs out of
  // memory must leave unacked() — and so the standalone-ack timing — as is.
  const auto take_ack = [&] {
    hdr.ack = rwin_.ack_to_send();
    rwin_.note_ack_sent();
    last_tx_ = ctx_.engine().now();
  };
  if (!first) take_ack();

  const bool stream = mocked();
  const bool large =
      !stream && (len > cfg.small_msg_size || e.data_block.valid());
  const bool whole =
      stream || (!large && !e.wire_block.valid() && cfg.inline_max > 0 &&
                 len <= cfg.inline_max &&
                 hdr.wire_size() + len <= ctx_.nic().config().max_inline_data);

  // Stage the blocks this shape needs; the payload moves into them.
  MemBlock staged_data;
  if (large && !e.data_block.valid()) {
    staged_data = ctx_.data_cache_.alloc(len);
    if (!staged_data.valid()) return false;
    copy_payload(e, ctx_.data_cache_.data(staged_data));
    e.data_block = staged_data;
    e.payload = Buffer{};
  }
  if (!whole && !e.wire_block.valid()) {
    const MemBlock block =
        ctx_.ctrl_cache_.alloc(hdr.wire_size() + (large ? 0 : len));
    if (!block.valid()) {
      // A first send retries later from its queued app buffer; a replay
      // keeps the staged block, which now holds the only payload copy.
      if (first && staged_data.valid()) ctx_.data_cache_.free(staged_data);
      return false;
    }
    if (!large) copy_payload(e, ctx_.ctrl_cache_.data(block, hdr.wire_size()));
    e.wire_block = block;
    e.payload = Buffer{};
  }
  hdr.flags = static_cast<std::uint16_t>((hdr.flags & ~kFlagLarge) |
                                         (large ? kFlagLarge : 0));
  hdr.rv_addr = large ? e.data_block.addr : 0;
  hdr.rv_rkey = large ? e.data_block.rkey : 0;

  if (first) {
    take_ack();
    ++stats_.msgs_tx;
    stats_.bytes_tx += len;
    if (ctx_.recorder().sample(stats_.msgs_tx)) {
      record(analysis::RecEvent::msg_tx_sample, hdr.flags, hdr.seq, len);
    }
    if (large) ++stats_.large_msgs_tx;
    if (whole && !stream) ++stats_.eager_copies_avoided;
    if (hdr.has(kFlagTraced) && ctx_.span_sink()) {
      SpanPostEvent ev;
      ev.trace_id = hdr.trace_id;
      ev.channel_id = id_;
      ev.node = ctx_.node();
      ev.peer = peer_;
      ev.t_post = hdr.t_send;
      // The WR reaches the NIC after the software send path; post_wire
      // schedules it with exactly this cost (the stream posts at once).
      ev.t_wire = hdr.t_send + (stream ? 0 : send_path_cost(cfg));
      ev.bytes = len;
      ev.is_rpc_req = hdr.has(kFlagRpcReq);
      ev.is_rpc_rsp = hdr.has(kFlagRpcRsp);
      ctx_.span_sink()->on_span_post(ev);
    }
  }

  if (whole) {
    // Stream and inline frames carry the whole message in one heap buffer.
    Buffer wire = Buffer::make(hdr.wire_size() + len);
    encode_stamped(hdr, wire.data());
    copy_payload(e, wire.data() + hdr.wire_size());
    if (stream) {
      ++stats_.mock_tx;
      stream_->send(std::move(wire));
    } else {
      ++stats_.inline_sends;
      post_wire(hdr, MemBlock{}, std::move(wire));
    }
    return true;
  }
  // Staged frame or rendezvous descriptor, fresh or re-stamped: a replayed
  // descriptor stays valid — its data block is only freed on ack, and MRs
  // outlive the QP.
  if (std::uint8_t* dst = ctx_.ctrl_cache_.data(e.wire_block)) {
    encode_stamped(hdr, dst);
  }
  post_wire(hdr, e.wire_block, Buffer{});
  return true;
}

const std::uint8_t* Channel::payload_bytes(TxEntry& e) {
  if (e.data_block.valid()) return ctx_.data_cache_.data(e.data_block);
  if (e.wire_block.valid()) {
    return ctx_.ctrl_cache_.data(e.wire_block, e.hdr.wire_size());
  }
  return e.payload.data();
}

void Channel::copy_payload(TxEntry& e, std::uint8_t* dst) {
  const std::uint8_t* src = payload_bytes(e);
  if (dst && src && e.hdr.payload_len > 0) {
    std::memcpy(dst, src, e.hdr.payload_len);
  }
}

void Channel::post_wire(const WireHeader& hdr, MemBlock block, Buffer wqe) {
  const Config& cfg = ctx_.config();
  const bool in_wqe = !wqe.empty();
  const std::uint32_t len =
      hdr.wire_size() + (hdr.has(kFlagLarge) ? 0 : hdr.payload_len);
  // Egress fault injection (Filter, §VI-C). A dropped message stays in the
  // send window — only a recovery replay can deliver it. The frame is
  // already stamped, so injected corruption lands like a flip after a real
  // NIC computed its CRC — which is what makes it detectable.
  Nanos extra = 0;
  MemBlock transient;  // corrupted egress copy; freed when its WC lands
  if (ctx_.egress_filter_) {
    const auto d = ctx_.egress_filter_(*this, hdr);
    if (d.action == Context::FilterAction::drop) {
      ++stats_.egress_drops;
      return;
    }
    if (d.action == Context::FilterAction::delay) extra = d.delay;
    if (d.action == Context::FilterAction::corrupt) {
      // The WQE bytes are this post's own copy. A staged block is not: the
      // send window retains it as the replay template, so corrupt a
      // transient copy, or every recovery replay would re-send the
      // corrupted bytes. Allocation failure posts the clean block — the
      // fault degrades to a no-op, deterministically.
      std::uint8_t* bytes = wqe.data();
      if (const std::uint8_t* src =
              in_wqe ? nullptr : ctx_.ctrl_cache_.data(block)) {
        transient = ctx_.ctrl_cache_.alloc(len);
        if (transient.valid()) {
          bytes = ctx_.ctrl_cache_.data(transient);
          std::memcpy(bytes, src, len);
          block = transient;
        }
      }
      if (bytes) bytes[d.corrupt_seed % len] ^= 0x40;
    }
  }
  verbs::SendWr wr;
  wr.wr_id = ctx_.register_wr(
      {Context::WrInfo::Kind::data_send, id_, 0, 0, transient, false});
  wr.opcode = verbs::Opcode::send_imm;  // imm carries the ACK low bits (§V-B)
  wr.imm = static_cast<std::uint32_t>(rwin_.last_ack_sent());
  wr.local = {block.addr, len, block.lkey};  // no MR backs an inline WQE
  wr.inline_data = in_wqe;
  wr.inline_payload = std::move(wqe);
  // Software send-path cost (plus the tracing tax in req-rsp mode, plus the
  // CRC pass over the covered bytes — header and, when real, payload —
  // modeling a hardware-assisted CRC32C at ~16 bytes/ns).
  Nanos cost = send_path_cost(cfg);
  if (hdr.crc_present) {
    cost += static_cast<Nanos>(
        (hdr.wire_size() + (hdr.payload_crc != 0 ? hdr.payload_len : 0)) / 16);
    cost = crc_serialize(cost);
  }
  const std::uint64_t chan_id = id_;
  ctx_.engine().schedule_after(cost + extra, [ctx = &ctx_, chan_id, wr] {
    if (Channel* ch = ctx->channel_by_id(chan_id); ch && ch->postable()) {
      ctx->accumulate_wr(*ch, wr);
    } else {
      ctx->retire(wr.wr_id);
    }
  });
}

void Channel::post_control(std::uint16_t flags, std::uint64_t aux_id,
                           std::uint64_t aux) {
  if (state_ == State::closed || state_ == State::error) return;
  if (flags & kFlagNak) {
    record(analysis::RecEvent::overload_nak_tx, 0, aux_id, aux);
  }
  WireHeader hdr;
  hdr.version = proto_version_;
  hdr.flags = flags;
  hdr.rpc_id = aux_id;
  hdr.rv_addr = aux;
  if ((flags & (kFlagNak | kFlagDrain)) != 0 && proto_version_ >= 2) {
    // Wire v2 also carries the hint as a header TLV — the extensible-field
    // path new builds grow through; rv_addr keeps it for v1 interop. On a
    // CRC channel the TLV area belongs to the CRC (encode() prefers it);
    // the hint still rides rv_addr, which every version reads first.
    hdr.retry_after_us = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(aux / kNanosPerMicro, 0xffffffffull));
  }
  hdr.crc_present = crc_on();
  hdr.ack = rwin_.ack_to_send();
  rwin_.note_ack_sent();

  if (flags & kFlagAckOnly) {
    link_.ack_inflight = true;
    ++stats_.acks_tx;
  }
  if (flags & kFlagNop) {
    link_.nop_inflight = true;
    ++stats_.nops_tx;
  }
  last_tx_ = ctx_.engine().now();

  // Egress fault injection: a dropped control message is "sent" locally
  // (inflight flags clear as if its WC arrived) but never reaches the wire.
  if (ctx_.egress_filter_) {
    const auto d = ctx_.egress_filter_(*this, hdr);
    if (d.action == Context::FilterAction::drop) {
      ++stats_.egress_drops;
      on_send_wc_control(flags);
      return;
    }
  }

  if (stream_) {
    Buffer wire = Buffer::make(hdr.wire_size());
    encode_stamped(hdr, wire.data());
    stream_->send(std::move(wire));
    on_send_wc_control(flags);  // no WC will come back
    return;
  }

  // Privileged: control messages ride the reserved quota so liveness never
  // depends on the data backlog (§VI graceful degradation).
  MemBlock block = ctx_.ctrl_cache_.alloc(hdr.wire_size(), /*privileged=*/true);
  if (!block.valid()) {
    // Even the reserve is gone. Clear the inflight marks (no WC will ever
    // come back for this message — the old code silently leaked them, so a
    // dropped FIN hung close() forever) and surface the FIN failure.
    ++stats_.ctrl_alloc_failures;
    if (flags & kFlagAckOnly) link_.ack_inflight = false;
    if (flags & kFlagNop) link_.nop_inflight = false;
    if (flags & kFlagFin) fail(Errc::resource_exhausted);
    return;
  }
  encode_stamped(hdr, ctx_.ctrl_cache_.data(block));

  verbs::SendWr wr;
  wr.wr_id = ctx_.register_wr(
      {Context::WrInfo::Kind::ctrl_send, id_, 0, flags, block, false});
  wr.opcode = verbs::Opcode::send_imm;
  wr.imm = static_cast<std::uint32_t>(rwin_.last_ack_sent());
  wr.local = {block.addr, hdr.wire_size(), block.lkey};
  // Control bypasses the flow-control queue: it is tiny and carries the
  // acks that unblock everything else.
  if (ctx_.ring_doorbell(*this, &wr, 1) != Errc::ok) ctx_.retire(wr.wr_id);
}

void Channel::send_drain(Nanos retry_after) {
  if (state_ != State::established) return;
  // Only a peer that negotiated kFeatDrain can parse the announcement (an
  // old build's is_data() would mistake the unknown flag for data). It
  // still sees our FINs — the close stays clean, just without the
  // graceful grade on its health plane.
  if ((proto_features_ & kFeatDrain) == 0) return;
  ++stats_.drains_tx;
  post_control(kFlagDrain, 0, static_cast<std::uint64_t>(retry_after));
}

// ---------------------------------------------------------------------------
// End-to-end integrity plane (kFeatE2eCrc).

Nanos Channel::crc_serialize(Nanos cost) {
  // The CRC pass runs on the single serialized send path: a large payload's
  // checksum delays every LATER post behind it, it never lets one overtake.
  // Without this clamp a rendezvous descriptor's surcharge would reorder it
  // behind tens of cheaper eager frames and blow out the receive window.
  const Nanos now = ctx_.engine().now();
  Nanos ready = now + cost;
  if (ready < crc_tx_ready_) ready = crc_tx_ready_;
  crc_tx_ready_ = ready;
  return ready - now;
}

void Channel::encode_stamped(const WireHeader& hdr, std::uint8_t* dst) {
  hdr.encode(dst);
  if (hdr.crc_present) {
    hdr.stamp_crc(dst);
    ++stats_.crc_stamped_tx;
  }
}

bool Channel::verify_rx_integrity(const WireHeader& hdr,
                                  const std::uint8_t* bytes,
                                  std::uint32_t len) {
  if (!crc_on()) return true;  // feature off: TLVs (if any) are ignored
  bool ok;
  if (!hdr.crc_present) {
    // A negotiated channel stamps every frame, so a frame arriving without
    // the TLV had its TLV area corrupted (count/type/len byte): treating it
    // as intact would be a verification bypass. Control frames are the
    // exception that proves the rule — they fail here too and are dropped,
    // which the ack/NOP/timer machinery already recovers from.
    ok = false;
  } else {
    ok = WireHeader::verify_hdr_crc(bytes, len, hdr);
    if (ok && hdr.is_data() && !hdr.has(kFlagLarge) && hdr.payload_len > 0 &&
        hdr.payload_crc != 0) {
      // Eager payload rides in this frame: verify it now. Rendezvous
      // payloads are verified after the pull (on_read_frag_done).
      ok = hdr.payload_len <= len - hdr.wire_size() &&
           crc32c(bytes + hdr.wire_size(), hdr.payload_len) ==
               hdr.payload_crc;
    }
  }
  if (ok) return true;
  ++stats_.crc_failures_rx;
  ctx_.health().note_crc_failure(peer_);
  record(analysis::RecEvent::crc_fail_rx, hdr.flags, hdr.seq,
         hdr.payload_len);
  // NAK only what claims to be data: a corrupted control frame has no
  // window entry to replay, and its loss is equivalent to a drop fault.
  // (The flags byte itself may be corrupted — this is best-effort; a data
  // frame masquerading as control is recovered like a drop.)
  //
  // The NAK carries OUR next-expected seq, not hdr.seq: the header just
  // failed verification, so its seq field is exactly the kind of byte the
  // corruption may have hit. Everything below rx_wta was delivered in
  // order; the damaged frame is at or above it, so go-back-N from rx_wta
  // always covers it. (The rendezvous pull path NAKs the frame's own seq —
  // there the header DID verify, only the pulled payload didn't.)
  if (hdr.is_data()) send_integrity_nak(rwin_.wta());
  return false;
}

void Channel::send_integrity_nak(Seq seq) {
  ++stats_.integrity_naks_tx;
  record(analysis::RecEvent::integrity_nak_tx, 0, seq);
  post_control(kFlagIntegrityNak, seq, 0);
}

void Channel::on_integrity_nak(Seq seq) {
  ++stats_.integrity_naks_rx;
  record(analysis::RecEvent::integrity_nak_rx, 0, seq);
  TxEntry* ent = swin_.find(seq);
  if (!ent) return;  // already acked, or the NAK'd seq itself is garbage
  const std::uint32_t budget = ctx_.config().integrity_retry_max;
  ++ent->integrity_retries;
  if (budget > 0 && ent->integrity_retries > budget) {
    // Retries exhausted: something is persistently corrupting this message
    // (a torn source buffer, a broken staging path). Surface the true
    // cause — never folded into peer_dead; the peer is answering, its
    // answers just don't verify.
    ++stats_.integrity_exhausted;
    record(analysis::RecEvent::integrity_exhausted,
           static_cast<std::uint16_t>(budget), seq);
    ent->integrity_retries = 0;
    handle_transport_fault(Errc::integrity_error);
    return;
  }
  // Go-back-N from the NAK'd seq: the receive window only accepts rx_wta,
  // so every frame we sent after the dropped one was discarded
  // ahead-of-window and must be replayed too. Entries below the NAK'd seq
  // were received in order; the receiver's dedup absorbs any overlap.
  swin_.for_each_inflight([this, seq](Seq s, TxEntry& e) {
    if (s < seq || state_ != State::established) return;
    ++stats_.integrity_retransmits;
    record(analysis::RecEvent::integrity_retransmit,
           static_cast<std::uint16_t>(e.integrity_retries), s);
    retransmit_entry(e);
  });
}

bool Channel::quiescent() {
  if (swin_.inflight() != 0 || !pending_tx_.empty()) return false;
  bool assembling = false;
  rwin_.for_each_pending([&assembling](Seq, RxState&) { assembling = true; });
  return !assembling;
}

void Channel::on_send_wc_control(std::uint16_t flags) {
  if (flags & kFlagAckOnly) link_.ack_inflight = false;
  if (flags & kFlagNop) link_.nop_inflight = false;
  if ((flags & kFlagFin) && state_ == State::closing) {
    finish(State::closed, Errc::ok);
  }
}

void Channel::reclaim_windows() {
  for (PendingSend& p : pending_tx_) {
    if (p.zc_block.valid()) ctx_.data_cache_.free(p.zc_block);
  }
  pending_tx_.clear();
  ctx_.note_queued_tx(-static_cast<std::int64_t>(pending_tx_bytes_));
  pending_tx_bytes_ = 0;
  tx_blocked_ = false;
  retransmit_pending_ = false;
  mem_retry_timer_->cancel();
  swin_.process_ack(swin_.next_seq(),
                    [this](Seq, TxEntry& e) { free_tx_entry(e); });
  rwin_.for_each_pending([this](Seq, RxState& r) {
    if (r.payload_block.valid()) ctx_.data_cache_.free(r.payload_block);
    r.payload_block = MemBlock{};
    r.pull_deferred = false;
    r.pull_failed = false;
  });
}

// ---------------------------------------------------------------------------
// RX path.

void Channel::on_alt_rx(const std::uint8_t* data, std::uint32_t len) {
  process_wire(data, len);
}

void Channel::process_wire(const std::uint8_t* bytes, std::uint32_t len) {
  if (state_ == State::closed || state_ == State::error) return;
  WireHeader hdr;
  const HdrDecode drc = WireHeader::decode_ex(bytes, len, hdr);
  if (drc != HdrDecode::ok) {
    ++stats_.bad_messages;
    if (drc == HdrDecode::bad_version) {
      // Version skew, not corruption: count it by name and put it in the
      // ring so triage reads "peer speaks a version outside our range"
      // instead of a generic bad message.
      ++stats_.hdr_version_reject;
      record(analysis::RecEvent::hdr_version_reject,
             static_cast<std::uint16_t>(drc), len);
    }
    return;
  }
  // Unknown header TLVs skipped by the length rule (upgraded peer adding
  // fields we don't know yet): visible, never fatal.
  stats_.hdr_tlv_skipped += hdr.tlv_skipped;

  // Fault injection (Filter, §VI-C).
  Buffer corrupted;  // keeps the mutated copy alive through handling
  if (ctx_.filter_) {
    const auto decision = ctx_.filter_(*this, hdr);
    if (decision.action == Context::FilterAction::drop) {
      ++stats_.filtered_drops;
      return;
    }
    if (decision.action == Context::FilterAction::corrupt && len > 0) {
      corrupted = Buffer::copy_of(bytes, len);
      corrupted.data()[decision.corrupt_seed % len] ^= 0x40;
      bytes = corrupted.data();
      if (!WireHeader::decode(bytes, len, hdr)) {
        ++stats_.bad_messages;
        return;
      }
    }
    if (decision.action == Context::FilterAction::delay) {
      Buffer copy = Buffer::copy_of(bytes, len);
      const std::uint64_t chan_id = id_;
      ctx_.engine().schedule_after(
          decision.delay, [ctx = &ctx_, chan_id, copy]() {
            if (Channel* ch = ctx->channel_by_id(chan_id)) {
              // Re-entry bypasses the filter (consume the decision once).
              auto saved = std::move(ctx->filter_);
              ch->process_wire(copy.data(),
                               static_cast<std::uint32_t>(copy.size()));
              ctx->filter_ = std::move(saved);
            }
          });
      return;
    }
  }

  // End-to-end integrity (kFeatE2eCrc): verify before ANY protocol state
  // advances — a corrupted cumulative ack or control flag must never be
  // processed, and a corrupted frame is not proof of life.
  if (!verify_rx_integrity(hdr, bytes, len)) return;
  // An eager payload must lie inside its frame. payload_len comes from the
  // peer, unverified when CRC is off, so compare without the sum that can
  // wrap, and drop a frame that fails like any other malformed one.
  if (hdr.is_data() && !hdr.has(kFlagLarge) &&
      hdr.payload_len > len - hdr.wire_size()) {
    ++stats_.bad_messages;
    return;
  }

  last_rx_ = ctx_.engine().now();
  ctx_.health().note_proof_of_life(peer_);

  // Piggybacked cumulative ack (Algorithm 1 sender RECV_MESSAGE).
  swin_.process_ack(hdr.ack, [this](Seq, TxEntry& e) { free_tx_entry(e); });
  pump_tx();

  if (hdr.has(kFlagAckOnly)) {
    ++stats_.acks_rx;
    return;
  }
  if (hdr.has(kFlagNop)) {
    ++stats_.nops_rx;
    return;
  }
  if (hdr.has(kFlagIntegrityNak)) {
    // The receiver dropped our frame on a CRC mismatch; rpc_id carries the
    // seq. Replay from the send window (go-back-N) or escalate.
    on_integrity_nak(hdr.rpc_id);
    return;
  }
  if (hdr.has(kFlagNak)) {
    // Receiver parked the rendezvous pull for hdr.rpc_id (the seq) under
    // memory pressure; it retries on its own (our descriptor stays valid —
    // the payload block is only freed on ack). Nothing to re-send: the NAK
    // exists so the stall reads as flow control, not silence.
    ++stats_.naks_rx;
    return;
  }
  if (hdr.has(kFlagDrain)) {
    // The peer announced a graceful drain: grade it `draining` (not
    // suspect/dead) for its announced window. The reconnect hint rides
    // rv_addr in ns (and, on wire v2, the retry-after TLV).
    ++stats_.drains_rx;
    Nanos hint = static_cast<Nanos>(hdr.rv_addr);
    if (hint == 0 && hdr.retry_after_us > 0) {
      hint = static_cast<Nanos>(hdr.retry_after_us) * kNanosPerMicro;
    }
    ctx_.recorder().log(ctx_.engine().now(), analysis::RecEvent::drain_rx, 0,
                        static_cast<std::uint32_t>(peer_),
                        static_cast<std::uint64_t>(hint), id_);
    ctx_.health().note_peer_draining(peer_, hint);
    return;
  }
  if (hdr.has(kFlagFin)) {
    finish(State::closed, Errc::channel_closed);
    return;
  }

  handle_data(hdr, bytes);
  maybe_standalone_ack();
}

void Channel::handle_data(const WireHeader& hdr, const std::uint8_t* bytes) {
  RxState* rx = rwin_.arrive(hdr.seq);
  if (!rx) {
    if (hdr.seq < rwin_.wta()) {
      // Retransmit of a message that already arrived (recovery replay, or
      // the original landed just before the QP died). Exactly-once: never
      // hand it to the application again — but an inline replay can stand
      // in for an interrupted rendezvous pull, and the sender needs a
      // fresh ack either way so it can retire the entry.
      ++stats_.dup_msgs_rx;
      if (RxState* pending = rwin_.find(hdr.seq);
          pending && pending->pull_failed && hdr.has(kFlagLarge) &&
          hdr.payload_len == pending->hdr.payload_len) {
        // Descriptor retransmit for a pull whose bytes failed CRC: refresh
        // the descriptor (the sender's payload block is only freed on ack,
        // so the address is still live) and retry the pull.
        pending->hdr = hdr;
        pending->pull_failed = false;
        start_rendezvous_pull(hdr.seq, *pending);
        force_ack();
        return;
      }
      if (RxState* pending = rwin_.find(hdr.seq);
          pending &&
          (pending->reads_left > 0 || pending->pull_deferred ||
           pending->pull_failed) &&
          !hdr.has(kFlagLarge) &&
          hdr.payload_len == pending->hdr.payload_len) {
        pending->reads_left = 0;
        pending->pull_deferred = false;
        pending->pull_failed = false;
        if (pending->payload_block.valid()) {
          ctx_.data_cache_.free(pending->payload_block);
          pending->payload_block = MemBlock{};
        }
        if (hdr.payload_len > 0) {
          pending->payload =
              Buffer::copy_of(bytes + hdr.wire_size(), hdr.payload_len);
        }
        rwin_.complete(hdr.seq, [this](Seq s, RxState& r) { deliver(s, r); });
      }
      force_ack();
      return;
    }
    // Ahead of the window: RC delivery makes this a protocol bug.
    ++stats_.bad_messages;
    return;
  }
  rx->hdr = hdr;
  rx->t_arrive = ctx_.engine().now();
  ++stats_.msgs_rx;
  stats_.bytes_rx += hdr.payload_len;

  if (!hdr.has(kFlagLarge)) {
    if (hdr.payload_len > 0) {
      rx->payload = Buffer::copy_of(bytes + hdr.wire_size(), hdr.payload_len);
    }
    rwin_.complete(hdr.seq, [this](Seq s, RxState& r) { deliver(s, r); });
    return;
  }
  ++stats_.large_msgs_rx;
  start_rendezvous_pull(hdr.seq, *rx);
}

void Channel::start_rendezvous_pull(Seq seq, RxState& rx) {
  const std::uint32_t len = rx.hdr.payload_len;
  if (len == 0) {
    rwin_.complete(seq, [this](Seq s, RxState& r) { deliver(s, r); });
    return;
  }
  // No QP to read through (a descriptor delayed past a QP's death, or one
  // landing on the fallback): park the pull. The mem-retry timer retries
  // it once the channel can post; on the fallback the sender's inline
  // replay completes it instead.
  if (!postable()) {
    rx.pull_deferred = true;
    arm_mem_retry();
    return;
  }
  // Receiver-side degradation (§VI): under soft+ memory pressure, or when
  // the data pool is simply exhausted, park the pull and NAK the
  // descriptor instead of failing the channel (the old behavior). The
  // sender's payload stays put — its block is only freed on ack — so the
  // pull resumes losslessly once memory frees up.
  if (ctx_.mem_pressure() != MemPressure::normal) {
    defer_rendezvous_pull(seq, rx);
    return;
  }
  rx.payload_block = ctx_.data_cache_.alloc(len);
  if (!rx.payload_block.valid()) {
    defer_rendezvous_pull(seq, rx);
    return;
  }
  rx.pull_deferred = false;
  issue_pull_frags(seq, rx);
}

void Channel::defer_rendezvous_pull(Seq seq, RxState& rx) {
  if (!rx.pull_deferred) {
    rx.pull_deferred = true;
    ++stats_.pulls_deferred;
    ++stats_.naks_tx;
    record(analysis::RecEvent::overload_pull_defer, 0, seq,
           rx.hdr.payload_len);
    // Windowless NAK carrying the parked seq and a retry-after hint (ns),
    // so the sender reads the stall as flow control, not a dead peer.
    post_control(kFlagNak, seq, static_cast<std::uint64_t>(kMemRetryInterval));
  }
  arm_mem_retry();
}

void Channel::retry_deferred_pulls() {
  // On the fallback the replays arrive inline instead.
  if (mocked() || !postable()) return;
  rwin_.for_each_pending([this](Seq s, RxState& r) {
    if (!r.pull_deferred) return;
    r.pull_deferred = false;
    start_rendezvous_pull(s, r);  // may re-defer (and re-arm the timer)
  });
}

void Channel::arm_mem_retry() {
  if (!mem_retry_timer_->armed()) {
    mem_retry_timer_->arm_after(kMemRetryInterval);
  }
}

void Channel::mem_retry_fire() {
  if (state_ == State::closed || state_ == State::error) return;
  // Deferred pulls first: completing them frees sender-side entries (their
  // acks retire payload blocks), which is what drains the pressure.
  retry_deferred_pulls();
  if (retransmit_pending_ && state_ == State::established) {
    retransmit_pending_ = false;
    retransmit_unacked();  // receiver dedups; re-defers itself on failure
  }
  pump_tx();
  // Anything still parked keeps the cadence.
  bool parked = retransmit_pending_;
  rwin_.for_each_pending(
      [&parked](Seq, RxState& r) { parked |= r.pull_deferred; });
  if (state_ == State::established && !pending_tx_.empty() && !swin_.full()) {
    parked = true;  // pump stopped on memory, not the window
  }
  if (parked) arm_mem_retry();
}

void Channel::issue_pull_frags(Seq seq, RxState& rx) {
  // Fragmented pull (§V-C): moderate-size reads keep the RNIC preemptible;
  // with flow control off this degenerates to one huge WR — the Fig. 10
  // baseline.
  const Config& cfg = ctx_.config();
  const std::uint32_t len = rx.hdr.payload_len;
  const std::uint32_t frag = cfg.flowctl ? cfg.frag_size : len;
  std::uint32_t off = 0;
  std::uint32_t nfrags = 0;
  while (off < len) {
    const std::uint32_t n = std::min(frag, len - off);
    verbs::SendWr wr;
    wr.wr_id = ctx_.register_wr(
        {Context::WrInfo::Kind::read_frag, id_, seq, 0, MemBlock{}, false});
    wr.opcode = verbs::Opcode::read;
    wr.local = {rx.payload_block.addr + off, n, rx.payload_block.lkey};
    wr.remote_addr = rx.hdr.rv_addr + off;
    wr.rkey = rx.hdr.rv_rkey;
    ctx_.submit(*this, &wr, 1);
    off += n;
    ++nfrags;
  }
  rx.reads_left = nfrags;
  stats_.reads_issued += nfrags;
}

void Channel::on_read_frag_done(Seq seq, Errc status) {
  if (status != Errc::ok) {
    handle_transport_fault(status);
    return;
  }
  RxState* rx = rwin_.find(seq);
  if (!rx || rx->reads_left == 0) return;
  if (--rx->reads_left > 0) return;

  const std::uint32_t len = rx->hdr.payload_len;
  if (std::uint8_t* src = ctx_.data_cache_.data(rx->payload_block)) {
    // Post-pull verification (kFeatE2eCrc): the descriptor carried the
    // whole-message payload CRC, so a stale or torn RDMA Read — the source
    // mutated between descriptor and pull — is caught here, before the
    // bytes can reach the application.
    if (crc_on() && rx->hdr.crc_present && rx->hdr.payload_crc != 0 &&
        crc32c(src, len) != rx->hdr.payload_crc) {
      ++stats_.crc_failures_rx;
      ctx_.health().note_crc_failure(peer_);
      record(analysis::RecEvent::crc_fail_rx, rx->hdr.flags, seq, len);
      ctx_.data_cache_.free(rx->payload_block);
      rx->payload_block = MemBlock{};
      rx->pull_failed = true;  // slot waits for a descriptor retransmit
      send_integrity_nak(seq);
      return;
    }
    rx->payload = Buffer::copy_of(src, len);
  } else {
    rx->payload = Buffer::synthetic(len);
  }
  ctx_.data_cache_.free(rx->payload_block);
  rx->payload_block = MemBlock{};
  rwin_.complete(seq, [this](Seq s, RxState& r) { deliver(s, r); });
}

void Channel::deliver(Seq seq, RxState& rx) {
  // Self-adaptive slow-operation logging (§VI-A method III): message
  // assembly (arrival to delivery, i.e. the rendezvous pull) exceeding the
  // threshold is recorded for the monitor to collect.
  const Nanos assembly = ctx_.engine().now() - rx.t_arrive;
  if (assembly > ctx_.config().slow_threshold &&
      Logger::global().wants(LogLevel::warn)) {
    Logger::global().log(
        ctx_.engine().now(), LogLevel::warn, "xr.channel",
        strfmt("slow assembly: seq=%llu took %s (node %u <- %u)",
               static_cast<unsigned long long>(seq),
               format_duration(assembly).c_str(), ctx_.node(), peer_));
  }
  Msg msg;
  msg.payload = std::move(rx.payload);
  msg.seq = seq;
  msg.rpc_id = rx.hdr.rpc_id;
  msg.is_rpc_req = rx.hdr.has(kFlagRpcReq);
  msg.is_rpc_rsp = rx.hdr.has(kFlagRpcRsp);
  msg.traced = rx.hdr.has(kFlagTraced);
  msg.t_send = rx.hdr.t_send;
  msg.t_deliver = ctx_.local_time();
  msg.trace_id = rx.hdr.trace_id;
  if (rx.hdr.budget_us > 0) {
    // Rebase the relative budget onto our clock: whatever the pull/queue
    // time consumed since arrival comes straight off the remaining budget.
    msg.has_deadline = true;
    const Nanos budget =
        static_cast<Nanos>(rx.hdr.budget_us) * kNanosPerMicro;
    const Nanos spent = ctx_.engine().now() - rx.t_arrive;
    msg.deadline_left = budget > spent ? budget - spent : 0;
  }

  if (msg.traced && ctx_.span_sink()) {
    SpanDeliverEvent ev;
    ev.trace_id = msg.trace_id;
    ev.channel_id = id_;
    ev.node = ctx_.node();
    ev.peer = peer_;
    ev.t_send = msg.t_send;
    // rx.t_arrive is engine time; shift by this host's skew so all span
    // stamps are on the same (local) clock.
    ev.t_arrive = rx.t_arrive + (ctx_.local_time() - ctx_.engine().now());
    ev.t_deliver = msg.t_deliver;
    ev.bytes = rx.hdr.payload_len;
    ev.is_rpc_req = msg.is_rpc_req;
    ev.is_rpc_rsp = msg.is_rpc_rsp;
    ctx_.span_sink()->on_span_deliver(ev);
  }

  if (msg.is_rpc_rsp) {
    auto it = calls_.find(msg.rpc_id);
    if (it == calls_.end()) return;  // late response after timeout
    RpcCallback cb = std::move(it->second.cb);
    ctx_.stats().rpc_latency.record(ctx_.engine().now() - it->second.t_start);
    calls_.erase(it);
    cb(std::move(msg));
    return;
  }
  if (on_msg_) on_msg_(*this, std::move(msg));
}

void Channel::force_ack() {
  if (state_ != State::established || link_.ack_inflight) return;
  post_control(kFlagAckOnly);
}

void Channel::maybe_standalone_ack() {
  // Ack after N completions — but never let a small peer window starve:
  // once half the peer's in-flight budget is consumed, flush the ack even
  // if N hasn't been reached (otherwise a one-way stream with a tiny
  // window would only progress at NOP-scan pace).
  const std::uint32_t threshold = std::min(
      ctx_.config().ack_every, std::max<std::uint32_t>(1, swin_.depth() / 2));
  if (rwin_.unacked() >= threshold) force_ack();
}

// ---------------------------------------------------------------------------
// Timers and teardown.

void Channel::deadlock_tick() {
  if (state_ != State::established) return;
  // Progress check (Algorithm 1 TIME_OUT): if we hold unacknowledged
  // deliveries and produced no traffic since the last scan, flush the ack
  // with a NOP so the peer's window can advance.
  const bool idle_since_scan = swin_.next_seq() == last_scan_tx_seq_ &&
                               ctx_.engine().now() - last_tx_ >=
                                   ctx_.config().deadlock_scan_period;
  if (rwin_.unacked() > 0 && idle_since_scan && !link_.nop_inflight &&
      !link_.ack_inflight) {
    post_control(kFlagNop);
  }
  last_scan_tx_seq_ = swin_.next_seq();
}

void Channel::rpc_timeout_scan() {
  if (calls_.empty()) return;
  const Nanos now = ctx_.engine().now();
  std::vector<std::uint64_t> expired;
  for (const auto& [id, pc] : calls_) {
    if (pc.deadline > 0 && now >= pc.deadline) expired.push_back(id);
  }
  for (const std::uint64_t id : expired) {
    auto it = calls_.find(id);
    RpcCallback cb = std::move(it->second.cb);
    calls_.erase(it);
    ++stats_.rpc_timeouts;
    cb(Errc::timed_out);
  }
}

void Channel::keepalive_fire() {
  if (state_ != State::established) return;
  const Config& cfg = ctx_.config();
  const Nanos now = ctx_.engine().now();
  // Silence past this means dead: the fixed keepalive_timeout, or the
  // health plane's φ-accrual bound in adaptive mode.
  const Nanos bound = ctx_.health().silence_bound(peer_);
  const Nanos rearm = std::min(cfg.keepalive_intv, cfg.keepalive_timeout / 2);

  if (mocked()) {
    // Riding the TCP fallback: the RDMA-side last_alive_ is stale by
    // construction, so it must never declare peer_dead here. Proof of
    // life is the stream itself — our own NOPs keep the peer's rx fresh,
    // the peer's NOPs keep ours.
    const Nanos proof = std::max(last_rx_, last_alive_);
    if (now - proof >= cfg.keepalive_intv + bound) {
      // The fallback went silent too: no transport left. Leave the
      // stream first so handle_transport_fault cannot take its
      // running-on-the-fallback shortcut.
      ctx_.health().note_peer_dead(peer_, id_);
      leave_fallback();
      handle_transport_fault(Errc::peer_dead);
      return;
    }
    if (now - last_tx_ >= cfg.keepalive_intv) post_control(kFlagNop);
    keepalive_timer_->arm_after(rearm);
    return;
  }

  if (!link_.qp.valid()) return;
  const Nanos idle = now - std::max(last_tx_, last_rx_);
  if (idle < cfg.keepalive_intv) {
    // Activity since the probe was armed: push the deadline out (lazy
    // re-arm keeps the hot path free of timer churn).
    keepalive_timer_->arm_after(cfg.keepalive_intv - idle);
    return;
  }
  // Silence is judged from the oldest unanswered probe, not from the last
  // completion: after a busy-with-data stretch (data WCs do not refresh
  // last_alive_) the first probe starts the clock — a probe that has been
  // in flight for less than the bound is still a question, not an answer.
  if (link_.keepalive_outstanding &&
      now - std::max(last_alive_, link_.keepalive_posted) >= bound) {
    ctx_.health().note_peer_dead(peer_, id_);
    handle_transport_fault(Errc::peer_dead);
    return;
  }
  // Zero-byte RDMA Write: hardware-acked, costs the peer no CPU and no
  // RDMA-enabled memory (§V-A).
  verbs::SendWr wr;
  wr.wr_id = ctx_.register_wr(
      {Context::WrInfo::Kind::keepalive, id_, 0, 0, MemBlock{}, false});
  wr.opcode = verbs::Opcode::write;
  if (ctx_.ring_doorbell(*this, &wr, 1) == Errc::ok) {
    ++stats_.keepalive_probes;
    if (!link_.keepalive_outstanding) link_.keepalive_posted = now;
    link_.keepalive_outstanding = true;
  } else {
    ctx_.retire(wr.wr_id);
  }
  keepalive_timer_->arm_after(rearm);
}

void Channel::on_keepalive_wc(Errc status) {
  if (status == Errc::ok) {
    link_.keepalive_outstanding = false;
    const Nanos now = ctx_.engine().now();
    if (link_.keepalive_posted > 0) {
      ctx_.health().note_probe_rtt(peer_, now - link_.keepalive_posted);
      link_.keepalive_posted = 0;
    }
    last_alive_ = now;
    ctx_.health().note_proof_of_life(peer_);
    return;
  }
  if (status == Errc::transport_retry_exceeded || status == Errc::timed_out) {
    // The fabric exhausted its hardware retries on a zero-byte write that
    // needs no receiver cooperation: genuine peer silence.
    ctx_.health().note_peer_dead(peer_, id_);
    handle_transport_fault(Errc::peer_dead);
  } else {
    // Flushed along with a dying QP (e.g. a local kill): report the true
    // cause instead of blaming the peer.
    handle_transport_fault(status);
  }
}

void Channel::close() {
  if (state_ != State::established && state_ != State::recovering) return;
  if (state_ == State::recovering) {
    // Nothing to send the FIN on; tear down locally.
    fail(Errc::channel_closed);
    return;
  }
  set_state(State::closing);
  // A closing channel can never deliver responses: complete outstanding
  // RPCs now instead of letting them ride to their timeouts.
  abort_calls(Errc::channel_closed);
  // The FIN posts directly below; chained data still parked in the batch
  // accumulator must ring its doorbell first or the FIN overtakes it in
  // the FIFO send queue and the peer drops the data as post-close.
  ctx_.flush_tx_batch(*this);
  post_control(kFlagFin);
  // FIN deadline: nothing else watches a closing channel (keepalive stands
  // down), so a FIN that dies with its QP — post failure or a lost WC —
  // would otherwise park the channel in `closing` forever. A FIN over the
  // fallback stream completes at once, and a failed one already failed.
  if (state_ == State::closing) {
    recovery_timer_->arm_after(ctx_.config().keepalive_timeout);
  }
}

void Channel::abort_calls(Errc reason) {
  if (calls_.empty()) return;
  auto calls = std::move(calls_);
  calls_.clear();
  stats_.rpc_aborts += calls.size();
  for (auto& [id, pc] : calls) pc.cb(reason);
}

void Channel::finish(State end, Errc cause) {
  if (state_ == State::error || state_ == State::closed) return;
  set_state(end, cause);
  if (end == State::error) {
    ctx_.trigger_dump(analysis::TrigReason::channel_death);
    ++ctx_.stats().channel_errors;
  }
  recovery_timer_->cancel();
  if (cause != Errc::ok) {
    if (mocked()) leave_fallback();
    abort_calls(cause);
  }
  reclaim_windows();
  drop_qp();
  ctx_.channel_closed(*this);
  if (cause != Errc::ok && on_error_) on_error_(*this, cause);
}

// ---------------------------------------------------------------------------
// Recovery (§VI-C).

void Channel::handle_transport_fault(Errc reason) {
  if (state_ == State::recovering) return;  // already on it
  if (mocked() && state_ == State::established) {
    // Running on the fallback: an RDMA-side fault is moot — just shed the
    // dead QP and stay on TCP. The keepalive now watches the stream alone.
    if (link_.qp.valid()) {
      drop_qp();
      keepalive_timer_->arm_after(ctx_.config().keepalive_intv);
    }
    return;
  }
  if (state_ != State::established ||
      ctx_.config().recovery_max_attempts == 0) {
    fail(reason);
    return;
  }
  start_recovery(reason);
}

void Channel::start_recovery(Errc reason) {
  const Config& cfg = ctx_.config();
  set_state(State::recovering, reason);
  recovery_reason_ = reason;
  recovery_started_ = ctx_.engine().now();
  recovery_attempt_ = 0;
  // Flap detection first: a restore-then-fail cycle inside the flap window
  // escalates the peer's hold-down.
  ctx_.health().note_fault(peer_);
  // Budget from the health plane's verdict, not the errc: a peer it already
  // distrusts (suspect or worse — keepalive-declared silence lands here as
  // `dead`) rarely comes back within the reconnect horizon, and each
  // attempt burns the full CM timeout, so the budget is halved. First-strike
  // faults against a healthy peer (retry-exceeded, flush, resets) get it all.
  recovery_budget_ = ctx_.health().recovery_budget(peer_, cfg.recovery_max_attempts);
  record(analysis::RecEvent::recovery_start, static_cast<std::uint16_t>(reason),
         recovery_budget_);
  ++stats_.recoveries_started;
  // Abandon the dead QP: its WCs are already flushed or will never arrive.
  drop_qp();

  if (connector_) {
    schedule_recovery_attempt();  // first attempt fires immediately
  } else {
    // Acceptor: the connector drives the resume handshake. Give it the
    // worst-case active-side horizon, then declare the channel dead.
    const Nanos horizon =
        (ctx_.cm().costs().connect_timeout + 64 * cfg.recovery_backoff) *
        (cfg.recovery_max_attempts + 1);
    recovery_timer_->arm_after(std::max<Nanos>(millis(50), horizon));
  }
}

void Channel::schedule_recovery_attempt() {
  // Drained peers park the ladder instead of burning budget (and CM
  // timeouts) against a node that told us it is leaving.
  if (park_for_drain()) return;
  // Circuit breaker: once the peer is declared dead, only the designated
  // half-open probers keep their ladder; everyone else fails fast onto the
  // fallback instead of burning CM timeouts.
  if (recovery_attempt_ >= recovery_budget_ || !breaker_admits()) {
    escalate_or_fail();
    return;
  }
  // Capped exponential backoff with +/-25% jitter so a fabric event does
  // not produce a synchronized reconnect storm.
  recovery_timer_->arm_after(backoff_with_jitter(
      ctx_.config().recovery_backoff, recovery_attempt_, recovery_rng_));
}

bool Channel::park_for_drain() {
  // The timer re-fires after the window and the ladder resumes where it
  // left off, budget intact.
  const Nanos left = ctx_.health().drain_remaining(peer_);
  if (left <= 0) return false;
  ++stats_.drain_recovery_parks;
  recovery_timer_->arm_after(std::max(left, ctx_.config().recovery_backoff));
  return true;
}

void Channel::recovery_timer_fire() {
  if (state_ == State::closing) {
    // FIN deadline expired: the close was never confirmed. Tear down
    // locally — the peer's end fails on its own silence watchdog.
    fail(Errc::channel_closed);
    return;
  }
  if (state_ == State::recovering && !connector_) {
    // Passive resume deadline expired: the peer never came back.
    fail(recovery_reason_);
    return;
  }
  // Otherwise the next resume attempt, or the background RDMA probe while
  // riding the fallback.
  const bool probe = state_ == State::established && mocked() && connector_;
  if (state_ != State::recovering && !probe) return;
  // Re-check the drain window at fire time too — the DRAIN may have
  // arrived while the backoff timer was armed.
  if (!probe && park_for_drain()) return;
  // Re-check the breaker at fire time, not just at schedule time: when a
  // whole peer dies, every channel declares dead in the same scan and all
  // of them pass the schedule-time gate before any prober has been
  // designated. The first timer to fire claims the half-open slot inside
  // initiate_resume; the rest must fail fast here. A parked probe
  // re-checks on the next probe tick.
  if (!breaker_admits()) {
    if (probe) {
      arm_rdma_probe();
    } else {
      escalate_or_fail();
    }
    return;
  }
  if (!probe) ++recovery_attempt_;
  ++stats_.recovery_attempts;
  record(analysis::RecEvent::recovery_attempt, 0, probe ? 0 : recovery_attempt_);
  resume_inflight_ = true;
  ctx_.initiate_resume(*this);
}

void Channel::resume_attempt_failed(Errc) {
  resume_inflight_ = false;
  if (state_ == State::recovering) {
    schedule_recovery_attempt();
    return;
  }
  if (state_ == State::established) {
    if (mocked()) {
      arm_rdma_probe();
    } else if (!link_.qp.valid()) {
      // The fallback died while this probe was in flight and the probe
      // failed too: no transport left — recover from scratch.
      handle_transport_fault(Errc::connection_reset);
    }
  }
}

void Channel::resume_adopt(verbs::Qp qp, Seq peer_rta) {
  resume_inflight_ = false;
  // Adopt whenever the channel is still alive. The acceptor side routinely
  // lands here established-and-unaware: its QP's death simply hasn't
  // surfaced locally, but the peer's resume REQ is authoritative proof the
  // old pair is dead. (Stale connector-side successes are filtered before
  // this call, in initiate_resume's callback.)
  if (state_ != State::recovering && state_ != State::established) {
    ctx_.qp_cache_.put(qp.release());
    return;
  }
  const bool was_recovering = state_ == State::recovering;
  const bool was_mocked = mocked();
  if (was_mocked) leave_fallback();
  // A peer-initiated resume may replace a QP we still hold (its error just
  // hasn't surfaced here yet): drop ours first.
  drop_qp();
  transport_up(std::move(qp));

  // The resume handshake is authoritative proof of life; if it was a
  // half-open probe, the breaker closes and parked siblings get nudged.
  if (ctx_.health().note_restored(peer_, was_mocked)) {
    ctx_.nudge_peer_probes(peer_, id_);
  }

  // A passive QP swap on a channel that never noticed the fault is not a
  // recovery; only count channels that were actually recovering (or being
  // restored off the fallback).
  if (was_mocked) {
    ++stats_.fallback_restores;
    record(analysis::RecEvent::fallback_restore);
  }
  if (was_recovering || was_mocked) {
    if (const Nanos took = recovery_completed(); took > 0) {
      record(analysis::RecEvent::recovery_resumed, 0, recovery_attempt_,
             static_cast<std::uint64_t>(took));
    }
  }

  // Renegotiated seq state: the peer's REP carried its receive-window RTA.
  // Retire everything it had fully received, replay the rest in order —
  // the receiver window dedups, so delivery stays exactly-once in-order.
  swin_.process_ack(peer_rta, [this](Seq, TxEntry& e) { free_tx_entry(e); });
  restart_pending_pulls();
  retransmit_unacked();
  pump_tx();
}

void Channel::escalate_or_fail() {
  if (ctx_.config().fallback_auto && ctx_.fallback_provider_) {
    ++stats_.fallback_switches;
    record(analysis::RecEvent::fallback_switch, 0, recovery_attempt_);
    fallback_dial_ = ctx_.fallback_provider_(*this, [this](Errc err) {
      // Success lands through attach_stream; only failures (the fallback
      // could not be built either) arrive here still recovering.
      if (state_ == State::recovering && err != Errc::ok) {
        fail(recovery_reason_);
      }
    });
    return;
  }
  fail(recovery_reason_);
}

void Channel::leave_fallback() {
  // Detach before closing: a loss notice the close provokes names a stream
  // this channel no longer holds, so it is ignored.
  if (const std::shared_ptr<AltStream> stream = std::move(stream_)) {
    stream->close();
  }
}

bool Channel::breaker_admits() {
  if (ctx_.health().may_attempt(peer_, id_)) return true;
  ++stats_.breaker_fastfails;
  record(analysis::RecEvent::breaker_fastfail, 0, recovery_attempt_);
  ctx_.health().note_denied(peer_);
  return false;
}

void Channel::arm_rdma_probe() {
  const Config& cfg = ctx_.config();
  if (!cfg.fallback_auto || !connector_) return;
  // Flap suppression: a peer that keeps restore-then-failing sits on the
  // fallback for its (exponentially escalating) hold-down before the next
  // RDMA probe.
  recovery_timer_->arm_after(
      std::max(std::max<Nanos>(millis(1), 16 * cfg.recovery_backoff),
               ctx_.health().probe_holddown(peer_)));
}

void Channel::nudge_probe() {
  // A sibling's half-open probe just re-admitted the peer: probe soon
  // instead of waiting out the long probe timer (unless a flap hold-down
  // says otherwise).
  if (state_ != State::established || !mocked() || !connector_) return;
  if (resume_inflight_) return;
  recovery_timer_->arm_after(std::max(ctx_.config().recovery_backoff,
                                      ctx_.health().probe_holddown(peer_)));
}

void Channel::attach_stream(std::shared_ptr<AltStream> stream) {
  if (state_ == State::closed || state_ == State::error) {
    stream->close();
    return;
  }
  leave_fallback();
  stream_ = std::move(stream);
  if (state_ != State::recovering) return;  // manual switch: nothing to replay
  transport_up(verbs::Qp{});
  record(analysis::RecEvent::fallback_attach);
  recovery_completed();
  // Replay the unacked window inline over the stream; interrupted
  // rendezvous pulls on the peer complete from these replays.
  retransmit_unacked();
  pump_tx();
  arm_rdma_probe();  // keep probing RDMA; migrate back when it heals
}

void Channel::on_stream_lost(const AltStream& stream) {
  if (stream_.get() != &stream) return;
  stream_.reset();
  if (resume_inflight_) return;
  if (state_ == State::established && !link_.qp.valid()) {
    handle_transport_fault(Errc::connection_reset);
  }
}

void Channel::retransmit_unacked() {
  swin_.for_each_inflight([this](Seq, TxEntry& e) { retransmit_entry(e); });
}

void Channel::defer_retransmit() {
  // A replay's staging hit pool exhaustion: park the whole replay and let
  // the mem-retry timer run retransmit_unacked() again — entries that did
  // go out are deduped by the receiver window, so the replay is idempotent.
  ++stats_.tx_mem_deferrals;
  retransmit_pending_ = true;
  arm_mem_retry();
}

void Channel::retransmit_entry(TxEntry& e) {
  ++stats_.recovery_retransmits;
  ctx_.health().note_retransmit(peer_);
  if (!transmit(e, /*first=*/false)) defer_retransmit();
}

void Channel::restart_pending_pulls() {
  if (!postable()) return;
  rwin_.for_each_pending([this](Seq s, RxState& r) {
    if (r.reads_left == 0 || !r.payload_block.valid()) return;
    r.reads_left = 0;
    issue_pull_frags(s, r);
  });
}

Nanos Channel::recovery_completed() {
  ++stats_.recoveries_completed;
  ++ctx_.stats().channels_recovered;
  if (recovery_started_ == 0) return 0;
  const Nanos took = ctx_.engine().now() - recovery_started_;
  ctx_.stats().recovery_latency.record(took);
  recovery_started_ = 0;
  return took;
}

void Channel::drop_qp() {
  // Purged WRs' WCs are ignored once unregistered, and unposted ones never
  // reach the NIC.
  ctx_.purge_channel_wrs(id_);
  keepalive_timer_->cancel();
  for (const MemBlock& block : link_.bounce) ctx_.ctrl_cache_.free(block);
  if (link_.qp.valid()) {
    // Unroute, then RESET + recycle (§IV-E): the next connection skips QP
    // creation entirely.
    ctx_.by_qp_.erase(link_.qp.num());
    ctx_.qp_cache_.put(link_.qp.release());
  }
  link_ = Link{};
}

void Channel::free_tx_entry(TxEntry& e) {
  if (e.wire_block.valid()) ctx_.ctrl_cache_.free(e.wire_block);
  if (e.data_block.valid()) ctx_.data_cache_.free(e.data_block);
  e.wire_block = e.data_block = MemBlock{};
  e.payload = Buffer{};
}

}  // namespace xrdma::core

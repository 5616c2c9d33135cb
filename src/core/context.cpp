#include "core/context.hpp"

#include <algorithm>
#include <cstring>

#include "common/logging.hpp"

namespace xrdma::core {

namespace {
// Ctrl-cache budget, deliberately separate from the data budget
// (Config::memcache_max_mrs): shrinking the data pool to provoke the
// pressure ladder must not also strangle the bounce-buffer / ACK pool the
// control plane lives in.
constexpr std::size_t kCtrlCacheMaxMrs = 4096;
// Both caches shrink once they have seen no alloc/free for this long.
constexpr Nanos kIdleShrink = millis(20);
// Event-mode wakeup cost: epoll wake + context switch.
constexpr Nanos kEventWakeupLatency = nanos(1500);
// A channel's accumulated data-send chain also flushes once it carries this
// many payload bytes (Config::tx_batch_max_wrs caps its WR count).
constexpr std::uint64_t kTxBatchMaxBytes = 16 * 1024;

constexpr std::uint32_t kHandshakeMagic = 0x5852434d;  // "XRCM"
constexpr std::uint32_t kHsResume = 1u << 0;  // re-attach to a live channel
constexpr std::uint32_t kHsVersioned = 1u << 1;  // 44-byte form with the
                                                 // version-range extension

// CM private data (both REQ and REP): window depth negotiation plus the
// connection token (the identity that survives QP replacement) and, for
// resume handshakes, the sender's receive-window RTA so the peer retires
// acked-but-unconfirmed entries before retransmitting the rest.
//
// Rolling-upgrade extension (kHsVersioned): bytes [32, 44) carry the
// sender's supported wire-version range and feature bitmap. Old builds
// emit the legacy 32-byte form and their decoders require only 32 bytes,
// so each side can grow the handshake without breaking the other — the
// same unknown-tail-ignored rule the wire header's TLV area uses.
struct Handshake {
  std::uint32_t depth = 0;
  std::uint32_t flags = 0;
  std::uint64_t token = 0;
  std::uint64_t rta = 0;
  // Versioned extension; decode defaults to the v1-only legacy range.
  std::uint16_t ver_min = 1;
  std::uint16_t ver_max = 1;
  std::uint32_t features = 0;
};

Buffer encode_handshake(const Config& cfg, std::uint32_t flags,
                        std::uint64_t token, std::uint64_t rta) {
  // A node capped at wire version 1 emits the legacy 32-byte form — this
  // is how the mixed-version test matrix stands in for genuinely old
  // builds (proto_version_max=1 IS the old build, byte for byte).
  const bool versioned = cfg.proto_version_max > 1;
  Buffer b = Buffer::make(versioned ? 44 : 32);
  if (versioned) flags |= kHsVersioned;
  const std::uint32_t depth = cfg.window_depth;
  std::memcpy(b.data(), &kHandshakeMagic, 4);
  std::memcpy(b.data() + 4, &depth, 4);
  std::memcpy(b.data() + 8, &flags, 4);
  std::memcpy(b.data() + 16, &token, 8);
  std::memcpy(b.data() + 24, &rta, 8);
  if (versioned) {
    const std::uint32_t vmin = cfg.proto_version_min;
    const std::uint32_t vmax = cfg.proto_version_max;
    // e2e_crc is the online switch over the advertised capability: a node
    // with it off simply does not offer the feature, so new channels
    // negotiate CRC-free (existing channels keep their handshake-time set).
    std::uint32_t features = cfg.proto_features;
    if (!cfg.e2e_crc) features &= ~static_cast<std::uint32_t>(kFeatE2eCrc);
    std::memcpy(b.data() + 32, &vmin, 4);
    std::memcpy(b.data() + 36, &vmax, 4);
    std::memcpy(b.data() + 40, &features, 4);
  }
  return b;
}

std::optional<Handshake> decode_handshake(const Buffer& b) {
  if (b.size() < 32 || !b.data()) return std::nullopt;
  std::uint32_t magic = 0;
  std::memcpy(&magic, b.data(), 4);
  if (magic != kHandshakeMagic) return std::nullopt;
  Handshake hs;
  std::memcpy(&hs.depth, b.data() + 4, 4);
  std::memcpy(&hs.flags, b.data() + 8, 4);
  std::memcpy(&hs.token, b.data() + 16, 8);
  std::memcpy(&hs.rta, b.data() + 24, 8);
  if ((hs.flags & kHsVersioned) != 0 && b.size() >= 44) {
    std::uint32_t vmin = 0, vmax = 0;
    std::memcpy(&vmin, b.data() + 32, 4);
    std::memcpy(&vmax, b.data() + 36, 4);
    std::memcpy(&hs.features, b.data() + 40, 4);
    hs.ver_min = static_cast<std::uint16_t>(vmin);
    hs.ver_max = static_cast<std::uint16_t>(vmax);
  }
  return hs;
}

// The (version, features) in force for a channel: the highest version both
// ranges contain, and the features both ends advertise. An empty
// intersection refuses the connection — the two builds are too far apart
// to talk, and a refused handshake beats a channel that corrupts.
struct Negotiated {
  bool ok = false;
  std::uint16_t version = 1;
  std::uint32_t features = 0;
};

Negotiated negotiate(const Config& cfg, const Handshake& hs) {
  Negotiated n;
  const std::uint16_t lo = std::max(cfg.proto_version_min, hs.ver_min);
  const std::uint16_t hi = std::min(cfg.proto_version_max, hs.ver_max);
  if (lo > hi) return n;  // disjoint ranges
  n.ok = true;
  n.version = hi;
  std::uint32_t local = cfg.proto_features;
  if (!cfg.e2e_crc) local &= ~static_cast<std::uint32_t>(kFeatE2eCrc);
  n.features = local & hs.features;
  // Feature-bit downgrade: the TLV area only exists on wire v2 frames, and
  // the CRC TLV lives inside it.
  if (n.version < 2) {
    n.features &= ~static_cast<std::uint32_t>(kFeatHdrTlv | kFeatE2eCrc);
  }
  return n;
}

// Deterministic per-process context counter: contexts are created in a
// fixed order under the simulation, so trace ids stay reproducible while
// never colliding between contexts (even two contexts on the same node).
std::uint64_t next_context_instance() {
  static std::uint64_t n = 0;
  return ++n;
}
}  // namespace

Context::Context(rnic::Rnic& nic, verbs::cm::CmService& cm, Config config)
    : nic_(nic),
      cm_(cm),
      cfg_(config),
      recorder_(cfg_.recorder_capacity),
      health_(nic.engine(), cfg_),
      pd_(nic),
      send_cq_(pd_.create_cq(cfg_.cq_size)),
      recv_cq_(pd_.create_cq(cfg_.cq_size)),
      ctrl_cache_(nic, MemCacheConfig{.mr_bytes = cfg_.memcache_mr_bytes,
                                      .max_mrs = kCtrlCacheMaxMrs,
                                      .isolation = cfg_.memcache_isolation,
                                      .real_memory = true,
                                      .reserve_bytes = cfg_.memcache_ctrl_reserve}),
      data_cache_(nic, MemCacheConfig{.mr_bytes = cfg_.memcache_mr_bytes,
                                      .max_mrs = cfg_.memcache_max_mrs,
                                      .isolation = cfg_.memcache_isolation,
                                      .real_memory = cfg_.memcache_real_memory}),
      qp_cache_(nic, cfg_.qp_cache_capacity),
      scan_timer_(nic.engine(), cfg_.deadlock_scan_period,
                  [this] { scan_tick(); }),
      event_fd_(nic.engine(), static_cast<int>(nic.node()) * 1000 + 3,
                kEventWakeupLatency),
      event_fd_id_(static_cast<int>(nic.node()) * 1000 + 3) {
  trace_epoch_ = (static_cast<std::uint64_t>(nic.node()) << 56) ^
                 (next_context_instance() << 40);
  recorder_.set_enabled(cfg_.recorder_enabled);
  recorder_.set_sample_mask(cfg_.recorder_sample_mask);
  health_.set_recorder(&recorder_, [this] {
    trigger_dump(analysis::TrigReason::peer_dead);
  });
  ctrl_cache_.set_recorder(&recorder_, /*which=*/0);
  data_cache_.set_recorder(&recorder_, /*which=*/1);
  if (cfg_.use_srq) {
    srq_ = nic_.create_srq(cfg_.srq_size);
    srq_bounce_.reserve(cfg_.srq_size);
    for (std::uint32_t i = 0; i < cfg_.srq_size; ++i) {
      MemBlock block = alloc_bounce();
      if (!block.valid()) break;
      srq_bounce_.push_back(block);
      nic_.post_srq_recv(
          srq_, {.wr_id = i, .sge = {block.addr, block.len, block.lkey}});
    }
  }
  // A QP error reports its true cause: transport_retry_exceeded (a
  // retryable path fault) and peer_dead (keepalive-declared silence) get
  // different recovery budgets, and the application sees what happened.
  nic_.add_qp_error_handler([this](rnic::QpNum qpn, Errc reason) {
    auto it = by_qp_.find(qpn);
    if (it != by_qp_.end()) it->second->handle_transport_fault(reason);
  });
  ctrl_cache_.enable_idle_shrink(kIdleShrink);
  data_cache_.enable_idle_shrink(kIdleShrink);
  scan_timer_.start();
}

Context::~Context() {
  scan_timer_.stop();
  for (const MemBlock& block : srq_bounce_) ctrl_cache_.free(block);
}

Errc Context::set_flag(const std::string& name, std::int64_t value) {
  const Errc rc = core::set_flag(cfg_, name, value);
  recorder_.set_enabled(cfg_.recorder_enabled);
  recorder_.set_sample_mask(cfg_.recorder_sample_mask);
  return rc;
}

MemBlock Context::alloc_bounce() {
  return ctrl_cache_.alloc(
      WireHeader::kBareSize + WireHeader::kTraceSize + cfg_.small_msg_size,
      /*privileged=*/true, BlockWriter::rnic);
}

// ---------------------------------------------------------------------------
// Connection management.

Errc Context::listen(std::uint16_t port, ChannelHandler on_channel) {
  if (listeners_.count(port)) return Errc::already_exists;
  PortListener& entry = listeners_[port];
  entry.on_channel = std::move(on_channel);
  entry.listener = std::make_unique<verbs::cm::Listener>(
      cm_, nic_, port,
      /*make_spec=*/
      [this] {
        verbs::cm::AcceptSpec spec;
        spec.send_cq = send_cq_.id();
        spec.recv_cq = recv_cq_.id();
        spec.caps = qp_caps();
        spec.srq = srq_;
        return spec;
      },
      /*make_private_data=*/
      [this](const Buffer& req) {
        if (auto hs = decode_handshake(req);
            hs && (hs->flags & kHsResume) != 0) {
          if (Channel* ch = channel_by_token(hs->token)) {
            return encode_handshake(cfg_, kHsResume, hs->token,
                                    ch->rx_rta());
          }
        }
        return encode_handshake(cfg_, 0, 0, 0);
      },
      /*on_accept=*/
      [this, port](verbs::cm::Established est) {
        auto hs = decode_handshake(est.private_data);
        if (hs && (hs->flags & kHsResume) != 0) {
          // Peer-driven QP resume: route the fresh QP into the existing
          // channel instead of creating a new one.
          if (Channel* ch = channel_by_token(hs->token)) {
            ch->resume_adopt(std::move(est.qp), hs->rta);
          } else {
            qp_cache_.put(est.qp.release());  // channel is gone: recycle
          }
          return;
        }
        Channel* ch = adopt_established(std::move(est), /*connector=*/false,
                                        port, hs ? hs->token : 0);
        if (ch && draining()) {
          // Late race: the drain began while this accept was in flight
          // (anything later bounces at the CM admission gate). Admit it,
          // announce the drain, and let drain_progress close it cleanly.
          ch->send_drain(cfg_.lifecycle_retry_after);
        }
        auto it = listeners_.find(port);
        if (ch && it != listeners_.end() && it->second.on_channel) {
          it->second.on_channel(*ch);
        }
      });
  entry.listener->set_qp_supplier([this] { return qp_cache_.take(); });
  entry.listener->set_admission_gate([this]() -> std::optional<Errc> {
    if (!draining()) return std::nullopt;
    // Stopped admitting (graceful drain): refuse at the CM so the
    // connector sees would_block now — swallowing the accept here would
    // leave the peer with a half-open channel and a false dead verdict.
    ++stats_.lifecycle_rejects;
    return Errc::would_block;
  });
  return Errc::ok;
}

void Context::connect(net::NodeId node, std::uint16_t port,
                      ConnectCallback cb) {
  if (draining()) {
    // Leaving: no new channels from this node either. Same backpressure
    // surface as the overload plane — would_block, retry after restart.
    ++stats_.lifecycle_rejects;
    engine().schedule_after(0, [cb = std::move(cb)] { cb(Errc::would_block); });
    return;
  }
  // The token is the channel identity that outlives its QP: resume
  // handshakes and the Mock fallback hello both key on it.
  const std::uint64_t token =
      trace_epoch_ ^ (0x9e3779b97f4a7c15ull * ++next_conn_token_);
  dial(node, port, encode_handshake(cfg_, 0, token, 0),
       [this, node, port, token,
        cb = std::move(cb)](Result<verbs::cm::Established> r) {
         recorder_.log(engine().now(), analysis::RecEvent::cm_connect,
                       static_cast<std::uint16_t>(
                           r.ok() ? Errc::ok : r.error()),
                       node);
         if (!r.ok()) {
           cb(r.error());
           return;
         }
         Channel* ch = adopt_established(std::move(r.value()),
                                         /*connector=*/true, port, token);
         if (!ch) {
           // Adoption only refuses on a failed protocol negotiation.
           cb(Errc::connection_refused);
           return;
         }
         cb(ch);
       });
}

void Context::dial(net::NodeId node, std::uint16_t port, Buffer private_data,
                   verbs::cm::ConnectCallback done) {
  verbs::cm::ConnectOptions opts;
  opts.send_cq = send_cq_.id();
  opts.recv_cq = recv_cq_.id();
  opts.caps = qp_caps();
  opts.srq = srq_;
  opts.private_data = std::move(private_data);
  opts.reuse_qp = qp_cache_.take();
  const std::optional<rnic::QpNum> reused = opts.reuse_qp;
  cm_.connect(nic_, node, port, std::move(opts),
              [this, reused,
               done = std::move(done)](Result<verbs::cm::Established> r) {
                if (!r.ok() && reused) qp_cache_.put(*reused);
                done(std::move(r));
              });
}

rnic::QpCaps Context::qp_caps() const {
  rnic::QpCaps caps;
  caps.max_send_wr = cfg_.window_depth + cfg_.max_outstanding_wrs + 32;
  caps.max_recv_wr = 2 * cfg_.window_depth + 8;
  return caps;
}

Channel* Context::adopt_established(verbs::cm::Established est, bool connector,
                                    std::uint16_t port, std::uint64_t token) {
  const auto hs = decode_handshake(est.private_data);
  const std::uint32_t peer_depth = hs ? hs->depth : cfg_.window_depth;
  const std::uint32_t send_depth = std::min(peer_depth, cfg_.window_depth);
  // Protocol negotiation (rolling upgrades): both ends compute the same
  // intersection from REQ/REP, so the outcome is symmetric without a third
  // round trip. No private data reads as a legacy v1 peer.
  const Handshake peer_hs = hs ? *hs : Handshake{};
  const Negotiated neg = negotiate(cfg_, peer_hs);
  recorder_.log(engine().now(), analysis::RecEvent::proto_negotiated,
                neg.ok ? neg.version : 0,
                static_cast<std::uint32_t>(est.peer_node), neg.features,
                static_cast<std::uint64_t>(peer_hs.ver_min) |
                    (static_cast<std::uint64_t>(peer_hs.ver_max) << 16));
  if (!neg.ok) {
    // Disjoint version ranges: refuse (code 0 above names the reason in
    // the ring) instead of establishing a channel that would reject every
    // frame at decode.
    qp_cache_.put(est.qp.release());
    return nullptr;
  }
  // Ids are dense and assigned in creation order: id n is channels_[n - 1].
  const std::uint64_t id = channels_.size() + 1;
  auto ch = std::unique_ptr<Channel>(
      new Channel(*this, est.peer_node, id, send_depth));
  ch->connector_ = connector;
  ch->connect_port_ = port;
  ch->conn_token_ = token;
  ch->proto_version_ = neg.version;
  ch->proto_features_ = neg.features;
  Channel* raw = ch.get();
  channels_.push_back(std::move(ch));
  if (token != 0) by_token_[token] = raw;
  ++stats_.channels_opened;
  health_.register_channel(est.peer_node);
  raw->transport_up(std::move(est.qp));
  return raw;
}

void Context::channel_closed(Channel& ch) {
  if (ch.conn_token_ != 0) by_token_.erase(ch.conn_token_);
  health_.unregister_channel(ch.peer_node(), ch.id());
  ++stats_.channels_closed;
  // The object stays alive (the application may hold a pointer, in-flight
  // callbacks look it up by id); only the routing entries go away.
}

Channel* Context::channel_by_id(std::uint64_t id) {
  return id - 1 < channels_.size() ? channels_[id - 1].get() : nullptr;
}

Channel* Context::channel_by_token(std::uint64_t token) {
  if (token == 0) return nullptr;
  auto it = by_token_.find(token);
  return it == by_token_.end() ? nullptr : it->second;
}

// ---------------------------------------------------------------------------
// Channel recovery plumbing.

void Context::initiate_resume(Channel& ch) {
  const std::uint64_t id = ch.id();
  const net::NodeId peer = ch.peer_node();
  // Single CM choke point for resume traffic: the health plane's breaker
  // accounting (oracle 12) sees every attempt actually issued.
  health_.note_attempt(peer, id);
  dial(peer, ch.connect_port_,
       encode_handshake(cfg_, kHsResume, ch.conn_token_, ch.rx_rta()),
       [this, id, peer](Result<verbs::cm::Established> r) {
         health_.note_attempt_done(peer, id);
         recorder_.log(engine().now(), analysis::RecEvent::cm_resume,
                       static_cast<std::uint16_t>(
                           r.ok() ? Errc::ok : r.error()),
                       peer, id);
         Channel* ch = channel_by_id(id);
         // The channel may have been failed/closed, or may already be
         // running on the fallback, while the handshake was in flight.
         const bool want =
             ch && (ch->state() == Channel::State::recovering ||
                    (ch->state() == Channel::State::established &&
                     ch->mocked()));
         if (!r.ok()) {
           if (want) ch->resume_attempt_failed(r.error());
           return;
         }
         verbs::cm::Established est = std::move(r.value());
         if (!want) {
           qp_cache_.put(est.qp.release());
           return;
         }
         const auto hs = decode_handshake(est.private_data);
         ch->resume_adopt(std::move(est.qp), hs ? hs->rta : 0);
       });
}

void Context::purge_channel_wrs(std::uint64_t channel_id) {
  // Batched WRs never hit the NIC either: drop the accumulator first so
  // the registry sweep below can retire their entries.
  if (Channel* ch = channel_by_id(channel_id)) drop_tx_batch(*ch);
  // Deferred WRs never hit the NIC and hold no credit, so retiring them
  // reposts nothing.
  for (auto it = deferred_wrs_.begin(); it != deferred_wrs_.end();) {
    if (it->channel_id == channel_id) {
      retire(it->wr.wr_id);
      it = deferred_wrs_.erase(it);
    } else {
      ++it;
    }
  }
  // Registered WRs: collect first — a returned credit may repost deferred
  // WRs and mutate wrs_, invalidating iterators.
  std::vector<std::uint64_t> ids;
  for (const auto& [id, info] : wrs_) {
    if (info.channel_id == channel_id) ids.push_back(id);
  }
  for (std::uint64_t id : ids) retire(id);
}

void Context::nudge_peer_probes(net::NodeId peer, std::uint64_t except_id) {
  for (auto& ch : channels_) {
    if (ch->peer_node() != peer || ch->id() == except_id) continue;
    ch->nudge_probe();
  }
}

std::vector<Channel*> Context::channels() {
  std::vector<Channel*> out;
  out.reserve(channels_.size());
  for (auto& ch : channels_) out.push_back(ch.get());
  return out;
}

ChannelStats Context::channel_stats() const {
  ChannelStats sum;
  for (const auto& ch : channels_) sum += ch->stats();
  return sum;
}

// ---------------------------------------------------------------------------
// Work-request registry and flow control.

std::uint64_t Context::register_wr(WrInfo info) {
  const std::uint64_t id = next_wr_++;
  wrs_[id] = std::move(info);
  return id;
}

std::optional<Context::WrInfo> Context::retire(std::uint64_t wr_id) {
  auto it = wrs_.find(wr_id);
  if (it == wrs_.end()) return std::nullopt;
  WrInfo info = std::move(it->second);
  wrs_.erase(it);
  if (info.block.valid()) ctrl_cache_.free(info.block);
  if (info.counted) wr_completed();
  return info;
}

Errc Context::ring_doorbell(Channel& ch, const verbs::SendWr* wrs,
                            std::size_t n) {
  const Errc rc = ch.link_.qp.post_send_batch(wrs, n);
  if (rc == Errc::ok) {
    ++ch.stats_.doorbells;
    ch.stats_.doorbell_wrs += n;
  }
  return rc;
}

Context::Submitted Context::submit(Channel& ch, verbs::SendWr* wrs,
                                   std::size_t n, bool head) {
  Submitted r;
  // Purge guard: entries unregistered since the WR was built (recovery
  // swept the channel) must not reach the NIC — their buffers may be
  // retired.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!wrs_.count(wrs[i].wr_id)) continue;
    if (kept != i) wrs[kept] = std::move(wrs[i]);
    ++kept;
  }
  r.dropped = n - kept;
  n = kept;
  // Queuing (§V-C): no more WRs in flight than the credits allow, and none
  // overtakes a WR already waiting — a channel's frames reach its QP in
  // order.
  std::size_t credits = head || deferred_wrs_.empty() ? n : 0;
  if (cfg_.flowctl) {
    credits = std::min<std::size_t>(
        credits, cfg_.max_outstanding_wrs -
                     std::min(outstanding_wrs_, cfg_.max_outstanding_wrs));
  }
  if (credits > 0) {
    const Errc rc = ring_doorbell(ch, wrs, credits);
    if (rc == Errc::ok) {
      for (std::size_t i = 0; i < credits; ++i) {
        wrs_.find(wrs[i].wr_id)->second.counted = true;
      }
      outstanding_wrs_ += static_cast<std::uint32_t>(credits);
      r.posted = credits;
    } else if (rc != Errc::resource_exhausted) {
      // Dead QP surfacing, invalid WR: nothing of this submission posts.
      for (std::size_t i = 0; i < n; ++i) retire(wrs[i].wr_id);
      r.dropped += n;
      ch.fail(rc);
      return r;
    }
    // A full NIC send queue (incast: the credit came back on another QP)
    // defers the whole submission; the next completion retries it.
  }
  r.deferred = n - r.posted;
  if (head) {
    stats_.requeued_heads += r.deferred;
    for (std::size_t i = n; i-- > r.posted;) {
      deferred_wrs_.push_front({ch.id(), std::move(wrs[i])});
    }
    return r;
  }
  for (std::size_t i = r.posted; i < n; ++i) {
    deferred_wrs_.push_back({ch.id(), std::move(wrs[i])});
  }
  ch.stats_.flowctl_queued += r.deferred;
  return r;
}

void Context::wr_completed() {
  if (outstanding_wrs_ > 0) --outstanding_wrs_;
  while (!deferred_wrs_.empty() &&
         (!cfg_.flowctl || outstanding_wrs_ < cfg_.max_outstanding_wrs)) {
    DeferredWr d = std::move(deferred_wrs_.front());
    deferred_wrs_.pop_front();
    Channel* ch = channel_by_id(d.channel_id);
    if (!ch || !ch->postable()) {
      retire(d.wr.wr_id);
      continue;
    }
    // Still no room on that QP: it went back to the front; stop. Dropping
    // it would wedge a rendezvous pull, and with it the receive window.
    if (submit(*ch, &d.wr, 1, /*head=*/true).deferred > 0) break;
  }
}

// ---------------------------------------------------------------------------
// Doorbell batching (hot-path coalescing, §V).

void Context::accumulate_wr(Channel& ch, verbs::SendWr wr) {
  // A WR whose registry entry is gone was purged while its scheduled post
  // was in flight (recovery): drop it, as submit would.
  if (!wrs_.count(wr.wr_id)) return;
  if (cfg_.tx_batch_max_wrs <= 1) {
    submit(ch, &wr, 1);  // batching off: one doorbell per WR
    return;
  }
  ++stats_.batch_accumulated;
  ++stats_.batch_pending;
  ch.tx_batch_bytes_ += wr.local.length;
  ch.tx_batch_.push_back(std::move(wr));
  if (ch.tx_batch_.size() >= cfg_.tx_batch_max_wrs ||
      ch.tx_batch_bytes_ >= kTxBatchMaxBytes) {
    flush_tx_batch(ch);
    return;
  }
  if (!ch.batch_flush_scheduled_) {
    // Fallback flush at this same timestamp: the engine runs same-time
    // events FIFO, so every WR whose send-path delay lands "now" joins the
    // chain before this fires — one doorbell per channel per tx burst even
    // when the poll-end flush is disabled.
    ch.batch_flush_scheduled_ = true;
    const std::uint64_t chan_id = ch.id();
    engine().schedule_after(0, [this, chan_id] {
      if (Channel* c = channel_by_id(chan_id)) {
        c->batch_flush_scheduled_ = false;
        flush_tx_batch(*c);
      }
    });
  }
}

void Context::flush_tx_batch(Channel& ch) {
  if (ch.tx_batch_.empty()) return;
  std::vector<verbs::SendWr> batch;
  batch.swap(ch.tx_batch_);
  ch.tx_batch_bytes_ = 0;
  stats_.batch_pending -= batch.size();
  const Submitted r = submit(ch, batch.data(), batch.size());
  stats_.batch_posted += r.posted;
  stats_.batch_deferred += r.deferred;
  stats_.batch_dropped += r.dropped;
  std::uint64_t posted_bytes = 0;
  for (std::size_t i = 0; i < r.posted; ++i) {
    posted_bytes += batch[i].local.length;
  }
  recorder_.log(engine().now(), analysis::RecEvent::batch_flush,
                static_cast<std::uint16_t>(r.posted),
                static_cast<std::uint32_t>(ch.id()), posted_bytes,
                (static_cast<std::uint64_t>(r.deferred) << 16) | r.dropped);
}

void Context::drop_tx_batch(Channel& ch) {
  if (ch.tx_batch_.empty()) return;
  stats_.batch_pending -= ch.tx_batch_.size();
  stats_.batch_dropped += ch.tx_batch_.size();
  ch.tx_batch_.clear();
  ch.tx_batch_bytes_ = 0;
}

// ---------------------------------------------------------------------------
// Polling.

int Context::polling(int budget) {
  const Nanos now = engine().now();
  ++stats_.polls;
  if (last_poll_ >= 0) {
    const Nanos gap = now - last_poll_;
    stats_.worst_poll_gap = std::max(stats_.worst_poll_gap, gap);
    if (gap > cfg_.polling_warn_cycle) {
      ++stats_.slow_polls;
      ++stats_.watchdog_trips;
      Logger::global().log(now, LogLevel::warn, "xr.polling",
                           strfmt("slow poll: %s gap on node %u",
                                  format_duration(gap).c_str(), node()));
      recorder_.log(now, analysis::RecEvent::watchdog_trip, 0, 0,
                    static_cast<std::uint64_t>(gap),
                    static_cast<std::uint64_t>(cfg_.polling_warn_cycle));
      trigger_dump(analysis::TrigReason::watchdog);
    }
  }
  last_poll_ = now;

  int processed = 0;
  // Most busy polls find nothing: build the completion array, and call
  // into the NIC, only when a CQ holds a completion.
  if (!send_cq_.empty() || !recv_cq_.empty()) {
    verbs::Wc wcs[32];
    while (processed < budget) {
      const int n = send_cq_.poll(
          wcs, std::min<int>(32, budget - processed));
      if (n <= 0) break;
      for (int i = 0; i < n; ++i) dispatch_send_wc(wcs[i]);
      processed += n;
    }
    while (processed < budget) {
      const int n = recv_cq_.poll(
          wcs, std::min<int>(32, budget - processed));
      if (n <= 0) break;
      for (int i = 0; i < n; ++i) dispatch_recv_wc(wcs[i]);
      processed += n;
    }
  }
  // Poll-end doorbell flush: anything the completion handlers accumulated
  // this iteration rings one chained doorbell per channel instead of
  // waiting for the same-timestamp fallback event.
  if (cfg_.tx_batch_flush_on_poll_end && stats_.batch_pending > 0) {
    for (auto& ch : channels_) {
      if (!ch->tx_batch_.empty()) flush_tx_batch(*ch);
    }
  }
  if (processed == 0) ++stats_.empty_polls;
  stats_.events_processed += static_cast<std::uint64_t>(processed);
  return processed;
}

void Context::dispatch_send_wc(const verbs::Wc& wc) {
  // retire() frees a control message's block, or a data WR's transient
  // egress-corruption copy (the retained wire block is owned by the send
  // window, never here).
  const std::optional<WrInfo> retired = retire(wc.wr_id);
  if (!retired) return;
  const WrInfo& info = *retired;

  if (recorder_.sample(wc.wr_id)) {
    recorder_.log(engine().now(), analysis::RecEvent::wr_sample,
                  static_cast<std::uint16_t>(info.kind),
                  static_cast<std::uint32_t>(info.channel_id), info.seq,
                  static_cast<std::uint64_t>(wc.status));
  }
  Channel* ch = channel_by_id(info.channel_id);
  switch (info.kind) {
    case WrInfo::Kind::data_send:
      if (wc.status != Errc::ok && ch) ch->handle_transport_fault(wc.status);
      break;
    case WrInfo::Kind::ctrl_send:
      if (ch) {
        if (wc.status != Errc::ok) {
          ch->handle_transport_fault(wc.status);
        } else {
          ch->on_send_wc_control(info.flags);
        }
      }
      break;
    case WrInfo::Kind::read_frag:
      if (ch) ch->on_read_frag_done(info.seq, wc.status);
      break;
    case WrInfo::Kind::keepalive:
      if (ch) ch->on_keepalive_wc(wc.status);
      break;
  }
}

void Context::dispatch_recv_wc(const verbs::Wc& wc) {
  // The one receive rule, for shared (SRQ) and per-QP bounce slots alike.
  auto it = by_qp_.find(wc.qp_num);
  Channel* ch = it == by_qp_.end() ? nullptr : it->second;
  const std::vector<MemBlock>* slots =
      cfg_.use_srq ? &srq_bounce_ : ch ? &ch->link_.bounce : nullptr;
  if (!slots || wc.wr_id >= slots->size()) return;
  // By value: handling the frame may drop the QP and its slots.
  const MemBlock block = (*slots)[static_cast<std::size_t>(wc.wr_id)];
  if (ch && wc.status == Errc::ok) {
    // Only a SEND fills a bounce slot. A Write-with-imm that consumed one
    // reports the Write's length, which the peer chooses.
    if (wc.opcode == verbs::WcOpcode::recv && wc.byte_len <= block.len) {
      if (const std::uint8_t* bytes = ctrl_cache_.data(block)) {
        ch->process_wire(bytes, wc.byte_len);
      }
    } else {
      ++ch->stats_.bad_messages;
    }
  }
  const verbs::RecvWr slot{.wr_id = wc.wr_id,
                           .sge = {block.addr, block.len, block.lkey}};
  if (cfg_.use_srq) {
    // Every consumed shared slot goes back, whatever became of its QP: a
    // flushed assembly and an unrouted QP consumed one too.
    nic_.post_srq_recv(srq_, slot);
  } else if (wc.status == Errc::ok && ch->postable() &&
             ch->link_.qp.num() == wc.qp_num) {
    // Re-arm at once (run-to-complete), keeping the receive queue topped
    // up: the other half of RNR-freedom. drop_qp frees the rest.
    ch->link_.qp.post_recv(slot);
  }
}

int Context::process_event() {
  event_fd_.clear();
  return polling();
}

// ---------------------------------------------------------------------------
// Polling loop (thread model, §IV-B).

void Context::start_polling_loop() {
  if (loop_running_) return;
  loop_running_ = true;
  idle_spins_ = 0;
  engine().schedule_after(0, [this] { poll_loop_step(); });
}

void Context::stop_polling_loop() { loop_running_ = false; }

void Context::poll_loop_step() {
  if (!loop_running_) return;
  const int n = polling();
  switch (cfg_.poll_mode) {
    case PollMode::busy:
      engine().schedule_after(cfg_.busy_poll_interval,
                              [this] { poll_loop_step(); });
      return;
    case PollMode::hybrid:
      if (n > 0) {
        idle_spins_ = 0;
      } else if (++idle_spins_ >= cfg_.hybrid_idle_spins) {
        idle_spins_ = 0;
        park();
        return;
      }
      engine().schedule_after(cfg_.busy_poll_interval,
                              [this] { poll_loop_step(); });
      return;
    case PollMode::event:
      if (n > 0) {
        engine().schedule_after(cfg_.busy_poll_interval,
                                [this] { poll_loop_step(); });
      } else {
        park();
      }
      return;
  }
}

void Context::park() {
  ++stats_.parks;
  parked_ = true;
  event_fd_.clear();
  auto wake = [this] { event_fd_.set_ready(); };
  send_cq_.arm(wake);
  recv_cq_.arm(wake);
  event_fd_.wait([this] {
    if (!loop_running_) return;
    parked_ = false;
    ++stats_.wakeups;
    poll_loop_step();
  });
}

// ---------------------------------------------------------------------------
// Housekeeping.

MemPressure Context::mem_pressure() const {
  const std::uint64_t budget = data_cache_.budget_bytes();
  if (budget == 0) return MemPressure::normal;
  const std::uint64_t pct = data_cache_.stats().in_use_bytes * 100 / budget;
  if (cfg_.mem_hard_pct > 0 && pct >= cfg_.mem_hard_pct)
    return MemPressure::hard;
  if (cfg_.mem_soft_pct > 0 && pct >= cfg_.mem_soft_pct)
    return MemPressure::soft;
  return MemPressure::normal;
}

void Context::scan_tick() {
  for (auto& ch : channels_) {
    ch->deadlock_tick();
    ch->rpc_timeout_scan();
    // Channels that refused sends while the pool drained may be writable
    // again without a dequeue on their own queue (ctx-wide cap, pressure
    // cleared elsewhere): sweep the edge here.
    ch->maybe_fire_writable();
  }
  // Refresh per-peer health verdicts (suspect/degraded transitions, flap
  // hold-down decay) at the same cadence as the deadlock scan.
  health_.evaluate(engine().now());
  // Lifecycle plane: the online lifecycle_drain flag (`xr_adm drain`)
  // moves the node active -> draining; clearing it after the drain
  // completed models the restart (back to active, peers reconnect via CM).
  if (cfg_.lifecycle_drain && lifecycle_ == Lifecycle::active) {
    begin_drain();
  } else if (!cfg_.lifecycle_drain && lifecycle_ != Lifecycle::active) {
    recorder_.log(engine().now(), analysis::RecEvent::lifecycle_state,
                  static_cast<std::uint16_t>(Lifecycle::active), 0,
                  static_cast<std::uint64_t>(lifecycle_));
    lifecycle_ = Lifecycle::active;
    drain_started_ = 0;
  }
  if (lifecycle_ == Lifecycle::draining) drain_progress();
  // Periodically reclaim idle memory-cache MRs (§IV-E: "if the resource
  // utilization becomes lower, it will shrink its capacity").
  if (cfg_.memcache_shrink_period > 0 &&
      engine().now() - last_shrink_ >= cfg_.memcache_shrink_period) {
    last_shrink_ = engine().now();
    ctrl_cache_.shrink();
    data_cache_.shrink();
  }
  // Pressure-ladder transitions: count entries, shrink eagerly on the way
  // up (soft's first remedy is giving memory back).
  const MemPressure p = mem_pressure();
  if (p != last_pressure_) {
    if (p == MemPressure::soft) ++stats_.pressure_soft_events;
    if (p == MemPressure::hard) ++stats_.pressure_hard_events;
    recorder_.log(engine().now(), analysis::RecEvent::pressure,
                  static_cast<std::uint16_t>(p), 0,
                  static_cast<std::uint64_t>(last_pressure_));
    if (static_cast<int>(p) > static_cast<int>(last_pressure_)) {
      data_cache_.shrink();
    }
    last_pressure_ = p;
  }
}

const char* to_string(Lifecycle s) {
  switch (s) {
    case Lifecycle::active: return "active";
    case Lifecycle::draining: return "draining";
    case Lifecycle::drained: return "drained";
  }
  return "unknown";
}

void Context::begin_drain() {
  if (lifecycle_ != Lifecycle::active) return;
  recorder_.log(engine().now(), analysis::RecEvent::lifecycle_state,
                static_cast<std::uint16_t>(Lifecycle::draining), 0,
                static_cast<std::uint64_t>(lifecycle_));
  lifecycle_ = Lifecycle::draining;
  drain_started_ = engine().now();
  ++stats_.drains_started;
  // Direct callers (tests, embedding apps) keep the flag in sync so the
  // scan-tick machine doesn't read the still-clear flag as a restart.
  cfg_.lifecycle_drain = true;
  // Announce first: peers that negotiated kFeatDrain grade us `draining`
  // (no suspicion, no breaker trip) and park their retry ladders for the
  // reconnect hint instead of burning recovery budget against us.
  for (auto& ch : channels_) ch->send_drain(cfg_.lifecycle_retry_after);
  drain_progress();
}

void Context::drain_progress() {
  const Nanos now = engine().now();
  const bool force = cfg_.lifecycle_drain_timeout > 0 &&
                     now - drain_started_ >= cfg_.lifecycle_drain_timeout;
  bool busy = false;
  for (auto& ch : channels_) {
    const Channel::State st = ch->state();
    if (st == Channel::State::closed || st == Channel::State::error) continue;
    if (st == Channel::State::established) {
      // Close only once the windows flushed: every send acked, nothing
      // queued, no rendezvous pull mid-assembly — that is the zero-loss
      // half of the drain contract. The timeout force-closes stragglers.
      if (force || ch->quiescent()) ch->close();
    } else if (force && st == Channel::State::recovering) {
      ch->close();  // no transport to flush through: tears down locally
    }
    const Channel::State after = ch->state();
    if (after != Channel::State::closed && after != Channel::State::error) {
      busy = true;  // closing (FIN in flight) or still flushing
    }
  }
  if (busy) return;
  recorder_.log(now, analysis::RecEvent::lifecycle_state,
                static_cast<std::uint16_t>(Lifecycle::drained), 0,
                static_cast<std::uint64_t>(lifecycle_));
  lifecycle_ = Lifecycle::drained;
  ++stats_.drains_completed;
  stats_.drain_latency.record(now - drain_started_);
  Logger::global().log(now, LogLevel::info, "xr.lifecycle",
                       strfmt("node %u drained in %s", node(),
                              format_duration(now - drain_started_).c_str()));
}

void Context::trigger_dump(analysis::TrigReason reason) {
  recorder_.log(engine().now(), analysis::RecEvent::trigger,
                static_cast<std::uint16_t>(reason));
  if (dump_hook_) dump_hook_(*this, analysis::to_string(reason));
}

TraceReport Context::trace_request(const Msg& msg) const {
  TraceReport report;
  report.traced = msg.traced;
  if (!msg.traced) return report;
  report.t_send = msg.t_send;
  report.t_deliver = msg.t_deliver;
  report.clock_offset = clock_offset_estimate_;
  // t_send is on the sender's clock, t_deliver on ours; adding the
  // peer-ahead-of-us offset recovers the true one-way time (§VI-A's
  // T2 - T1 - Toff with Toff = local - peer).
  report.network_latency = msg.t_deliver - msg.t_send + clock_offset_estimate_;
  report.trace_id = msg.trace_id;
  return report;
}

}  // namespace xrdma::core

// X-RDMA configuration (Table III) plus the tuning registry behind
// xrdma_set_flag / XR-adm.
//
// "Online" parameters may change at runtime (set_flag); "offline" ones are
// fixed once a context is created — set_flag refuses them, exactly the
// split the paper draws.
#pragma once

#include <cstdint>
#include <string>

#include "common/status.hpp"
#include "common/time.hpp"

namespace xrdma::core {

enum class PollMode : std::uint8_t { busy, hybrid, event };
enum class QpBufType : std::uint8_t { huge_page, anony_page, malloc_mem };

struct Config {
  // ---- Online (Table III) ----
  Nanos keepalive_intv = millis(10);    // keepalive_intv_ms
  Nanos keepalive_timeout = millis(40); // probes unanswered -> peer dead
  Nanos slow_threshold = micros(100);   // log ops slower than this
  Nanos polling_warn_cycle = millis(1); // gap between polls that trips a warn
  std::uint32_t trace_sample_mask = 0;  // trace msg when (seq & mask) == 0

  // ---- Flight recorder (X-Ray; see README "Flight recorder & triage") ----
  // Always-on control-plane ring. recorder_sample_mask gates the sampled
  // message/WR lifecycle events: record when (seq & mask) == 0. Both are
  // online so a hot node can be quieted or zoomed without restart.
  bool recorder_enabled = true;
  std::uint32_t recorder_sample_mask = 63;
  // Ring capacity in records (rounded up to a power of two). Offline: the
  // ring is sized once at context creation.
  std::uint32_t recorder_capacity = 4096;

  // ---- Channel recovery ----
  // On QP error the channel parks its window and re-establishes a QP
  // through the CM instead of failing; 0 disables recovery (old behavior:
  // any transport fault is fatal).
  std::uint32_t recovery_max_attempts = 4;
  Nanos recovery_backoff = micros(500);  // base reconnect backoff (doubles)
  // After recovery_max_attempts failed reconnects, escalate onto the Mock
  // TCP fallback when a fallback provider is installed.
  bool fallback_auto = true;

  // ---- Peer health plane (all online; see README "Health plane") ----
  // φ-accrual silence bound instead of the fixed keepalive_timeout cliff.
  // Off by default: fixed mode is the drop-in-compatible Table III behavior.
  // The detector's thresholds are HealthMonitor constants (health.hpp/.cpp).
  bool health_adaptive = false;
  // Circuit breaker: once a peer is declared dead, only
  // HealthMonitor::kHalfOpenProbes designated half-open probe channels may
  // issue CM connect attempts; every other channel to the peer skips its
  // retry ladder (fallback/parked).
  bool health_breaker = true;

  // ---- End-to-end integrity plane (online; see README) ----
  // Stamp + verify the CRC32C header TLV on channels where both ends
  // negotiated kFeatE2eCrc. Online: flipping it only affects channels
  // established afterwards (the feature is fixed per channel at handshake).
  bool e2e_crc = true;
  // Integrity-NAK retransmits allowed per message before the channel
  // escalates with Errc::integrity_error (never folded into peer_dead).
  std::uint32_t integrity_retry_max = 3;

  // ---- Lifecycle plane (graceful drain; see README "Lifecycle") ----
  // lifecycle_drain is the online trigger behind `xr_adm drain`: setting it
  // nonzero moves the context active -> draining (observed in scan_tick);
  // clearing it on a drained context models the post-restart return to
  // active. The drain announces itself to every feature-capable peer, stops
  // admitting new channels/sends (would_block + retry-after hint), flushes
  // in-flight windows and rendezvous pulls, then closes cleanly.
  bool lifecycle_drain = false;
  // Hard deadline: channels still busy past this are force-closed so a
  // wedged peer cannot park the restart forever.
  Nanos lifecycle_drain_timeout = millis(500);
  // Retry-after hint carried by the DRAIN announcement and handed to local
  // callers rejected with would_block — roughly restart + reconnect time.
  Nanos lifecycle_retry_after = millis(200);

  // ---- Protocol negotiation (rolling upgrades) ----
  // Supported wire-version range and feature bitmap advertised in the CM
  // handshake. Offline: a binary's protocol support cannot change at
  // runtime. The channel's effective version is min(max, peer_max) and its
  // features the bitwise AND — checked against max(min, peer_min) so
  // disjoint ranges refuse cleanly at establishment. proto_version_max = 1
  // emits the legacy 32-byte handshake, faithfully modeling an old binary.
  std::uint16_t proto_version_min = 1;
  std::uint16_t proto_version_max = 2;
  std::uint32_t proto_features = 7;  // kFeatDrain | kFeatHdrTlv | kFeatE2eCrc

  // ---- Offline (Table III) ----
  bool use_srq = false;
  std::uint32_t cq_size = 8192;
  std::uint32_t srq_size = 4096;
  bool fork_safe = false;               // kept for fidelity; no-op in sim
  QpBufType ibqp_alloc_type = QpBufType::anony_page;
  std::uint32_t small_msg_size = 4096;  // below: eager RDMA Send (§IV-C)

  // ---- Protocol extensions ----
  std::uint32_t window_depth = 64;      // in-flight messages per channel
  std::uint32_t ack_every = 8;          // standalone ACK after N unacked
  Nanos deadlock_scan_period = millis(1);
  bool reqrsp_mode = false;             // bare-data vs req-rsp (tracing hdr)

  // ---- Flow control (§V-C) ----
  bool flowctl = true;
  std::uint32_t frag_size = 64 * 1024;      // rendezvous read fragment
  std::uint32_t max_outstanding_wrs = 16;   // queuing threshold N (per ctx)

  // ---- Batched hot path (doorbell coalescing + inline sends) ----
  // Data-send WRs accumulate per channel and flush as one chained post
  // (one doorbell) when the chain hits this many WRs or 16 KiB
  // (kTxBatchMaxBytes, context.cpp), and always before the current engine
  // tick ends. 0 or 1 posts immediately (batching off).
  std::uint32_t tx_batch_max_wrs = 8;
  // Also flush any accumulated chains at the end of every polling() pass,
  // so a batch never waits on further tx activity.
  bool tx_batch_flush_on_poll_end = true;
  // Eager payloads up to this many bytes skip the MemCache staging copy
  // and ride in the WQE (IBV_SEND_INLINE), skipping the tx DMA stage too.
  // 0 disables inline sends.
  std::uint32_t inline_max = 256;

  // ---- Overload control (§VI graceful degradation) ----
  // Bounded tx queue: past either cap, send/call return Errc::would_block
  // until the queue drains to 50% of the cap (kWritablePct, channel.cpp)
  // and on_writable fires. 0 = unbounded (legacy behavior).
  std::uint32_t tx_queue_max_msgs = 0;      // per-channel pending_tx_ cap
  std::uint64_t tx_queue_max_bytes = 0;     // per-channel payload-bytes cap
  std::uint64_t ctx_tx_max_bytes = 0;       // aggregate cap across channels
  // Memory-pressure ladder over the data cache (% of its budget in use).
  // 0 disables a rung. soft: shed new rendezvous pulls + shrink; hard:
  // shed all new data work, control plane only. Deferred work retries every
  // kMemRetryInterval (100 µs, channel.cpp).
  std::uint32_t mem_soft_pct = 0;
  std::uint32_t mem_hard_pct = 0;

  // ---- Resource management ----
  std::uint64_t memcache_mr_bytes = 4u << 20;
  bool memcache_isolation = true;
  bool memcache_real_memory = true;
  Nanos memcache_shrink_period = millis(50);  // reclaim idle MRs (0 = never)
  std::size_t memcache_max_mrs = 4096;        // data-cache budget (offline)
  std::uint64_t memcache_ctrl_reserve = 64 * 1024;  // control-plane quota
  std::size_t qp_cache_capacity = 256;

  // ---- Thread model ----
  PollMode poll_mode = PollMode::hybrid;
  Nanos busy_poll_interval = nanos(100);
  std::uint32_t hybrid_idle_spins = 1000;   // busy polls before parking
};

/// Dynamic-tuning surface: string-keyed access to the Table III keys.
/// set_flag changes an online key (a nonzero value sets a bool; `_ms` and
/// `_us` keys scale into Nanos). It returns not_found for an unknown key,
/// and invalid_argument for an offline key or for a value that is negative,
/// overflows its unit scaling or does not fit the field; Config is then
/// left unchanged. get_flag reads either kind.
Errc set_flag(Config& config, const std::string& name, std::int64_t value);
Result<std::int64_t> get_flag(const Config& config, const std::string& name);

}  // namespace xrdma::core

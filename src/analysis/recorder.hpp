// X-Ray flight recorder (§VI): a per-context, fixed-size binary ring of
// control-plane events that is always on. Every channel state transition,
// recovery-ladder step, health grade change, breaker/hold-down event,
// overload decision, CM handshake outcome and a sampled slice of the
// message/WR lifecycle lands here as one 32-byte timestamped record.
//
// Contexts are single-threaded run-to-completion event loops, so the ring
// is lock-free by construction: a plain array and a monotonically rising
// head counter, no atomics, no allocation after construction. Appending is
// one predictable branch plus six stores — cheap enough to leave enabled
// in production, which is the whole point: when a channel dies or a peer
// is declared dead, the last few thousand decisions that led there are
// already in memory, waiting to be flushed. The array is never zero-filled:
// a slot is read only after a record was written into it, so each page is
// first touched by the first record that lands there, not when the context
// is built.
//
// On a trigger (channel death, peer dead, oracle failure, watchdog trip,
// xr_adm dump) the ring plus a metrics snapshot is encoded into a
// self-describing `.xrd` dump: the file carries its own event-name table,
// so tools/xr_triage can decode dumps from builds with a different event
// enum. Records carry only simulated time and deterministic payloads, so
// same-seed replays produce bit-identical dumps — X-Check locks this in.
//
// This header is deliberately self-contained (no core/ includes): core
// headers include it to embed the recorder without cycles.
#pragma once

#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/time.hpp"

namespace xrdma::core {
class Context;
}

namespace xrdma::analysis {

/// Event vocabulary. Stable small integers: they are written into dumps
/// (alongside a name table, so decoding survives renumbering, but keeping
/// them append-only keeps old dumps trivially comparable).
enum class RecEvent : std::uint16_t {
  none = 0,
  // Channel lifecycle. code=new state, a=old state, b=errc cause.
  chan_state = 1,
  // Recovery ladder. code varies: attempt number / errc.
  recovery_start = 2,      // code=errc fault, a=recovery budget
  recovery_attempt = 3,    // code=attempt number
  recovery_resumed = 4,    // code=attempt number, a=recovery latency ns
  fallback_switch = 5,     // ladder exhausted, going to TCP
  fallback_attach = 6,     // TCP mock attached
  fallback_restore = 7,    // back on RDMA
  breaker_fastfail = 8,    // attempt swallowed by an open breaker
  // Health plane. chan field carries the peer id.
  health_grade = 9,        // code=new PeerState, a=old PeerState
  peer_dead = 10,          // code=reporting channel id
  breaker_open = 11,
  breaker_close = 12,
  flap = 13,               // a=flap count
  holddown = 14,           // code=new level, a=hold-down nanos
  cm_connect = 15,         // code=errc, chan=peer
  cm_resume = 16,          // code=errc, chan=peer
  // Overload plane.
  overload_shed = 17,      // hard pressure: message refused at enqueue
  overload_would_block = 18,  // bounded tx queue at cap
  overload_nak_tx = 19,    // receiver memory NAK sent, a=seq
  overload_pull_defer = 20,   // rendezvous pull deferred, a=seq
  overload_mem_defer = 21,    // sender tx deferred on alloc failure
  pressure = 22,           // code=new MemPressure, a=old
  // Context plane.
  watchdog_trip = 23,      // poll-gap watchdog: a=gap ns, b=threshold ns
  msg_tx_sample = 24,      // sampled send path, a=seq, b=bytes
  wr_sample = 25,          // sampled WR completion, code=WrInfo kind, a=seq
  // Memory cache. code distinguishes ctrl(0)/data(1) caches.
  mem_grow = 26,           // a=occupied bytes after
  mem_shrink = 27,         // a=occupied bytes after
  mem_denial = 28,         // reserve denial, a=requested len
  // Dump bookkeeping.
  trigger = 29,            // dump trigger fired; code=TrigReason
  // Lifecycle plane (graceful drain + protocol negotiation).
  lifecycle_state = 30,    // code=new Lifecycle, a=old Lifecycle
  drain_rx = 31,           // peer announced drain; chan=peer, a=retry-after ns
  hdr_version_reject = 32, // decode refused a version; code=HdrDecode, a=len
  proto_negotiated = 33,   // code=effective version, a=features, b=peer range
  batch_flush = 34,        // chained doorbell; code=WRs posted, a=bytes,
                           // b=(deferred<<16)|dropped for that flush
  // End-to-end integrity plane (e2e_crc).
  crc_fail_rx = 35,        // frame dropped on CRC mismatch; seq, a=payload_len
  integrity_nak_tx = 36,   // receiver NAK'd a corrupted frame; seq
  integrity_nak_rx = 37,   // sender received an integrity NAK; seq
  integrity_retransmit = 38,  // window entry re-sent on integrity NAK; seq,
                              // code=retry count for the NAK'd entry
  integrity_exhausted = 39,   // retry budget spent; seq, code=budget
  corruption_storm = 40,   // storm detector graded a peer; chan=peer,
                           // a=CRC failures in the scan
};

/// Why a dump was cut. Written as Rec::code of the `trigger` record and as
/// the dump's reason string.
enum class TrigReason : std::uint16_t {
  manual = 0,          // xr_adm dump / explicit API call
  channel_death = 1,   // a channel reached terminal error
  peer_dead = 2,       // health plane declared a peer dead
  oracle_failure = 3,  // X-Check invariant violated
  watchdog = 4,        // poll-gap watchdog tripped
};

const char* to_string(RecEvent e);
const char* to_string(TrigReason r);

/// One record: 32 bytes, no padding, no pointers, no wall-clock time.
struct Rec {
  Nanos t = 0;             // simulated time of the event
  std::uint16_t type = 0;  // RecEvent
  std::uint16_t code = 0;  // event-specific discriminator
  std::uint32_t chan = 0;  // channel id or peer id, event-specific
  std::uint64_t a = 0;     // event-specific payloads
  std::uint64_t b = 0;
};
static_assert(sizeof(Rec) == 32, "Rec must stay a packed 32-byte record");

class FlightRecorder {
 public:
  /// Capacity is rounded up to a power of two so the ring index is a mask.
  explicit FlightRecorder(std::uint32_t capacity = 4096);

  /// The hot-path append. One branch when disabled; overwrites the oldest
  /// record once the ring is full. Safe to call from inside a dump hook
  /// (a dump reads a copy, never the live ring storage).
  void log(Nanos t, RecEvent type, std::uint16_t code = 0,
           std::uint32_t chan = 0, std::uint64_t a = 0, std::uint64_t b = 0) {
    if (!enabled_) return;
    Rec& r = ring_[static_cast<std::size_t>(head_) & mask_];
    r.t = t;
    r.type = static_cast<std::uint16_t>(type);
    r.code = code;
    r.chan = chan;
    r.a = a;
    r.b = b;
    ++head_;
  }

  /// Sampling gate for per-message lifecycle events: true for one in
  /// (mask+1) ids. Disabled recorder samples nothing.
  bool sample(std::uint64_t id) const {
    return enabled_ && (id & sample_mask_) == 0;
  }

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  /// mask must be 2^k - 1; e.g. 63 samples one message in 64.
  void set_sample_mask(std::uint32_t mask) { sample_mask_ = mask; }
  std::uint32_t sample_mask() const { return sample_mask_; }

  std::uint32_t capacity() const {
    return static_cast<std::uint32_t>(mask_ + 1);
  }
  /// Total records ever appended (wrap-aware callers compare with size()).
  std::uint64_t appended() const { return head_; }
  /// Records currently held (== capacity once wrapped).
  std::size_t size() const;
  /// Copy of the live ring, oldest record first.
  std::vector<Rec> records() const;
  void clear() { head_ = 0; }

 private:
  struct FreeRing {
    void operator()(Rec* ring) const { ::operator delete(ring); }
  };
  std::size_t mask_;
  // Raw storage: every slot that records() reads was written by log().
  std::unique_ptr<Rec[], FreeRing> ring_;
  std::uint64_t head_ = 0;
  std::uint32_t sample_mask_ = 63;
  bool enabled_ = true;
};

/// A decoded (or to-be-encoded) dump: what the node knew when the trigger
/// fired. `metrics` is the scalar snapshot of the context's registry.
struct Dump {
  std::uint32_t version = 1;
  std::uint32_t node = 0;
  Nanos dumped_at = 0;
  std::string reason;
  std::vector<Rec> records;
  std::vector<std::pair<std::string, double>> metrics;
  /// Event-name table carried by the file; keyed by raw RecEvent value.
  std::vector<std::pair<std::uint16_t, std::string>> event_names;

  /// Name for a record's type: from the file's table when present (so
  /// foreign dumps stay readable), else this build's enum.
  std::string event_name(std::uint16_t type) const;
};

/// Self-describing binary encoding ("XRD1"). Deterministic: equal Dumps
/// encode to equal bytes.
std::vector<std::uint8_t> encode_xrd(const Dump& dump);
bool decode_xrd(const std::uint8_t* data, std::size_t len, Dump& out);

bool write_xrd_file(const std::string& path, const Dump& dump);
bool decode_xrd_file(const std::string& path, Dump& out);

/// Cut a dump from a live context: ring contents plus the scalar metrics
/// snapshot of its ContextMetrics registry, stamped with sim time.
Dump snapshot_dump(core::Context& ctx, const std::string& reason);

}  // namespace xrdma::analysis

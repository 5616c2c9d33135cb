// MemCache: per-context pool of RDMA-enabled memory (§IV-E).
//
// Manages identical 4 MB MRs (LITE showed many small MRs degrade the NIC;
// the paper registers 4 MB regions). Grows by registering a new MR when
// capacity runs out, shrinks by deregistering MRs that fall idle. Optional
// isolation mode surrounds every host-written allocation with canary guard
// bands so out-of-bounds writes are detected at free time (§VI-C: raw RDMA
// gives the developer nothing here).
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <vector>

#include "analysis/recorder.hpp"
#include "rnic/rnic.hpp"
#include "sim/timer.hpp"

namespace xrdma::core {

struct MemBlock {
  std::uint64_t addr = 0;  // usable range start (past the front guard)
  std::uint32_t len = 0;
  std::uint32_t lkey = 0;
  std::uint32_t rkey = 0;
  /// Canaries were written around the block (isolation mode, host-written
  /// block), so free() checks them. Fits in the struct's tail padding.
  bool guarded = false;
  bool valid() const { return len != 0; }
};
static_assert(sizeof(MemBlock) == 24, "MemBlock must stay 24 bytes");

/// Who writes a block's bytes. Host-written blocks get canary guard bands.
/// An RNIC-only block (a posted receive buffer) keeps the same padded
/// footprint, but its guard bytes are neither written nor checked: the host
/// never writes it, and the RNIC bounds every write by the posted SGE, so an
/// overrun into a neighbour is prevented rather than detected. Leaving the
/// guard bytes unwritten leaves its pages untouched until a message lands.
enum class BlockWriter : std::uint8_t { host, rnic };

struct MemCacheConfig {
  std::uint64_t mr_bytes = 4u << 20;  // each registration (paper: 4 MB)
  std::size_t min_mrs = 1;            // never shrink below this
  std::size_t max_mrs = 4096;
  bool isolation = true;              // guard bands + canaries
  std::uint32_t guard_bytes = 64;
  bool real_memory = true;  // synthetic MRs for content-free benches
  /// Headroom (bytes of the max_mrs*mr_bytes budget) only privileged
  /// allocations may dip into. Keeps the control plane (ACK/NOP/keepalive/
  /// FIN) live when data traffic has exhausted the pool. 0 disables.
  std::uint64_t reserve_bytes = 0;
};

/// Occupancy ladder for graceful degradation (§VI): `soft` sheds new
/// rendezvous pulls and triggers shrink, `hard` sheds all new data work and
/// keeps only the control plane.
enum class MemPressure { normal = 0, soft = 1, hard = 2 };

struct MemCacheStats {
  std::uint64_t occupied_bytes = 0;  // registered capacity
  std::uint64_t in_use_bytes = 0;    // currently allocated
  std::uint64_t alloc_calls = 0;
  std::uint64_t free_calls = 0;
  std::uint64_t grow_events = 0;
  std::uint64_t shrink_events = 0;
  std::uint64_t guard_violations = 0;
  std::uint64_t bad_frees = 0;  // frees of ranges not allocated; ignored
  std::uint64_t failed_allocs = 0;
  std::uint64_t reserve_denials = 0;         // non-privileged hit the reserve
  std::uint64_t privileged_alloc_fails = 0;  // control plane truly starved
  std::uint64_t idle_shrink_fires = 0;
};

class MemCache {
 public:
  MemCache(rnic::Rnic& nic, MemCacheConfig config = {});
  ~MemCache();
  MemCache(const MemCache&) = delete;
  MemCache& operator=(const MemCache&) = delete;

  /// Allocate `len` usable bytes of registered memory. Grows the pool if
  /// needed; returns an invalid block when the MR cap is reached or the
  /// request exceeds one MR's usable size. When a reserve is configured,
  /// only `privileged` (control-plane) allocations may use the last
  /// `reserve_bytes` of the budget.
  MemBlock alloc(std::uint32_t len, bool privileged = false,
                 BlockWriter writer = BlockWriter::host);

  /// Return a block. A guarded block's canaries are verified first; a
  /// violation is counted and reported via the violation handler (how the
  /// analysis framework surfaces memory-corruption bugs). A free of a range
  /// that is not allocated (a double free) changes nothing and counts as a
  /// bad free.
  void free(const MemBlock& block);

  /// Direct host pointer into a block (nullptr in synthetic mode).
  std::uint8_t* data(const MemBlock& block, std::uint32_t offset = 0);

  /// Deregister MRs that are completely free, down to min_mrs.
  void shrink();

  /// Shrink automatically once the cache has seen no alloc/free activity
  /// for `idle` (paper §IV-E: idle MRs are deregistered). Each alloc/free
  /// pushes the deadline back; the timer fires at most once per idle spell.
  void enable_idle_shrink(Nanos idle);

  /// Total capacity this cache may ever register.
  std::uint64_t budget_bytes() const { return cfg_.max_mrs * cfg_.mr_bytes; }

  const MemCacheStats& stats() const { return stats_; }
  std::size_t num_mrs() const { return mrs_.size(); }

  void set_violation_handler(std::function<void(const MemBlock&)> h) {
    on_violation_ = std::move(h);
  }

  /// Flight-recorder tap. `which` tags the pool in the event stream
  /// (0 = control, 1 = data).
  void set_recorder(analysis::FlightRecorder* recorder, std::uint16_t which) {
    recorder_ = recorder;
    which_ = which;
  }

 private:
  struct Region {
    rnic::MrInfo info;
    // Free ranges as offset -> length, coalesced.
    std::map<std::uint64_t, std::uint64_t> free_ranges;
    std::uint64_t used = 0;
  };

  Region* grow();
  void note_activity();
  void write_guards(Region& region, std::uint64_t offset, std::uint32_t len);
  bool check_guards(Region& region, std::uint64_t offset, std::uint32_t len);
  std::uint32_t padded(std::uint32_t len) const {
    return cfg_.isolation ? len + 2 * cfg_.guard_bytes : len;
  }

  rnic::Rnic& nic_;
  MemCacheConfig cfg_;
  std::list<Region> mrs_;
  MemCacheStats stats_;
  std::function<void(const MemBlock&)> on_violation_;
  std::unique_ptr<sim::DeadlineTimer> idle_timer_;
  Nanos idle_delay_ = 0;
  analysis::FlightRecorder* recorder_ = nullptr;
  std::uint16_t which_ = 0;
};

}  // namespace xrdma::core

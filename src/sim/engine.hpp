// Deterministic discrete-event engine.
//
// All substrates (fabric, RNIC model, TCP model) and all middleware timing
// run on this single-threaded engine. Events at equal timestamps fire in
// schedule order (a monotone sequence number breaks ties), so a given seed
// always produces bit-identical results — the property every experiment in
// EXPERIMENTS.md relies on.
//
// Event nodes come from an engine-owned slab with an intrusive free list.
// The slab grows by whole chunks of kChunkNodes, so how often it allocates
// does not depend on sizeof(Node). Callbacks are InlineCallbacks: every
// capture lives inside the node, so scheduling allocates nothing once the
// slab has grown to the run's peak depth. A capture over
// InlineCallback::kInlineBytes (128 B) is a compile error; box it
// explicitly (capture a unique_ptr/shared_ptr to the state).
//
// Two-level queue. Nearly every event lands within a few microseconds:
// busy polls at 100 ns, link hops and RNIC overheads at 250-650 ns, a
// 4 KiB frame's 1.3 us. Only timers (keepalive, MemCache, RNIC
// retransmit) are scheduled further out, and nearly all of those are
// cancelled before they fire.
//  - The timing wheel holds every event due before now() + kHorizon. It
//    has one slot per nanosecond, indexed by `at & (kHorizon - 1)`; each
//    slot is an intrusive, circular, doubly linked FIFO of nodes. A
//    64-word occupancy bitmap plus one summary word finds the next
//    occupied slot with two count-trailing-zeros. 12 bits is the largest
//    wheel one summary word covers; 10 bits measured no better and sends
//    a 4 KiB frame's serialization plus a hop to the heap. The wheel costs
//    32 KiB of slot heads and 520 B of bitmap per engine.
//  - A binary heap of small {at, seq, node, gen} entries holds the rest.
//
// Ordering argument. Whenever now() advances (in the fire path and at the
// end of run_until), every heap entry with at < now() + kHorizon moves
// into the wheel, in (at, seq) order, before any callback at the new
// instant runs. Hence:
//  - Every wheel event lies in [now(), now() + kHorizon), so one slot
//    holds one instant and the first occupied slot at or after now()'s
//    (wrapping) is the earliest event in the wheel.
//  - Every live heap entry lies at or beyond now() + kHorizon, so the
//    wheel, when non-empty, always holds the next event.
//  - An event for instant T goes to the heap only while now() <= T -
//    kHorizon, and straight into the wheel only once now() > T - kHorizon.
//    Time is monotone, so every heap-scheduled event for T has a lower seq
//    than every direct insert for T, and it has joined T's slot before the
//    first direct insert can. Each slot's FIFO is therefore in seq order,
//    and events fire in exactly (at, seq) order.
//
// Cancellation frees the node at once and bumps its generation, so every
// EventId to it reads as not armed. A wheel node is unlinked in O(1) and
// leaves nothing behind. A heap node leaves a stale entry; once stale
// entries outnumber live events by more than kCompactSlack, one pass drops
// them all and re-heapifies, so queued_entries() never exceeds
// 2 * pending() + kCompactSlack and the cost stays amortised O(1) per
// cancel. Pop order depends only on the unique (at, seq) keys, never on
// the heap's layout, so compaction cannot change which event fires next.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/time.hpp"
#include "sim/inline_callback.hpp"

namespace xrdma::sim {

class Engine {
 public:
  using Callback = InlineCallback;
  /// Stale heap entries tolerated beyond the live count before compaction.
  static constexpr std::size_t kCompactSlack = 64;
  /// log2 of the timing wheel's span in ns: 64 bitmap words of 64 slots.
  static constexpr unsigned kWheelBits = 12;
  /// Events due before now() + kHorizon live in the wheel, the rest in the
  /// heap.
  static constexpr Nanos kHorizon = Nanos{1} << kWheelBits;

 private:
  struct Node {
    Callback cb;
    std::uint64_t gen = 0;  // bumped when its event fires or is cancelled
    Nanos at = 0;
    Node* next = nullptr;  // wheel slot FIFO, or the free list
    Node* prev = nullptr;  // wheel slot FIFO
    bool in_wheel = false;
  };

 public:
  /// Handle for cancellation. Default-constructed handles are inert.
  ///
  /// An EventId must not outlive the Engine that issued it: it points into
  /// the engine's node slab. (The timers already require this, since their
  /// destructors call Engine::cancel.) A node is reused once its event
  /// fires or is cancelled; the generation check makes every older handle
  /// to it read as not armed.
  class EventId {
   public:
    EventId() = default;
    bool armed() const { return node_ && node_->gen == gen_; }

   private:
    friend class Engine;
    EventId(Node* n, std::uint64_t gen) : node_(n), gen_(gen) {}
    Node* node_ = nullptr;
    std::uint64_t gen_ = 0;
  };

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Nanos now() const { return now_; }

  /// An empty `cb` schedules nothing and returns an inert EventId.
  EventId schedule_at(Nanos at, Callback cb);
  EventId schedule_after(Nanos delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Returns true if the event existed and had not fired.
  bool cancel(EventId& id);

  /// Run until the event queue drains (or stop() is called).
  void run();
  /// Run all events with timestamp <= t, then set now() = t.
  void run_until(Nanos t);
  void run_for(Nanos d) { run_until(now_ + d); }
  /// Fire the single next event; returns false if queue empty.
  bool step();
  /// Stop the current run()/run_until() after the in-flight callback.
  void stop() { stopped_ = true; }

  std::size_t pending() const { return live_; }
  /// Heap entries, live or stale (wheel nodes are not counted); at most
  /// 2 * pending() + kCompactSlack.
  std::size_t queued_entries() const { return heap_.size(); }
  std::uint64_t events_processed() const { return processed_; }

  /// Conformance-harness hook (X-Check): invoked after every fired event,
  /// i.e. at the quiescent points between callbacks where cross-component
  /// invariants must hold. The hook may inspect any simulation state but
  /// must not schedule or cancel events. Pass nullptr to disable.
  void set_post_event_hook(Callback hook) { post_hook_ = std::move(hook); }

 private:
  static constexpr std::size_t kSlots = std::size_t{1} << kWheelBits;
  static constexpr std::size_t kWords = kSlots / 64;
  static_assert(kWords <= 64, "one summary word covers the whole bitmap");
  /// Marks an event found by peek() in the heap rather than a wheel slot.
  static constexpr std::size_t kHeapTop = kSlots;
  /// Event nodes the slab adds each time the free list runs dry.
  static constexpr std::size_t kChunkNodes = 64;

  struct Entry {
    Nanos at;
    std::uint64_t seq;
    Node* node;
    std::uint64_t gen;  // stale once node->gen moves on
  };
  static_assert(sizeof(Entry) == 32, "heap entries stay 32 bytes");
  /// Heap order: the top is the earliest (at, seq).
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// Takes a node off the free list, first adding a chunk if it is empty.
  Node* acquire();
  /// Adds kChunkNodes fresh nodes to the free list.
  void grow();
  /// Pops the heap's top entry and returns its node. Kept out of line so
  /// the heap's sift-down code stays off the wheel path through fire().
  [[gnu::noinline]] Node* pop_top();
  /// Destroys a disarmed node's callback and returns it to the free list.
  void recycle(Node* n);
  /// Appends `n` to the tail of its slot's FIFO.
  void link(Node* n);
  void unlink(Node* n);
  /// Moves every heap entry due before now_ + kHorizon into the wheel.
  void migrate();
  /// Drops every stale entry once they outnumber live ones by the slack.
  void maybe_compact();
  /// Drop cancelled entries off the top; returns false if the heap empties.
  bool settle_top();
  /// Finds the earliest live event: its time and its wheel slot (or
  /// kHeapTop). Returns false if nothing is pending.
  bool peek(Nanos& at, std::size_t& slot);
  /// Fires the event peek() just found.
  void fire(Nanos at, std::size_t slot);

  Nanos now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t live_ = 0;   // scheduled and not yet fired/cancelled
  std::size_t stale_ = 0;  // heap entries whose event was cancelled
  bool stopped_ = false;
  Callback post_hook_;
  std::array<Node*, kSlots> slots_{};  // FIFO heads; head->prev is the tail
  std::array<std::uint64_t, kWords> occupied_{};  // one bit per slot
  std::uint64_t summary_ = 0;  // one bit per non-zero occupied_ word
  std::vector<Entry> heap_;
  std::vector<std::unique_ptr<Node[]>> slab_;  // chunks never move
  Node* free_ = nullptr;
};

}  // namespace xrdma::sim

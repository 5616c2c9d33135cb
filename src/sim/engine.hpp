// Deterministic discrete-event engine.
//
// All substrates (fabric, RNIC model, TCP model) and all middleware timing
// run on this single-threaded engine. Events at equal timestamps fire in
// schedule order (a monotone sequence number breaks ties), so a given seed
// always produces bit-identical results — the property every experiment in
// EXPERIMENTS.md relies on.
//
// Event nodes come from an engine-owned slab with an intrusive free list,
// and the queue is a binary heap of small {at, seq, node, gen} entries.
// Callbacks are InlineCallbacks: every capture lives inside the node, so
// scheduling allocates nothing once the slab has grown to the run's peak
// depth. A capture over InlineCallback::kInlineBytes (128 B) is a compile
// error; box it explicitly (capture a unique_ptr/shared_ptr to the state).
//
// Cancellation frees the node at once and bumps its generation, which
// leaves a stale entry in the heap. Once stale entries outnumber live ones
// by more than kCompactSlack, one pass drops them all and re-heapifies, so
// the heap never holds more than 2 * pending() + kCompactSlack entries and
// the cost stays amortised O(1) per cancel. Pop order depends only on the
// unique (at, seq) keys, never on the heap's layout, so compaction cannot
// change which event fires next.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/time.hpp"
#include "sim/inline_callback.hpp"

namespace xrdma::sim {

class Engine {
 public:
  using Callback = InlineCallback;
  /// Stale heap entries tolerated beyond the live count before compaction.
  static constexpr std::size_t kCompactSlack = 64;

 private:
  struct Node {
    Callback cb;
    std::uint64_t gen = 0;  // bumped when its event fires or is cancelled
    Node* next_free = nullptr;
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
  /// Heap entries, live plus not yet compacted stale ones; at most
  /// 2 * pending() + kCompactSlack.
  std::size_t queued_entries() const { return heap_.size(); }
  std::uint64_t events_processed() const { return processed_; }

  /// Conformance-harness hook (X-Check): invoked after every fired event,
  /// i.e. at the quiescent points between callbacks where cross-component
  /// invariants must hold. The hook may inspect any simulation state but
  /// must not schedule or cancel events. Pass nullptr to disable.
  void set_post_event_hook(Callback hook) { post_hook_ = std::move(hook); }

 private:
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

  Node* acquire();
  /// Destroys a disarmed node's callback and returns it to the free list.
  void recycle(Node* n);
  /// Drops every stale entry once they outnumber live ones by the slack.
  void maybe_compact();
  /// Drop cancelled entries off the top; returns false if the heap empties.
  bool settle_top();
  void fire_top();

  Nanos now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t live_ = 0;   // scheduled and not yet fired/cancelled
  std::size_t stale_ = 0;  // heap entries whose event was cancelled
  bool stopped_ = false;
  Callback post_hook_;
  std::vector<Entry> heap_;
  std::deque<Node> slab_;  // deque: growth never moves a node
  Node* free_ = nullptr;
};

}  // namespace xrdma::sim

#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace xrdma::sim {

namespace {
constexpr std::uint64_t kAllOnes = ~std::uint64_t{0};
std::size_t ctz(std::uint64_t x) {
  return static_cast<std::size_t>(std::countr_zero(x));
}
}  // namespace

void Engine::grow() {
  Node* chunk =
      slab_.emplace_back(std::make_unique<Node[]>(kChunkNodes)).get();
  for (std::size_t i = kChunkNodes; i-- > 0;) {
    chunk[i].next = free_;
    free_ = &chunk[i];
  }
}

void Engine::recycle(Node* n) {
  // The caller has already bumped the generation and taken the node off
  // the wheel: the capture's destructors may call back into the engine,
  // and must see this node as neither armed nor free.
  n->cb.reset();
  n->next = free_;
  free_ = n;
}

void Engine::link(Node* n) {
  const std::size_t i = static_cast<std::size_t>(n->at) & (kSlots - 1);
  Node* const head = slots_[i];
  if (head == nullptr) {
    slots_[i] = n->next = n->prev = n;
    occupied_[i / 64] |= std::uint64_t{1} << (i % 64);
    summary_ |= std::uint64_t{1} << (i / 64);
    return;
  }
  Node* const tail = head->prev;
  n->prev = tail;
  n->next = head;
  tail->next = n;
  head->prev = n;
}

void Engine::unlink(Node* n) {
  const std::size_t i = static_cast<std::size_t>(n->at) & (kSlots - 1);
  Node* const prev = std::exchange(n->prev, nullptr);
  if (n->next == n) {  // the slot's only node
    slots_[i] = nullptr;
    std::uint64_t& word = occupied_[i / 64];
    word &= ~(std::uint64_t{1} << (i % 64));
    if (word == 0) summary_ &= ~(std::uint64_t{1} << (i / 64));
    return;
  }
  prev->next = n->next;
  n->next->prev = prev;
  if (slots_[i] == n) slots_[i] = n->next;
}

Engine::EventId Engine::enqueue(Node* n, Nanos at) {
  if (at < now_) at = now_;  // never schedule into the past
  n->at = at;
  const std::uint64_t seq = next_seq_++;
  if (at < now_ + kHorizon) {
    link(n);
  } else {
    heap_.push_back(Entry{at, seq, n, n->gen});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  ++live_;
  return EventId{n, n->gen};
}

bool Engine::cancel(EventId& id) {
  const EventId old = std::exchange(id, EventId{});
  if (!old.armed()) return false;
  Node* n = old.node_;
  --live_;
  ++n->gen;
  if (n->prev != nullptr) {  // in the wheel
    unlink(n);
  } else {
    ++stale_;  // its heap entry stays behind until popped or compacted
  }
  recycle(n);
  maybe_compact();
  return true;
}

void Engine::migrate() {
  const Nanos edge = now_ + kHorizon;
  while (!heap_.empty() && heap_.front().at < edge) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Entry e = heap_.back();
    heap_.pop_back();
    if (e.node->gen == e.gen) {
      link(e.node);
    } else {
      --stale_;
    }
  }
}

void Engine::maybe_compact() {
  if (stale_ <= live_ + kCompactSlack) return;
  const auto stale = [](const Entry& e) { return e.node->gen != e.gen; };
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(), stale), heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  stale_ = 0;
}

bool Engine::settle_top() {
  while (!heap_.empty()) {
    const Entry& top = heap_.front();
    if (top.node->gen == top.gen) return true;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    --stale_;
  }
  return false;
}

Engine::Node* Engine::pop_top() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Node* n = heap_.back().node;
  heap_.pop_back();
  return n;
}

bool Engine::peek(Nanos& at, std::size_t& slot) {
  if (summary_ == 0) {
    if (!settle_top()) return false;
    at = heap_.front().at;
    slot = kHeapTop;
    return true;
  }
  // The first occupied slot at or after now_'s, wrapping around.
  const std::size_t from = static_cast<std::size_t>(now_) & (kSlots - 1);
  const std::size_t w = from / 64;
  if (const std::uint64_t here = occupied_[w] & (kAllOnes << (from % 64))) {
    slot = w * 64 + ctz(here);
  } else {
    const std::uint64_t above = summary_ & ((kAllOnes << w) << 1);
    const std::size_t next_w = ctz(above != 0 ? above : summary_);
    slot = next_w * 64 + ctz(occupied_[next_w]);
  }
  at = now_ + static_cast<Nanos>((slot - from) & (kSlots - 1));
  return true;
}

void Engine::fire(Nanos at, std::size_t slot) {
  Node* n;
  if (slot == kHeapTop) {
    n = pop_top();
  } else {
    n = slots_[slot];
    unlink(n);
  }
  --live_;
  ++processed_;
  maybe_compact();
  if (at != now_) {
    now_ = at;
    if (!heap_.empty()) migrate();  // skips the call on a timer-free queue
  }
  // Disarm the node before invoking the callback: a firing event is no
  // longer armed, so a handler that conditionally re-arms its own timer
  // (keepalive, memory retry) sees armed() == false and re-arms. The
  // callback runs in place; the node is freed only after it returns.
  ++n->gen;
  n->cb();
  recycle(n);
  if (post_hook_) post_hook_();
}

bool Engine::step() {
  Nanos at = 0;
  std::size_t slot = 0;
  if (!peek(at, slot)) return false;
  fire(at, slot);
  return true;
}

void Engine::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

void Engine::run_until(Nanos t) {
  stopped_ = false;
  Nanos at = 0;
  std::size_t slot = 0;
  while (!stopped_ && peek(at, slot) && at <= t) fire(at, slot);
  if (!stopped_ && now_ < t) {
    now_ = t;
    migrate();
  }
}

}  // namespace xrdma::sim

#include "sim/engine.hpp"

#include <algorithm>
#include <utility>

namespace xrdma::sim {

Engine::Node* Engine::acquire() {
  if (free_ == nullptr) return &slab_.emplace_back();
  Node* n = free_;
  free_ = n->next_free;
  return n;
}

void Engine::recycle(Node* n) {
  // The caller has already bumped the generation: the capture's destructors
  // may call back into the engine, and must see this node as neither armed
  // nor free.
  n->cb.reset();
  n->next_free = free_;
  free_ = n;
}

Engine::EventId Engine::schedule_at(Nanos at, Callback cb) {
  if (!cb) return {};
  if (at < now_) at = now_;  // never schedule into the past
  Node* n = acquire();
  n->cb = std::move(cb);
  heap_.push_back(Entry{at, next_seq_++, n, n->gen});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  return EventId{n, n->gen};
}

bool Engine::cancel(EventId& id) {
  const EventId old = std::exchange(id, EventId{});
  if (!old.armed()) return false;
  --live_;
  ++stale_;  // its heap entry stays behind until popped or compacted
  ++old.node_->gen;
  recycle(old.node_);
  maybe_compact();
  return true;
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

void Engine::fire_top() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Node* n = heap_.back().node;
  now_ = heap_.back().at;
  heap_.pop_back();
  --live_;
  ++processed_;
  maybe_compact();
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
  if (!settle_top()) return false;
  fire_top();
  return true;
}

void Engine::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

void Engine::run_until(Nanos t) {
  stopped_ = false;
  while (!stopped_ && settle_top() && heap_.front().at <= t) fire_top();
  if (!stopped_ && now_ < t) now_ = t;
}

}  // namespace xrdma::sim

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

void Engine::release(Node* n) {
  // The callback is destroyed last, once the node is consistent again: its
  // captures' destructors may call back into the engine.
  Callback dead = std::move(n->cb);
  ++n->gen;
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
  release(old.node_);  // its heap entry is now stale
  return true;
}

bool Engine::settle_top() {
  while (!heap_.empty()) {
    const Entry& top = heap_.front();
    if (top.node->gen == top.gen) return true;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
  return false;
}

void Engine::fire_top() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry e = heap_.back();
  heap_.pop_back();
  now_ = e.at;
  --live_;
  ++processed_;
  // Free the node before invoking the callback: a firing event is no longer
  // armed, so a handler that conditionally re-arms its own timer (keepalive,
  // memory retry) sees armed() == false and re-arms. The callback may
  // schedule into the freed node, so it runs from a local.
  Callback cb = std::move(e.node->cb);
  release(e.node);
  cb();
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

// Fd: the event-notification primitive behind xrdma_get_event_fd /
// xrdma_process_event. Models an eventfd registered in the application's
// epoll set: becoming ready costs a wakeup latency (epoll_wait return plus
// context switch), which is exactly why the hybrid poller exists.
#pragma once

#include <functional>

#include "sim/engine.hpp"

namespace xrdma::core {

class EventFd {
 public:
  EventFd(sim::Engine& engine, int fd, Nanos wakeup_latency)
      : engine_(engine), fd_(fd), wakeup_latency_(wakeup_latency) {}
  /// A wake still in flight dies with the fd: its waiter may capture the owner.
  ~EventFd() { engine_.cancel(wake_); }

  int fd() const { return fd_; }
  bool ready() const { return ready_; }

  /// Simulates registering the fd with epoll and blocking: `h` runs
  /// wakeup_latency after the fd becomes ready.
  void wait(std::function<void()> h) {
    waiter_ = std::move(h);
    if (ready_) fire();
  }

  void set_ready() {
    ready_ = true;
    if (waiter_) fire();
  }

  /// Consume readiness (read(2) on the eventfd).
  void clear() { ready_ = false; }

 private:
  void fire() {
    auto h = std::move(waiter_);
    waiter_ = nullptr;
    wake_ = engine_.schedule_after(wakeup_latency_, std::move(h));
  }

  sim::Engine& engine_;
  int fd_;
  Nanos wakeup_latency_;
  bool ready_ = false;
  std::function<void()> waiter_;
  sim::Engine::EventId wake_;
};

}  // namespace xrdma::core

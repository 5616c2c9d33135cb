// Cancelable one-shot and periodic timers over the engine.
//
// X-RDMA registers keepalive probes, statistic sampling and deadlock
// detection on a per-context timer (§IV-B); xr::Context owns a set of
// these.
#pragma once

#include <functional>
#include <utility>

#include "sim/engine.hpp"

namespace xrdma::sim {

/// Periodic timer. Fires `fn` every `period` until stopped or destroyed.
class PeriodicTimer {
 public:
  PeriodicTimer(Engine& engine, Nanos period, std::function<void()> fn)
      : engine_(engine), period_(period), fn_(std::move(fn)) {}

  ~PeriodicTimer() { stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void start() {
    if (running_) return;
    running_ = true;
    arm();
  }

  void stop() {
    running_ = false;
    engine_.cancel(pending_);
  }

  bool running() const { return running_; }

 private:
  void arm() {
    pending_ = engine_.schedule_after(period_, [this] {
      if (!running_) return;
      arm();  // re-arm first so fn_ may stop() us
      fn_();
    });
  }

  Engine& engine_;
  Nanos period_;
  std::function<void()> fn_;
  bool running_ = false;
  Engine::EventId pending_;
};

/// One-shot timer that can be pushed back (used for idle-triggered probes:
/// every send defers the next keepalive).
class DeadlineTimer {
 public:
  DeadlineTimer(Engine& engine, std::function<void()> fn)
      : engine_(engine), fn_(std::move(fn)) {}

  ~DeadlineTimer() { cancel(); }
  DeadlineTimer(const DeadlineTimer&) = delete;
  DeadlineTimer& operator=(const DeadlineTimer&) = delete;

  /// (Re)arm to fire `delay` from now; replaces any pending deadline.
  void arm_after(Nanos delay) {
    engine_.cancel(pending_);
    pending_ = engine_.schedule_after(delay, [this] { fn_(); });
  }

  void cancel() { engine_.cancel(pending_); }
  bool armed() const { return pending_.armed(); }

 private:
  Engine& engine_;
  std::function<void()> fn_;
  Engine::EventId pending_;
};

}  // namespace xrdma::sim

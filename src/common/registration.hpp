// One owner for every stored callback. An API that keeps a caller's
// callback (a TCP listener, a pending dial, a log sink) returns the undo
// action as a Registration; destroying, resetting or assigning over the
// handle removes the callback, so a callback that captures `this` lives
// exactly as long as the object holding the handle. The registry must
// outlive the handles it issues.
#pragma once

#include <functional>
#include <utility>

namespace xrdma {

class [[nodiscard]] Registration {
 public:
  Registration() = default;
  explicit Registration(std::function<void()> undo) : undo_(std::move(undo)) {}
  Registration(Registration&& other) noexcept
      : undo_(std::exchange(other.undo_, nullptr)) {}
  Registration& operator=(Registration&& other) noexcept {
    reset();
    undo_ = std::exchange(other.undo_, nullptr);
    return *this;
  }
  ~Registration() { reset(); }

  void reset() {
    if (auto undo = std::exchange(undo_, nullptr)) undo();
  }
  explicit operator bool() const { return static_cast<bool>(undo_); }

 private:
  std::function<void()> undo_;
};

}  // namespace xrdma

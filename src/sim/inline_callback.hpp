// Move-only `void()` callable with fixed inline storage: the engine's event
// callback type.
//
// Unlike std::function (16 B of inline room in libstdc++), the capture is
// always stored in place, so scheduling an event never touches the heap. A
// capture larger than kInlineBytes does not compile — it never falls back
// to the heap. Box such a capture explicitly (e.g. capture a unique_ptr or
// shared_ptr to it) so the allocation is visible at the call site.
#pragma once

#include <cstddef>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace xrdma::sim {

class InlineCallback {
 public:
  /// Fits every capture in the tree today; the largest is the channel's
  /// deferred post (a 112-byte SendWr plus two words).
  static constexpr std::size_t kInlineBytes = 128;
  static constexpr std::size_t kAlign = alignof(std::max_align_t);

  template <class F>
  static constexpr bool fits_v =
      sizeof(F) <= kInlineBytes && alignof(F) <= kAlign;

  InlineCallback() noexcept = default;
  InlineCallback(std::nullptr_t) noexcept {}

  template <class F, class D = std::decay_t<F>,
            std::enable_if_t<!std::is_same_v<D, InlineCallback> &&
                                 std::is_invocable_r_v<void, D&> && fits_v<D>,
                             int> = 0>
  InlineCallback(F&& f) {
    // An empty std::function or null function pointer stays empty, as it
    // would in a std::function.
    if constexpr (std::is_pointer_v<D> || is_std_function<D>::value) {
      if (!f) return;
    }
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    ops_ = &kOps<D>;
  }

  InlineCallback(InlineCallback&& other) noexcept { take(other); }
  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;
  ~InlineCallback() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }
  void operator()() { ops_->invoke(buf_); }

  /// Destroys the capture (once) and leaves the callable empty.
  void reset() noexcept {
    if (const Ops* ops = std::exchange(ops_, nullptr)) ops->destroy(buf_);
  }

 private:
  template <class T>
  struct is_std_function : std::false_type {};
  template <class R, class... A>
  struct is_std_function<std::function<R(A...)>> : std::true_type {};

  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs the capture at `dst` and destroys the one at `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <class D>
  static constexpr Ops kOps = {
      [](void* p) { (*static_cast<D*>(p))(); },
      [](void* dst, void* src) noexcept {
        if constexpr (std::is_trivially_copyable_v<D>) {
          std::memcpy(dst, src, sizeof(D));
        } else {
          D* s = static_cast<D*>(src);
          ::new (dst) D(std::move(*s));
          s->~D();
        }
      },
      [](void* p) noexcept { static_cast<D*>(p)->~D(); },
  };

  void take(InlineCallback& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(buf_, other.buf_);
    ops_ = std::exchange(other.ops_, nullptr);
  }

  alignas(kAlign) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace xrdma::sim

// Move-only `void()` callable with fixed inline storage: the engine's event
// callback type.
//
// Unlike std::function (16 B of inline room in libstdc++), the capture is
// always stored in place, so scheduling an event never touches the heap. A
// capture larger than kInlineBytes does not compile — it never falls back
// to the heap. Box such a capture explicitly (e.g. capture a unique_ptr or
// shared_ptr to it) so the allocation is visible at the call site.
//
// Two ways in. emplace() builds a callable straight into an empty
// InlineCallback, which is how Engine::schedule_at puts each capture into
// the slab node that will fire it: no temporary, no relocation. The
// converting constructor builds a standalone InlineCallback that can be
// moved later; a move relocates the capture through its Ops.
//
// Layout. ops_ comes before the buffer, so a node that holds an
// InlineCallback right after four words of links keeps ops_ and the first
// 16 B of the capture in its first cache line.
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
  /// What emplace() takes: an InlineCallback, or a `void()` callable that
  /// fits in place. Anything else, an oversized capture above all, does
  /// not compile.
  template <class F, class D = std::decay_t<F>>
  static constexpr bool emplaceable_v =
      std::is_same_v<D, InlineCallback> ||
      (std::is_invocable_r_v<void, D&> && fits_v<D>);

  /// True if `f` would make an empty callback: an empty InlineCallback,
  /// an empty std::function or a null function pointer (as the last two
  /// would in a std::function). Never true for a lambda.
  template <class F>
  static bool is_null(const F& f) noexcept {
    using D = std::decay_t<F>;
    if constexpr (std::is_pointer_v<D> || is_std_function<D>::value ||
                  std::is_same_v<D, InlineCallback>) {
      return !f;
    } else {
      return false;
    }
  }

  InlineCallback() noexcept = default;
  InlineCallback(std::nullptr_t) noexcept {}

  template <class F>
    requires(!std::is_same_v<std::decay_t<F>, InlineCallback> &&
             emplaceable_v<F>)
  InlineCallback(F&& f) {
    if (!is_null(f)) emplace(std::forward<F>(f));
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

  /// Builds `f` in place. This callable must be empty and `f` must not be
  /// null (see is_null). An InlineCallback `f` is moved from, through its
  /// relocate; any other callable is constructed straight into the buffer.
  template <class F>
    requires emplaceable_v<F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (std::is_same_v<D, InlineCallback>) {
      static_assert(std::is_rvalue_reference_v<F&&>,
                    "move the InlineCallback in");
      take(f);
    } else {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kOps<D>;
    }
  }

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

  const Ops* ops_ = nullptr;
  alignas(kAlign) unsigned char buf_[kInlineBytes];
};

}  // namespace xrdma::sim

// Size-class free lists for per-message heap blocks: RNIC packets and
// payload buffers.
//
// Blocks are recycled in 64 B classes up to one MTU-sized fragment plus a
// shared_ptr control block; larger requests go straight to operator new.
// Refills come from ::operator new too, so a global allocation counter
// still sees every real allocation. The lists are never destroyed, so a
// block freed after main returns still has somewhere to go. Like the
// simulator, the pool is single-threaded. Under ASan a free block is
// poisoned up to its link word: reading a released packet or payload
// aborts instead of silently reading recycled bytes.
#pragma once

#include <cstddef>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace xrdma {

class SizeClassPool {
 public:
  static constexpr std::size_t kGrain = 64;
  static constexpr std::size_t kMaxPooled = 4096 + kGrain;

  static void* allocate(std::size_t n) {
    if (n > kMaxPooled) return ::operator new(n);
    void*& head = heads_[class_of(n)];
    if (!head) return ::operator new(block_size(n));
    void* block = head;
    head = *std::launder(static_cast<void**>(link(block, n)));
    unpoison(block, block_size(n));
    --free_blocks_;
    return block;
  }

  static void deallocate(void* p, std::size_t n) noexcept {
    if (n > kMaxPooled) {
      ::operator delete(p);
      return;
    }
    void*& head = heads_[class_of(n)];
    new (link(p, n)) void*(head);
    head = p;
    ++free_blocks_;
    poison(p, block_size(n) - sizeof(void*));
  }

  /// Blocks parked on the free lists, across all classes.
  static std::size_t free_blocks() { return free_blocks_; }

 private:
  static constexpr std::size_t kClasses = kMaxPooled / kGrain;

  static std::size_t class_of(std::size_t n) { return n == 0 ? 0 : (n - 1) / kGrain; }
  static std::size_t block_size(std::size_t n) { return (class_of(n) + 1) * kGrain; }
  // A free block links to the next one through its last word. That word
  // stays unpoisoned, so LeakSanitizer can follow the list.
  static void* link(void* block, std::size_t n) {
    return static_cast<char*>(block) + block_size(n) - sizeof(void*);
  }

#if defined(__SANITIZE_ADDRESS__)
  static void poison(void* p, std::size_t n) { ASAN_POISON_MEMORY_REGION(p, n); }
  static void unpoison(void* p, std::size_t n) { ASAN_UNPOISON_MEMORY_REGION(p, n); }
#else
  static void poison(void*, std::size_t) {}
  static void unpoison(void*, std::size_t) {}
#endif

  static inline void* heads_[kClasses] = {};
  static inline std::size_t free_blocks_ = 0;
};

/// Standard allocator over SizeClassPool, for std::allocate_shared and
/// std::allocate_shared_for_overwrite.
template <class T>
struct PoolAllocator {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  using value_type = T;

  PoolAllocator() = default;
  template <class U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(SizeClassPool::allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    SizeClassPool::deallocate(p, n * sizeof(T));
  }
  template <class U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace xrdma

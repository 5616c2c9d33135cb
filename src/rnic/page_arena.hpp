// PageArena: the host bytes behind one real memory region.
//
// An MR is backed by anonymous demand-zero pages: the kernel maps a page on
// first touch, so registering a 4 MB region costs a few syscalls and no
// resident memory until the application writes it, and every byte reads
// zero until then. The bytes end exactly at a trailing PROT_NONE guard
// page, so a host-side write one byte past the region faults in every
// build (the heap allocation this replaces relied on ASan's redzone for
// that). Destruction unmaps the pages, which returns them to the kernel at
// deregistration.
#pragma once

#include <cstddef>
#include <cstdint>

namespace xrdma::rnic {

class PageArena {
 public:
  PageArena() = default;
  /// Maps `size` bytes of zero pages plus the guard page; throws
  /// std::bad_alloc when the address space is exhausted.
  explicit PageArena(std::uint64_t size);
  ~PageArena();

  PageArena(PageArena&& other) noexcept;
  PageArena& operator=(PageArena&& other) noexcept;
  PageArena(const PageArena&) = delete;
  PageArena& operator=(const PageArena&) = delete;

  /// First usable byte; the guard page starts right after the last one.
  std::uint8_t* data() const { return data_; }

 private:
  void release() noexcept;

  void* map_ = nullptr;      // start of the whole mapping
  std::size_t map_len_ = 0;  // usable pages plus the guard page
  std::uint8_t* data_ = nullptr;
};

}  // namespace xrdma::rnic

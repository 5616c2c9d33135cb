#include "rnic/page_arena.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <new>
#include <utility>

namespace xrdma::rnic {

namespace {
std::size_t page_size() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}
}  // namespace

PageArena::PageArena(std::uint64_t size) {
  const std::size_t page = page_size();
  const std::size_t usable = (size + page - 1) / page * page;
  map_len_ = usable + page;
  map_ = mmap(nullptr, map_len_, PROT_READ | PROT_WRITE,
              MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (map_ == MAP_FAILED) {
    map_ = nullptr;
    throw std::bad_alloc();
  }
  // Small pages only: with transparent huge pages set to "always", one
  // touched byte would make 2 MiB resident. The advice is best effort.
  madvise(map_, map_len_, MADV_NOHUGEPAGE);
  std::uint8_t* guard = static_cast<std::uint8_t*>(map_) + usable;
  if (mprotect(guard, page, PROT_NONE) != 0) {
    release();
    throw std::bad_alloc();
  }
  data_ = guard - size;
}

PageArena::~PageArena() { release(); }

PageArena::PageArena(PageArena&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      map_len_(std::exchange(other.map_len_, 0)),
      data_(std::exchange(other.data_, nullptr)) {}

PageArena& PageArena::operator=(PageArena&& other) noexcept {
  if (this != &other) {
    release();
    map_ = std::exchange(other.map_, nullptr);
    map_len_ = std::exchange(other.map_len_, 0);
    data_ = std::exchange(other.data_, nullptr);
  }
  return *this;
}

void PageArena::release() noexcept {
  if (map_) munmap(map_, map_len_);
  map_ = nullptr;
  map_len_ = 0;
  data_ = nullptr;
}

}  // namespace xrdma::rnic

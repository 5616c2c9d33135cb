// Payload buffers.
//
// Messages in the simulator carry either real bytes (tests validate
// content end-to-end) or just a length ("synthetic" payloads) so large
// bandwidth benches don't pay for memcpy of gigabytes. A Buffer is a
// refcounted byte block; BufferView is a cheap slice of one.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>

#include "common/pool.hpp"

namespace xrdma {

class Buffer {
 public:
  Buffer() = default;

  /// Real buffer with storage, zero-filled.
  static Buffer make(std::size_t size) {
    Buffer b = make_for_overwrite(size);
    if (size > 0) std::memset(b.data(), 0, size);
    return b;
  }

  /// Real buffer holding a copy of `size` bytes at `src`.
  static Buffer copy_of(const void* src, std::size_t size) {
    Buffer b = make_for_overwrite(size);
    if (size > 0) std::memcpy(b.data(), src, size);
    return b;
  }

  /// Real buffer whose bytes are left unwritten: the caller writes all of
  /// them before anyone reads.
  static Buffer make_for_overwrite(std::size_t size) {
    Buffer b;
    if (size > 0) {
      b.data_ = std::allocate_shared_for_overwrite<std::uint8_t[]>(
          PoolAllocator<std::uint8_t>{}, size);
    }
    b.size_ = size;
    return b;
  }

  static Buffer from_string(std::string_view s) {
    return copy_of(s.data(), s.size());
  }

  /// Length-only buffer: occupies wire bytes but no memory.
  static Buffer synthetic(std::size_t size) {
    Buffer b;
    b.size_ = size;
    return b;
  }

  std::size_t size() const { return size_; }
  bool is_synthetic() const { return !data_ && size_ > 0; }
  bool empty() const { return size_ == 0; }

  std::uint8_t* data() { return data_.get(); }
  const std::uint8_t* data() const { return data_.get(); }

  std::string to_string() const {
    if (!data_) return std::string(size_, '\0');
    return std::string(reinterpret_cast<const char*>(data_.get()), size_);
  }

  /// Deep copy (synthetic stays synthetic).
  Buffer clone() const {
    if (!data_) return synthetic(size_);
    return copy_of(data(), size_);
  }

  bool operator==(const Buffer& o) const {
    if (size_ != o.size_) return false;
    if (!data_ || !o.data_) return is_synthetic() == o.is_synthetic() || size_ == 0;
    return std::memcmp(data(), o.data(), size_) == 0;
  }

 private:
  // One block per buffer: the bytes and their refcount, drawn from the
  // size-class pool. Null for synthetic and empty buffers.
  std::shared_ptr<std::uint8_t[]> data_;
  std::size_t size_ = 0;
};

/// Fill with a deterministic pattern derived from `seed`, for end-to-end
/// content validation in tests.
void fill_pattern(Buffer& b, std::uint64_t seed);
bool check_pattern(const Buffer& b, std::uint64_t seed);

}  // namespace xrdma

#include "common/crc32c.hpp"

#include <array>
#include <cstring>

namespace xrdma {

namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;

// 256-entry table for the reflected Castagnoli polynomial, generated at
// compile time.
constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    t[i] = c;
  }
  return t;
}

constexpr std::array<std::uint32_t, 256> kTable = make_table();

#if defined(__x86_64__)

// Shift tables for joining interleaved lanes. A raw CRC register is a
// polynomial over GF(2) with bit 31 the x^0 coefficient; running it over n
// zero bytes multiplies it by x^(8n) mod P. The lane join is
// crc(A ‖ B) = shift(crc(A), |B|) ^ crc_from_zero(B).

// a * b mod P, reflected bit order.
constexpr std::uint32_t mul_mod_p(std::uint32_t a, std::uint32_t b) {
  std::uint32_t m = 1u << 31;
  std::uint32_t p = 0;
  for (;;) {
    if (a & m) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = (b & 1) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return p;
}

// x^(8n) mod P by square-and-multiply.
constexpr std::uint32_t x8n_mod_p(std::size_t n) {
  std::uint32_t result = 1u << 31;       // x^0
  std::uint32_t power = 1u << (31 - 8);  // x^8
  for (; n != 0; n >>= 1) {
    if (n & 1) result = mul_mod_p(power, result);
    power = mul_mod_p(power, power);
  }
  return result;
}

// Byte-indexed tables for "shift by n zero bytes": one per byte lane of
// the register, since the operator is linear.
using ShiftTable = std::array<std::array<std::uint32_t, 256>, 4>;

constexpr ShiftTable make_shift(std::size_t n) {
  const std::uint32_t op = x8n_mod_p(n);
  ShiftTable t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    for (int k = 0; k < 4; ++k) t[k][b] = mul_mod_p(op, b << (8 * k));
  }
  return t;
}

constexpr std::size_t kLong = 8192;
constexpr std::size_t kShort = 256;
constexpr ShiftTable kShiftLong = make_shift(kLong);
constexpr ShiftTable kShiftShort = make_shift(kShort);

inline std::uint32_t shift(const ShiftTable& t, std::uint32_t crc) {
  return t[0][crc & 0xFF] ^ t[1][(crc >> 8) & 0xFF] ^
         t[2][(crc >> 16) & 0xFF] ^ t[3][crc >> 24];
}

inline std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// Three lanes of `lane` bytes each, run interleaved so the instruction's
// 3-cycle latency is hidden, then joined.
__attribute__((target("sse4.2"))) inline std::uint64_t crc_lanes(
    std::uint64_t crc0, const std::uint8_t*& p, std::size_t& len,
    std::size_t lane, const ShiftTable& t) {
  while (len >= 3 * lane) {
    std::uint64_t crc1 = 0;
    std::uint64_t crc2 = 0;
    const std::uint8_t* end = p + lane;
    do {
      crc0 = __builtin_ia32_crc32di(crc0, load64(p));
      crc1 = __builtin_ia32_crc32di(crc1, load64(p + lane));
      crc2 = __builtin_ia32_crc32di(crc2, load64(p + 2 * lane));
      p += 8;
    } while (p < end);
    crc0 = shift(t, static_cast<std::uint32_t>(crc0)) ^ crc1;
    crc0 = shift(t, static_cast<std::uint32_t>(crc0)) ^ crc2;
    p += 2 * lane;
    len -= 3 * lane;
  }
  return crc0;
}

__attribute__((target("sse4.2"))) std::uint32_t crc32c_extend_sse42(
    std::uint32_t crc, const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t c = crc ^ 0xFFFFFFFFu;
  while (len != 0 && (reinterpret_cast<std::uintptr_t>(p) & 7) != 0) {
    c = __builtin_ia32_crc32qi(static_cast<std::uint32_t>(c), *p++);
    --len;
  }
  c = crc_lanes(c, p, len, kLong, kShiftLong);
  c = crc_lanes(c, p, len, kShort, kShiftShort);
  for (; len >= 8; len -= 8, p += 8) c = __builtin_ia32_crc32di(c, load64(p));
  for (; len != 0; --len) {
    c = __builtin_ia32_crc32qi(static_cast<std::uint32_t>(c), *p++);
  }
  return static_cast<std::uint32_t>(c) ^ 0xFFFFFFFFu;
}

bool detect_sse42() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

#else

bool detect_sse42() { return false; }

#endif

}  // namespace

std::uint32_t crc32c_extend_portable(std::uint32_t crc, const void* data,
                                     std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c = kTable[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

bool crc32c_hardware() {
  static const bool hw = detect_sse42();
  return hw;
}

std::uint32_t crc32c_extend(std::uint32_t crc, const void* data,
                            std::size_t len) {
#if defined(__x86_64__)
  if (crc32c_hardware()) return crc32c_extend_sse42(crc, data, len);
#endif
  return crc32c_extend_portable(crc, data, len);
}

std::uint32_t crc32c(const void* data, std::size_t len) {
  return crc32c_extend(0, data, len);
}

}  // namespace xrdma

// The range rule for an integer that operator input stores into a typed
// field: the set_flag tuning surface (core/config.cpp) and the X-Check
// replay `params` line (check/schedule.cpp) both apply it, so a value either
// lands exactly or is refused — never wrapped or truncated.
#pragma once

#include <cstdint>
#include <limits>
#include <type_traits>

namespace xrdma {

/// Whether `v` may be stored into a field of type T: it must be
/// non-negative and fit T. A bool field takes any non-negative value
/// (nonzero sets it); an enum field is checked against its underlying type.
template <class T>
constexpr bool fits_field(std::int64_t v) {
  if (v < 0) return false;
  if constexpr (std::is_same_v<T, bool>) {
    return true;
  } else if constexpr (std::is_enum_v<T>) {
    return fits_field<std::underlying_type_t<T>>(v);
  } else {
    return static_cast<std::uint64_t>(v) <=
           static_cast<std::uint64_t>(std::numeric_limits<T>::max());
  }
}

}  // namespace xrdma

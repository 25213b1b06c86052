// Strict base-10 integer parsing, shared by the scenario grammar and every
// tool's numeric command-line flags: malformed input is an error, never a
// silent 0 the way atoi/strtoull read it.

#ifndef VSCALE_SRC_BASE_PARSE_H_
#define VSCALE_SRC_BASE_PARSE_H_

#include <charconv>
#include <cstdint>
#include <string_view>
#include <system_error>

namespace vscale {

namespace parse_internal {

template <typename T>
bool ParseDecimal(std::string_view s, T* out) {
  T v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) return false;
  *out = v;
  return true;
}

}  // namespace parse_internal

// An optional '-' (signed only), digits, nothing else, no overflow. False on
// anything else, leaving *out untouched.
inline bool ParseI64(std::string_view s, int64_t* out) {
  return parse_internal::ParseDecimal(s, out);
}
inline bool ParseU64(std::string_view s, uint64_t* out) {
  return parse_internal::ParseDecimal(s, out);
}

}  // namespace vscale

#endif  // VSCALE_SRC_BASE_PARSE_H_

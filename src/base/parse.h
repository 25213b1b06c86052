// Strict number parsing, shared by the scenario grammar and every tool's
// numeric command-line flags and environment variables: malformed input is an
// error, never a silent 0 or a silently truncated prefix the way
// atoi/strtoull/strtod/atof read it.

#ifndef VSCALE_SRC_BASE_PARSE_H_
#define VSCALE_SRC_BASE_PARSE_H_

#include <charconv>
#include <cmath>
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

// A finite decimal or scientific-notation float ("50", "-0.25", "1e-3"), nothing
// else: no trailing text, no "inf"/"nan", no out-of-range magnitude. False on
// anything else, leaving *out untouched.
inline bool ParseF64(std::string_view s, double* out) {
  double v = 0;
  if (!parse_internal::ParseDecimal(s, &v) || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

}  // namespace vscale

#endif  // VSCALE_SRC_BASE_PARSE_H_

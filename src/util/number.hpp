// The one number grammar of every text reader: command-line flags and
// environment knobs, the serve wire and its stats lines, DTA traces,
// SDF, Liberty, VCD and safe-tclk certificates all read numbers here.
//
// A number is the whole token: no whitespace, no leading '+', nothing
// after it, and within the range of its type. An integer is decimal
// (or in `base`); a '-' on an unsigned type is refused. A real is what
// std::from_chars reads ("%.17g", "%.3f", "1e-3", "inf", "nan") or a
// "%a" hexfloat 0x…p… with at most one leading '-'; a real that
// overflows, or underflows to zero, is refused; parseFinite also
// refuses NaN and inf, for readers that need a finite value.
#pragma once

#include <cctype>
#include <charconv>
#include <cmath>
#include <concepts>
#include <string_view>

namespace tevot::util {

/// Parses all of `text` as an integer in `base`; writes *out only on
/// success.
template <std::integral T>
bool parseWhole(std::string_view text, T* out, int base = 10) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value, base);
  if (text.empty() || ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

/// Parses all of `text` as a real; writes *out only on success.
template <std::floating_point T>
bool parseWhole(std::string_view text, T* out) {
  const bool negative = !text.empty() && text[0] == '-';
  std::string_view digits = text.substr(negative ? 1 : 0);
  const bool hex = digits.size() > 2 && digits[0] == '0' &&
                   (digits[1] == 'x' || digits[1] == 'X');
  if (hex) {
    digits.remove_prefix(2);
    // from_chars would take a second sign, "inf" or "nan" here.
    const auto lead = static_cast<unsigned char>(digits[0]);
    if (std::isxdigit(lead) == 0 && lead != '.') return false;
  } else {
    digits = text;
  }
  T value{};
  const char* end = digits.data() + digits.size();
  const auto [ptr, ec] =
      hex ? std::from_chars(digits.data(), end, value,
                            std::chars_format::hex)
          : std::from_chars(digits.data(), end, value);
  if (digits.empty() || ec != std::errc() || ptr != end) return false;
  *out = hex && negative ? -value : value;
  return true;
}

/// parseWhole for a real that must also be finite.
template <std::floating_point T>
bool parseFinite(std::string_view text, T* out) {
  T value{};
  if (!parseWhole(text, &value) || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

/// Parses all of `text` as an unsigned integer in C's prefixed bases:
/// "0x" hex, a leading 0 octal, else decimal.
template <std::unsigned_integral T>
bool parsePrefixed(std::string_view text, T* out) {
  int base = 10;
  if (text.size() > 1 && text[0] == '0') {
    base = (text[1] == 'x' || text[1] == 'X') ? 16 : 8;
    text.remove_prefix(base == 16 ? 2 : 1);
  }
  return parseWhole(text, out, base);
}

}  // namespace tevot::util

// Table-driven command-line parsing shared by the tools and benches.
//
// A tool declares each option once (its name and a value parser that
// checks type and range, then stores), its positionals in order, and
// any environment knobs, then calls Flags::parse. Numbers follow the
// grammar of util/number.hpp, and a double must also be finite: junk,
// a leading '+', a '-' on an unsigned value, overflow, NaN and
// infinity are refused, never coerced. `--name=value` equals
// `--name value`; a repeated option keeps its last value. A token that
// starts with '-' and a non-digit is an option, so "-25" is a number.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "util/number.hpp"

namespace tevot::util {

/// Largest --jobs / TEVOT_JOBS value (0 = one job per hardware thread).
inline constexpr std::size_t kMaxJobs = 1024;

/// Checks one value and stores it; false refuses it.
using ValueParser = std::function<bool(std::string_view)>;

/// A value that parses whole and lies in [lo, hi], so a double is
/// also finite.
template <typename T>
ValueParser inRange(T* out, T lo, T hi = std::numeric_limits<T>::max()) {
  return [=](std::string_view text) {
    T value{};
    const bool ok = parseWhole(text, &value) && value >= lo && value <= hi;
    if (ok) *out = value;
    return ok;
  };
}
template <typename T>
ValueParser count(T* out) {  // >= 1
  return inRange<T>(out, 1);
}
inline ValueParser port(int* out, int lo = 0) {  // lo..65535
  return inRange(out, lo, 65535);
}
inline ValueParser jobs(std::size_t* out) {
  return inRange<std::size_t>(out, 0, kMaxJobs);
}
inline ValueParser finite(double* out) {
  return inRange(out, std::numeric_limits<double>::lowest());
}
inline ValueParser nonNegative(double* out) { return inRange(out, 0.0); }
inline ValueParser positive(double* out) {
  return inRange(out, std::numeric_limits<double>::denorm_min());
}
inline ValueParser fraction(double* out) { return inRange(out, 0.0, 1.0); }

/// An unsigned integer in parsePrefixed's bases ("0x" hex, a leading
/// 0 octal, else decimal).
ValueParser seed(std::uint64_t* out);
ValueParser word(std::uint32_t* out);  ///< seed's syntax, < 2^32
ValueParser text(std::string* out);    ///< any string
ValueParser grid(int* nv, int* nt);    ///< "NVxNT", both >= 1

class Flags {
 public:
  enum class Arity { kOne, kOptional, kAny };

  /// `tool` prefixes every error message; usage() prints `usage`.
  Flags(std::string tool, std::string usage)
      : tool_(std::move(tool)), usage_(std::move(usage)) {}

  /// An option with a value: --name V or --name=V.
  Flags& option(std::string name, ValueParser parse);
  /// A presence flag; `on` runs each time --name appears.
  Flags& flag(std::string name, std::function<void()> on);
  Flags& flag(std::string name, bool* out);
  /// The next positional. Optional and repeated (kAny) ones go last.
  Flags& arg(std::string name, ValueParser parse, Arity arity = Arity::kOne);
  /// An environment variable, read by parse() before the command line
  /// (so a flag for the same value wins). Unset or empty keeps the
  /// default; any other value must pass `parse`.
  Flags& env(std::string name, ValueParser parse);

  /// Parses argv[first..argc). On the first bad token prints why to
  /// stderr ("<tool>: --x needs a value", "unknown option --x", "bad
  /// value for X: 'v'", "missing <x>", "unexpected argument 'x'") and
  /// returns false; the caller then returns usage(). With `rest`,
  /// stops at the first positional and stores its index (argc when
  /// there is none) in *rest.
  bool parse(int argc, char** argv, int first = 1,
             int* rest = nullptr) const;
  /// Reads only the env() variables, failing like parse().
  bool parseEnv() const;
  /// Prints the usage text to stderr; returns 2, the usage exit code.
  int usage() const;

 private:
  struct Entry {
    std::string name;
    ValueParser parse;
    bool takes_value = true;
    Arity arity = Arity::kOne;
  };
  bool fail(const std::string& message) const;

  std::string tool_;
  std::string usage_;
  std::vector<Entry> options_;
  std::vector<Entry> positionals_;
  std::vector<Entry> environment_;
};

}  // namespace tevot::util

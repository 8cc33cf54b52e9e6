// Environment-variable configuration knobs.
//
// Benchmarks default to reduced scales so the whole suite finishes in
// minutes; setting TEVOT_FULL=1 restores paper-scale sweeps. Numeric
// knobs are read through util::Flags::env, which refuses a malformed
// value instead of falling back to the default.
#pragma once

#include <string>

namespace tevot::util {

/// Returns the value of environment variable `name`, or `fallback` if
/// unset or empty.
std::string envString(const char* name, const std::string& fallback);

/// True when the variable is set to 1/true/yes/on (case-insensitive).
bool envFlag(const char* name, bool fallback = false);

/// Convenience: the global "run at paper scale" switch (TEVOT_FULL).
bool fullScale();

}  // namespace tevot::util

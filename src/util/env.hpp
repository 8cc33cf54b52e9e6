// Environment-variable configuration knobs.
//
// Benchmarks default to reduced scales so the whole suite finishes in
// minutes; setting TEVOT_FULL=1 restores paper-scale sweeps. These
// helpers centralize the parsing so every binary interprets the knobs
// identically.
#pragma once

#include <string>

namespace tevot::util {

/// Returns the value of environment variable `name`, or `fallback` if
/// unset or empty.
std::string envString(const char* name, const std::string& fallback);

/// Parses an integer environment variable; returns `fallback` on
/// absence or parse failure.
long envInt(const char* name, long fallback);

/// Parses a floating-point environment variable; returns `fallback`
/// on absence or parse failure.
double envDouble(const char* name, double fallback);

/// True when the variable is set to 1/true/yes/on (case-insensitive).
bool envFlag(const char* name, bool fallback = false);

/// Convenience: the global "run at paper scale" switch (TEVOT_FULL).
bool fullScale();

}  // namespace tevot::util

// The one retry schedule: dta::runSweep's job retries and
// serve::LineClient::reconnect wait by it. It is deterministic (no
// jitter), so a run retrying through a fault storm stays reproducible.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

namespace tevot::util {

/// The wait before retry k (k = 0 for the first retry):
/// min(initial_ms * growth^k, cap_ms), computed in double, so every k
/// is defined; past the double range it is cap_ms (+inf without a cap).
inline double backoffMs(
    double initial_ms, double growth, int k,
    double cap_ms = std::numeric_limits<double>::infinity()) {
  return std::min(initial_ms * std::pow(growth, k), cap_ms);
}

/// Blocks for `ms` milliseconds; not at all unless ms > 0. A wait
/// longer than the clock can count (about 292 years) is cut to that.
inline void sleepMs(double ms) {
  constexpr double kMaxMs = 9e12;
  if (ms > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(std::min(ms, kMaxMs)));
  }
}

}  // namespace tevot::util

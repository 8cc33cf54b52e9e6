#include "util/env.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "util/flags.hpp"

namespace tevot::util {

std::string envString(const char* name, const std::string& fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return fallback;
  return raw;
}

long envInt(const char* name, long fallback) {
  long value = 0;
  return parseWhole(envString(name, ""), &value) ? value : fallback;
}

double envDouble(const char* name, double fallback) {
  double value = 0.0;
  return parseWhole(envString(name, ""), &value) ? value : fallback;
}

bool envFlag(const char* name, bool fallback) {
  std::string raw = envString(name, "");
  if (raw.empty()) return fallback;
  std::transform(raw.begin(), raw.end(), raw.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return raw == "1" || raw == "true" || raw == "yes" || raw == "on";
}

bool fullScale() { return envFlag("TEVOT_FULL"); }

}  // namespace tevot::util

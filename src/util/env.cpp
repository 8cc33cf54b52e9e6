#include "util/env.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>

namespace tevot::util {

std::string envString(const char* name, const std::string& fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return fallback;
  return raw;
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

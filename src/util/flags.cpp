#include "util/flags.hpp"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace tevot::util {

ValueParser seed(std::uint64_t* out) {
  return [out](std::string_view text) { return parsePrefixed(text, out); };
}

ValueParser word(std::uint32_t* out) {
  return [out](std::string_view text) { return parsePrefixed(text, out); };
}

ValueParser text(std::string* out) {
  return [out](std::string_view value) {
    *out = value;
    return true;
  };
}

ValueParser grid(int* nv, int* nt) {
  return [nv, nt](std::string_view text) {
    const std::size_t x = text.find('x');
    int v = 0, t = 0;
    const bool ok = x != std::string_view::npos &&
                    count(&v)(text.substr(0, x)) &&
                    count(&t)(text.substr(x + 1));
    if (ok) {
      *nv = v;
      *nt = t;
    }
    return ok;
  };
}

Flags& Flags::option(std::string name, ValueParser parse) {
  options_.push_back({std::move(name), std::move(parse)});
  return *this;
}

Flags& Flags::flag(std::string name, std::function<void()> on) {
  const auto parse = [on = std::move(on)](std::string_view) {
    on();
    return true;
  };
  options_.push_back({std::move(name), parse, /*takes_value=*/false});
  return *this;
}

Flags& Flags::flag(std::string name, bool* out) {
  return flag(std::move(name), [out] { *out = true; });
}

Flags& Flags::arg(std::string name, ValueParser parse, Arity arity) {
  positionals_.push_back({std::move(name), std::move(parse), true, arity});
  return *this;
}

Flags& Flags::env(std::string name, ValueParser parse) {
  environment_.push_back({std::move(name), std::move(parse)});
  return *this;
}

bool Flags::fail(const std::string& message) const {
  std::fprintf(stderr, "%s: %s\n", tool_.c_str(), message.c_str());
  return false;
}

int Flags::usage() const {
  std::fputs(usage_.c_str(), stderr);
  return 2;
}

bool Flags::parseEnv() const {
  for (const Entry& entry : environment_) {
    const char* value = std::getenv(entry.name.c_str());
    if (value == nullptr || *value == '\0' || entry.parse(value)) continue;
    return fail("bad value for " + entry.name + ": '" + value + "'");
  }
  return true;
}

bool Flags::parse(int argc, char** argv, int first, int* rest) const {
  const auto bad = [this](const std::string& name, std::string_view value) {
    return fail("bad value for " + name + ": '" + std::string(value) + "'");
  };
  if (!parseEnv()) return false;
  std::size_t next = 0;  // the positional the next plain token fills
  for (int i = first; i < argc; ++i) {
    const std::string_view token = argv[i];
    const bool is_option = token.size() > 1 && token[0] == '-' &&
                           (token[1] < '0' || token[1] > '9') &&
                           token[1] != '.';
    if (!is_option && rest != nullptr) {
      *rest = i;
      return true;
    }
    if (!is_option) {
      if (next == positionals_.size()) {
        return fail("unexpected argument '" + std::string(token) + "'");
      }
      const Entry& entry = positionals_[next];
      if (!entry.parse(token)) return bad(entry.name, token);
      if (entry.arity != Arity::kAny) ++next;
      continue;
    }
    const std::size_t eq = token.find('=');
    const std::string name(token.substr(0, eq));
    const Entry* entry = nullptr;
    for (const Entry& candidate : options_) {
      if (candidate.name == name) entry = &candidate;
    }
    if (entry == nullptr) return fail("unknown option " + name);
    std::string_view value;
    if (eq != std::string_view::npos) {
      value = token.substr(eq + 1);
      if (!entry->takes_value) return bad(name, value);
    } else if (entry->takes_value) {
      if (i + 1 >= argc) return fail(name + " needs a value");
      value = argv[++i];
    }
    if (!entry->parse(value)) return bad(name, value);
  }
  if (rest != nullptr) *rest = argc;
  for (; rest == nullptr && next < positionals_.size(); ++next) {
    if (positionals_[next].arity == Arity::kOne) {
      return fail("missing " + positionals_[next].name);
    }
  }
  return true;
}

}  // namespace tevot::util

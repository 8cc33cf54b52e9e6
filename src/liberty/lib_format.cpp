#include "liberty/lib_format.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/number.hpp"

namespace tevot::liberty {
namespace {

std::string formatNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Liberty-ish tokenizer: punctuation "{}():;" as single tokens,
/// everything else as atoms; skips whitespace and /* comments */.
class LibertyLexer {
 public:
  explicit LibertyLexer(std::istream& is) : is_(is) {}

  std::string next() {
    skip();
    const int c = is_.get();
    if (c == EOF) return {};
    if (c == '{' || c == '}' || c == '(' || c == ')' || c == ':' ||
        c == ';') {
      return std::string(1, static_cast<char>(c));
    }
    if (c == '"') {
      std::string atom;
      int q;
      while ((q = is_.get()) != EOF && q != '"') {
        atom.push_back(static_cast<char>(q));
      }
      return atom;
    }
    std::string atom(1, static_cast<char>(c));
    while (true) {
      const int p = is_.peek();
      if (p == EOF || std::isspace(static_cast<unsigned char>(p)) ||
          p == '{' || p == '}' || p == '(' || p == ')' || p == ':' ||
          p == ';') {
        break;
      }
      atom.push_back(static_cast<char>(is_.get()));
    }
    return atom;
  }

  std::string expect(const char* what) {
    std::string tok = next();
    if (tok.empty()) {
      throw std::runtime_error(
          std::string("Liberty parse error: unexpected EOF, expected ") +
          what);
    }
    return tok;
  }

  void expectToken(const std::string& literal) {
    const std::string tok = expect(literal.c_str());
    if (tok != literal) {
      throw std::runtime_error("Liberty parse error: expected '" + literal +
                               "', got '" + tok + "'");
    }
  }

 private:
  void skip() {
    while (true) {
      const int p = is_.peek();
      if (p == EOF) return;
      if (std::isspace(static_cast<unsigned char>(p))) {
        is_.get();
        continue;
      }
      if (p == '/') {
        is_.get();
        if (is_.peek() == '*') {
          is_.get();
          int prev = 0, c;
          while ((c = is_.get()) != EOF) {
            if (prev == '*' && c == '/') break;
            prev = c;
          }
          continue;
        }
        is_.unget();
        return;
      }
      return;
    }
  }

  std::istream& is_;
};

double parseNumber(const std::string& token, const std::string& context) {
  // A library carrying a non-finite delay or sensitivity is corrupt.
  double value = 0.0;
  if (!util::parseFinite(token, &value)) {
    throw std::runtime_error("Liberty parse error: bad number '" + token +
                             "' for " + context);
  }
  return value;
}

}  // namespace

void writeLiberty(std::ostream& os, const LibertyLibrary& library) {
  const VtParams& vt = library.vt_params;
  os << "/* tevot cell timing library (generic CMOS delay model) */\n";
  os << "library (" << library.name << ") {\n";
  os << "  delay_model : generic_cmos;\n";
  os << "  time_unit : \"1ps\";\n";
  os << "  nom_voltage : " << formatNumber(vt.vnom) << ";\n";
  os << "  nom_temperature : " << formatNumber(vt.tnom_c) << ";\n";
  os << "  tevot_vth0 : " << formatNumber(vt.vth0) << ";\n";
  os << "  tevot_dvth_dt : " << formatNumber(vt.dvth_dt) << ";\n";
  os << "  tevot_alpha : " << formatNumber(vt.alpha) << ";\n";
  os << "  tevot_mobility_exponent : "
     << formatNumber(vt.mobility_exponent) << ";\n";
  os << "  tevot_vth_sigma : " << formatNumber(vt.vth_sigma) << ";\n";
  for (int k = 0; k < netlist::kCellKindCount; ++k) {
    const auto kind = static_cast<netlist::CellKind>(k);
    const CellTiming& timing = library.cells.timing(kind);
    const CellVtSensitivity& sensitivity =
        library.cells.vtSensitivity(kind);
    os << "  cell (" << netlist::cellName(kind) << ") {\n";
    os << "    tevot_alpha_delta : "
       << formatNumber(sensitivity.alpha_delta) << ";\n";
    os << "    tevot_mobility_delta : "
       << formatNumber(sensitivity.mobility_delta) << ";\n";
    os << "    pin (Y) {\n";
    os << "      direction : output;\n";
    os << "      timing () {\n";
    os << "        intrinsic_rise : "
       << formatNumber(timing.intrinsic_rise_ps) << ";\n";
    os << "        intrinsic_fall : "
       << formatNumber(timing.intrinsic_fall_ps) << ";\n";
    os << "        rise_resistance : "
       << formatNumber(timing.slope_rise_ps) << ";\n";
    os << "        fall_resistance : "
       << formatNumber(timing.slope_fall_ps) << ";\n";
    os << "      }\n";
    os << "    }\n";
    os << "  }\n";
  }
  os << "}\n";
}

std::string toLibertyString(const LibertyLibrary& library) {
  std::ostringstream os;
  writeLiberty(os, library);
  return os.str();
}

void writeLibertyFile(const std::string& path,
                      const LibertyLibrary& library) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("writeLibertyFile: cannot open " + path + ": " +
                             std::strerror(errno));
  }
  writeLiberty(os, library);
}

LibertyLibrary parseLiberty(std::istream& is) {
  LibertyLexer lex(is);
  LibertyLibrary library;
  library.cells = CellLibrary();  // zeroed; file contents fill it in

  lex.expectToken("library");
  lex.expectToken("(");
  library.name = lex.expect("library name");
  lex.expectToken(")");
  lex.expectToken("{");

  auto parseScalar = [&](const std::string& name) {
    lex.expectToken(":");
    const std::string value = lex.expect("attribute value");
    lex.expectToken(";");
    return std::pair<std::string, std::string>{name, value};
  };

  while (true) {
    std::string tok = lex.expect("attribute, cell, or '}'");
    if (tok == "}") break;
    if (tok == "cell") {
      lex.expectToken("(");
      const std::string cell_name = lex.expect("cell name");
      lex.expectToken(")");
      lex.expectToken("{");
      netlist::CellKind kind;
      if (!netlist::cellFromName(cell_name, kind)) {
        throw std::runtime_error("Liberty parse error: unknown cell '" +
                                 cell_name + "'");
      }
      CellTiming timing{};
      CellVtSensitivity sensitivity{};
      while (true) {
        std::string inner = lex.expect("cell attribute, pin, or '}'");
        if (inner == "}") break;
        if (inner == "pin") {
          lex.expectToken("(");
          lex.expect("pin name");
          lex.expectToken(")");
          lex.expectToken("{");
          while (true) {
            std::string pin_tok = lex.expect("pin attribute or '}'");
            if (pin_tok == "}") break;
            if (pin_tok == "timing") {
              lex.expectToken("(");
              lex.expectToken(")");
              lex.expectToken("{");
              while (true) {
                std::string arc = lex.expect("timing attribute or '}'");
                if (arc == "}") break;
                const auto [name, value] = parseScalar(arc);
                const double number = parseNumber(value, name);
                if (name == "intrinsic_rise") {
                  timing.intrinsic_rise_ps = number;
                } else if (name == "intrinsic_fall") {
                  timing.intrinsic_fall_ps = number;
                } else if (name == "rise_resistance") {
                  timing.slope_rise_ps = number;
                } else if (name == "fall_resistance") {
                  timing.slope_fall_ps = number;
                } else {
                  throw std::runtime_error(
                      "Liberty parse error: unsupported timing attribute "
                      "'" +
                      name + "'");
                }
              }
            } else {
              parseScalar(pin_tok);  // e.g. direction — accepted, ignored
            }
          }
        } else {
          const auto [name, value] = parseScalar(inner);
          if (name == "tevot_alpha_delta") {
            sensitivity.alpha_delta = parseNumber(value, name);
          } else if (name == "tevot_mobility_delta") {
            sensitivity.mobility_delta = parseNumber(value, name);
          }
          // Other cell attributes (area, ...) are accepted and ignored.
        }
      }
      library.cells.setTiming(kind, timing);
      library.cells.setVtSensitivity(kind, sensitivity);
      continue;
    }
    // Library-level scalar attribute.
    const auto [name, value] = parseScalar(tok);
    if (name == "nom_voltage") {
      library.vt_params.vnom = parseNumber(value, name);
    } else if (name == "nom_temperature") {
      library.vt_params.tnom_c = parseNumber(value, name);
    } else if (name == "tevot_vth0") {
      library.vt_params.vth0 = parseNumber(value, name);
    } else if (name == "tevot_dvth_dt") {
      library.vt_params.dvth_dt = parseNumber(value, name);
    } else if (name == "tevot_alpha") {
      library.vt_params.alpha = parseNumber(value, name);
    } else if (name == "tevot_mobility_exponent") {
      library.vt_params.mobility_exponent = parseNumber(value, name);
    } else if (name == "tevot_vth_sigma") {
      library.vt_params.vth_sigma = parseNumber(value, name);
    }
    // delay_model / time_unit / unknown scalars: accepted, ignored.
  }
  return library;
}

LibertyLibrary parseLibertyString(const std::string& text) {
  std::istringstream is(text);
  return parseLiberty(is);
}

LibertyLibrary parseLibertyFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("parseLibertyFile: cannot open " + path + ": " +
                             std::strerror(errno));
  }
  return parseLiberty(is);
}

}  // namespace tevot::liberty

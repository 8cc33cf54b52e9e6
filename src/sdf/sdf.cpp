#include "sdf/sdf.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "util/number.hpp"

namespace tevot::sdf {
namespace {

std::string formatPs(double ps) {
  char buf[64];
  // 17 significant digits: doubles round-trip exactly.
  std::snprintf(buf, sizeof(buf), "%.17g", ps);
  return buf;
}

/// Tiny S-expression-ish tokenizer over SDF text.
class Lexer {
 public:
  explicit Lexer(std::istream& is) : is_(is) {}

  /// Token kinds: "(", ")", or an atom (word/number/quoted string).
  std::string next() {
    skipSpace();
    const int c = is_.get();
    if (c == EOF) return {};
    if (c == '(' || c == ')') return std::string(1, static_cast<char>(c));
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
      if (p == EOF || p == '(' || p == ')' ||
          std::isspace(static_cast<unsigned char>(p))) {
        break;
      }
      atom.push_back(static_cast<char>(is_.get()));
    }
    return atom;
  }

  std::string expect(const std::string& what) {
    std::string tok = next();
    if (tok.empty()) {
      throw std::runtime_error("SDF parse error: unexpected EOF, expected " +
                               what);
    }
    return tok;
  }

  void expectToken(const std::string& literal) {
    const std::string tok = expect("'" + literal + "'");
    if (tok != literal) {
      throw std::runtime_error("SDF parse error: expected '" + literal +
                               "', got '" + tok + "'");
    }
  }

 private:
  void skipSpace() {
    while (true) {
      const int p = is_.peek();
      if (p == EOF) return;
      if (std::isspace(static_cast<unsigned char>(p))) {
        is_.get();
        continue;
      }
      // // comments (not standard SDF but harmless to accept)
      if (p == '/') {
        is_.get();
        if (is_.peek() == '/') {
          std::string line;
          std::getline(is_, line);
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

double parseDouble(const std::string& tok, const char* context) {
  // A delay file carrying "nan" or "inf" is garbage, never a valid
  // annotation.
  double value = 0.0;
  if (!util::parseFinite(tok, &value)) {
    throw std::runtime_error(std::string("SDF parse error: bad number '") +
                             tok + "' in " + context);
  }
  return value;
}

/// Parses "(v:v:v)" with the opening paren already consumed by caller
/// logic; here we consume from "(" through ")" and return typ.
double parseTriple(Lexer& lex, const char* context) {
  lex.expectToken("(");
  const std::string triple = lex.expect("min:typ:max triple");
  lex.expectToken(")");
  const std::size_t first = triple.find(':');
  const std::size_t second = triple.rfind(':');
  if (first == std::string::npos || second == first) {
    throw std::runtime_error(
        std::string("SDF parse error: malformed triple in ") + context);
  }
  const double min = parseDouble(triple.substr(0, first), context);
  const double typ =
      parseDouble(triple.substr(first + 1, second - first - 1), context);
  const double max = parseDouble(triple.substr(second + 1), context);
  if (min != typ || typ != max) {
    throw std::runtime_error(
        std::string("SDF parse error: unequal min:typ:max in ") + context);
  }
  // A negative delay would schedule a transition before its cause,
  // which the event simulator cannot order.
  if (typ < 0.0) {
    throw std::runtime_error(std::string("SDF parse error: negative delay '") +
                             triple + "' in " + context);
  }
  return typ;
}

}  // namespace

void writeSdf(std::ostream& os, const netlist::Netlist& nl,
              const liberty::CornerDelays& delays) {
  if (delays.gateCount() != nl.gateCount()) {
    throw std::invalid_argument("writeSdf: delay annotation mismatch");
  }
  os << "(DELAYFILE\n";
  os << "  (SDFVERSION \"3.0\")\n";
  os << "  (DESIGN \"" << nl.name() << "\")\n";
  os << "  (VOLTAGE " << formatPs(delays.corner.voltage) << ":"
     << formatPs(delays.corner.voltage) << ":"
     << formatPs(delays.corner.voltage) << ")\n";
  os << "  (TEMPERATURE " << formatPs(delays.corner.temperature) << ":"
     << formatPs(delays.corner.temperature) << ":"
     << formatPs(delays.corner.temperature) << ")\n";
  os << "  (TIMESCALE 1ps)\n";
  for (netlist::GateId g = 0; g < nl.gateCount(); ++g) {
    const netlist::Gate& gate = nl.gate(g);
    os << "  (CELL\n";
    os << "    (CELLTYPE \"" << netlist::cellName(gate.kind) << "\")\n";
    os << "    (INSTANCE g" << g << ")\n";
    os << "    (DELAY (ABSOLUTE\n";
    os << "      (IOPATH * " << nl.netDisplayName(gate.out) << " ("
       << formatPs(delays.rise_ps[g]) << ":" << formatPs(delays.rise_ps[g])
       << ":" << formatPs(delays.rise_ps[g]) << ") ("
       << formatPs(delays.fall_ps[g]) << ":" << formatPs(delays.fall_ps[g])
       << ":" << formatPs(delays.fall_ps[g]) << "))\n";
    os << "    ))\n";
    os << "  )\n";
  }
  os << ")\n";
}

std::string toSdfString(const netlist::Netlist& nl,
                        const liberty::CornerDelays& delays) {
  std::ostringstream os;
  writeSdf(os, nl, delays);
  return os.str();
}

liberty::CornerDelays parseSdf(std::istream& is, const netlist::Netlist& nl) {
  Lexer lex(is);
  liberty::CornerDelays delays;
  delays.rise_ps.assign(nl.gateCount(), 0.0);
  delays.fall_ps.assign(nl.gateCount(), 0.0);
  std::vector<bool> seen(nl.gateCount(), false);

  lex.expectToken("(");
  lex.expectToken("DELAYFILE");
  std::size_t cells_seen = 0;
  while (true) {
    std::string tok = lex.expect("header entry, CELL, or ')'");
    if (tok == ")") break;
    if (tok != "(") {
      throw std::runtime_error("SDF parse error: expected '(', got '" + tok +
                               "'");
    }
    const std::string keyword = lex.expect("section keyword");
    if (keyword == "SDFVERSION" || keyword == "TIMESCALE" ||
        keyword == "DESIGN") {
      const std::string value = lex.expect("header value");
      if (keyword == "DESIGN" && value != nl.name()) {
        throw std::runtime_error("SDF parse error: DESIGN '" + value +
                                 "' does not match netlist '" + nl.name() +
                                 "'");
      }
      lex.expectToken(")");
    } else if (keyword == "VOLTAGE" || keyword == "TEMPERATURE") {
      const std::string triple = lex.expect("triple");
      const std::size_t colon = triple.find(':');
      const double value =
          parseDouble(colon == std::string::npos ? triple
                                                 : triple.substr(0, colon),
                      keyword.c_str());
      if (keyword == "VOLTAGE") {
        delays.corner.voltage = value;
      } else {
        delays.corner.temperature = value;
      }
      lex.expectToken(")");
    } else if (keyword == "CELL") {
      // (CELLTYPE "...") (INSTANCE gN) (DELAY (ABSOLUTE (IOPATH ...)))
      lex.expectToken("(");
      lex.expectToken("CELLTYPE");
      const std::string celltype = lex.expect("cell type");
      lex.expectToken(")");
      lex.expectToken("(");
      lex.expectToken("INSTANCE");
      const std::string instance = lex.expect("instance name");
      lex.expectToken(")");
      netlist::GateId gate_id = 0;
      if (instance.empty() || instance[0] != 'g' ||
          !util::parseWhole(std::string_view(instance).substr(1), &gate_id)) {
        throw std::runtime_error("SDF parse error: bad instance '" +
                                 instance + "'");
      }
      if (gate_id >= nl.gateCount()) {
        throw std::runtime_error("SDF parse error: instance '" + instance +
                                 "' not in netlist");
      }
      if (seen[gate_id]) {
        throw std::runtime_error("SDF parse error: duplicate instance '" +
                                 instance + "'");
      }
      seen[gate_id] = true;
      netlist::CellKind kind;
      if (!netlist::cellFromName(celltype, kind) ||
          kind != nl.gate(gate_id).kind) {
        throw std::runtime_error("SDF parse error: CELLTYPE '" + celltype +
                                 "' contradicts netlist for " + instance);
      }
      lex.expectToken("(");
      lex.expectToken("DELAY");
      lex.expectToken("(");
      lex.expectToken("ABSOLUTE");
      lex.expectToken("(");
      lex.expectToken("IOPATH");
      lex.expect("input port spec");   // "*"
      lex.expect("output port name");  // display name, unused
      delays.rise_ps[gate_id] = parseTriple(lex, "IOPATH rise");
      delays.fall_ps[gate_id] = parseTriple(lex, "IOPATH fall");
      lex.expectToken(")");  // IOPATH
      lex.expectToken(")");  // ABSOLUTE
      lex.expectToken(")");  // DELAY
      lex.expectToken(")");  // CELL
      ++cells_seen;
    } else {
      throw std::runtime_error("SDF parse error: unsupported section '" +
                               keyword + "'");
    }
  }
  if (cells_seen != nl.gateCount()) {
    throw std::runtime_error(
        "SDF parse error: cell count does not match netlist");
  }
  return delays;
}

liberty::CornerDelays parseSdfString(const std::string& text,
                                     const netlist::Netlist& nl) {
  std::istringstream is(text);
  return parseSdf(is, nl);
}

void writeSdfFile(const std::string& path, const netlist::Netlist& nl,
                  const liberty::CornerDelays& delays) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("writeSdfFile: cannot open " + path + ": " +
                             std::strerror(errno));
  }
  writeSdf(os, nl, delays);
}

liberty::CornerDelays parseSdfFile(const std::string& path,
                                   const netlist::Netlist& nl) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("parseSdfFile: cannot open " + path + ": " +
                             std::strerror(errno));
  }
  return parseSdf(is, nl);
}

}  // namespace tevot::sdf

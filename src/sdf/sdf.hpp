// Minimal Standard Delay Format (SDF) writer and parser.
//
// The paper's flow emits one SDF file per (V,T) corner from PrimeTime
// and back-annotates gate-level simulation with it. We reproduce that
// file boundary: liberty::CornerDelays can be serialized to an
// SDF 3.0-style text file (header + one CELL/IOPATH block per gate)
// and parsed back bit-exactly (delays are printed with enough digits
// to round-trip).
//
// Supported subset: DELAYFILE header fields (SDFVERSION, DESIGN,
// VOLTAGE, TEMPERATURE, TIMESCALE), per-gate CELL blocks with CELLTYPE,
// INSTANCE and a single ABSOLUTE IOPATH carrying (rise)(fall) triples
// with equal min:typ:max. This matches what the simulator consumes;
// interconnect delays, conditional paths and timing checks are out of
// scope and rejected by the parser.
#pragma once

#include <iosfwd>
#include <string>

#include "liberty/corner.hpp"
#include "netlist/netlist.hpp"

namespace tevot::sdf {

/// Writes `delays` for `nl` as SDF text.
void writeSdf(std::ostream& os, const netlist::Netlist& nl,
              const liberty::CornerDelays& delays);

/// Convenience: SDF text as a string.
std::string toSdfString(const netlist::Netlist& nl,
                        const liberty::CornerDelays& delays);

/// Parses SDF text produced by writeSdf back into CornerDelays for the
/// same netlist. Throws std::runtime_error with a line-ish diagnostic
/// on malformed input, on a non-finite or negative delay, on a DESIGN
/// name mismatch, on a gate-count mismatch, or on a CELLTYPE that
/// contradicts the netlist.
liberty::CornerDelays parseSdf(std::istream& is, const netlist::Netlist& nl);

liberty::CornerDelays parseSdfString(const std::string& text,
                                     const netlist::Netlist& nl);

/// Writes to / reads from a file path.
void writeSdfFile(const std::string& path, const netlist::Netlist& nl,
                  const liberty::CornerDelays& delays);
liberty::CornerDelays parseSdfFile(const std::string& path,
                                   const netlist::Netlist& nl);

}  // namespace tevot::sdf

#include "check/sim_queue_oracle.hpp"

#include <bit>
#include <sstream>
#include <tuple>

#include "check/oracles.hpp"
#include "check/property.hpp"
#include "circuits/fu.hpp"
#include "dta/workload.hpp"
#include "sim/timing_sim.hpp"
#include "tevot/operating_grid.hpp"

namespace tevot::check {
namespace {

/// One ToggleObserver callback; the time as bits so -0.0 and NaN
/// payloads cannot hide a difference.
using Callback = std::tuple<std::uint64_t, netlist::NetId, bool>;

template <typename Simulator>
void attach(Simulator& simulator, std::vector<Callback>* callbacks) {
  // A non-integral window keeps the absolute times' low bits busy.
  simulator.setToggleObserver(
      [callbacks](double time_ps, netlist::NetId net, bool value) {
        callbacks->emplace_back(std::bit_cast<std::uint64_t>(time_ps), net,
                                value);
      },
      1e4 + 0.375);
}

bool sameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Empty when equal, else the first differing field.
std::string recordDiff(const sim::CycleRecord& wheel,
                       const sim::CycleRecord& heap) {
  std::ostringstream diff;
  if (!sameBits(wheel.dynamic_delay_ps, heap.dynamic_delay_ps)) {
    diff << "dynamic delay " << wheel.dynamic_delay_ps << " vs "
         << heap.dynamic_delay_ps << " ps";
  } else if (wheel.start_word != heap.start_word) {
    diff << "start word " << wheel.start_word << " vs " << heap.start_word;
  } else if (wheel.settled_word != heap.settled_word) {
    diff << "settled word " << wheel.settled_word << " vs "
         << heap.settled_word;
  } else if (wheel.events_processed != heap.events_processed) {
    diff << "events " << wheel.events_processed << " vs "
         << heap.events_processed;
  } else if (wheel.output_toggles.size() != heap.output_toggles.size()) {
    diff << wheel.output_toggles.size() << " vs "
         << heap.output_toggles.size() << " output toggles";
  } else {
    for (std::size_t i = 0; i < wheel.output_toggles.size(); ++i) {
      const sim::ToggleEvent& w = wheel.output_toggles[i];
      const sim::ToggleEvent& h = heap.output_toggles[i];
      if (!sameBits(w.time_ps, h.time_ps) || w.output_bit != h.output_bit ||
          w.value != h.value) {
        diff << "output toggle " << i << ": bit " << w.output_bit << "="
             << w.value << " at " << w.time_ps << " ps vs bit "
             << h.output_bit << "=" << h.value << " at " << h.time_ps
             << " ps";
        break;
      }
    }
  }
  return diff.str();
}

/// Gate delays drawn from a few integers so many events tie, with
/// occasional zero arcs; or one delay everywhere; or all zero; or
/// continuous values with occasional zeros.
liberty::CornerDelays tieHeavyDelays(util::Rng& rng,
                                     const netlist::Netlist& nl,
                                     std::string* kind) {
  liberty::CornerDelays delays = randomDelays(rng, nl);
  std::vector<double> values;
  double zero_p = 0.0;
  switch (rng.nextBelow(4)) {
    case 0: {
      const int distinct = 1 + static_cast<int>(rng.nextBelow(4));
      for (int i = 0; i < distinct; ++i) {
        values.push_back(static_cast<double>(1 + rng.nextBelow(8)));
      }
      zero_p = 0.1;
      *kind = "quantized";
      break;
    }
    case 1:
      values.push_back(static_cast<double>(1 + rng.nextBelow(50)));
      *kind = "single-delay";
      break;
    case 2:
      values.push_back(0.0);
      *kind = "all-zero";
      break;
    default:
      zero_p = 0.05;
      *kind = "continuous";
      break;
  }
  for (std::vector<double>* arcs : {&delays.rise_ps, &delays.fall_ps}) {
    for (double& delay : *arcs) {
      if (!values.empty()) delay = values[rng.nextBelow(values.size())];
      if (rng.nextBool(zero_p)) delay = 0.0;
    }
  }
  return delays;
}

}  // namespace

void expectSameSimulation(const netlist::Netlist& nl,
                          const liberty::CornerDelays& delays,
                          std::span<const std::vector<std::uint8_t>> vectors,
                          const std::string& label) {
  sim::TimingSimulator wheel(nl, delays);
  sim::HeapTimingSimulator heap(nl, delays);
  std::vector<Callback> wheel_calls, heap_calls;
  attach(wheel, &wheel_calls);
  attach(heap, &heap_calls);
  wheel.reset(vectors.front());
  heap.reset(vectors.front());
  for (std::size_t cycle = 1; cycle < vectors.size(); ++cycle) {
    const sim::CycleRecord w = wheel.step(vectors[cycle]);
    const sim::CycleRecord h = heap.step(vectors[cycle]);
    std::string diff = recordDiff(w, h);
    if (diff.empty() && wheel_calls != heap_calls) {
      diff = "toggle observer streams differ (" +
             std::to_string(wheel_calls.size()) + " vs " +
             std::to_string(heap_calls.size()) + " callbacks)";
    }
    if (!diff.empty()) {
      throw PropertyViolation(label + " cycle " + std::to_string(cycle) +
                              ": wheel vs heap " + diff);
    }
    wheel_calls.clear();
    heap_calls.clear();
  }
}

void checkSimQueueOnRandomNetlist(std::uint64_t seed, util::Rng& rng) {
  const netlist::Netlist nl = randomNetlist(rng);
  nl.validate();
  std::string kind;
  const liberty::CornerDelays delays = tieHeavyDelays(rng, nl, &kind);
  // Random activity, or a few input flips per cycle (including none).
  const double flip_p = rng.nextBool() ? 0.4 : 0.05;
  std::vector<std::vector<std::uint8_t>> vectors(31);
  std::vector<std::uint8_t> inputs(nl.inputs().size());
  for (std::vector<std::uint8_t>& vector : vectors) {
    for (auto& bit : inputs) {
      if (rng.nextBool(flip_p)) bit ^= 1;
    }
    vector = inputs;
  }
  expectSameSimulation(nl, delays, vectors,
                       "sim-queue seed " + std::to_string(seed) + " " +
                           kind + " delays");
}

void checkSimQueueOnFu(core::FuContext& context, std::uint64_t seed,
                       util::Rng& rng, int cycles) {
  const std::vector<liberty::Corner> corners =
      core::OperatingGrid::paper().corners();
  const liberty::Corner corner = corners[rng.nextBelow(corners.size())];
  // Annotated here rather than through the context's cache, which
  // would keep every Table I corner alive across seeds.
  const liberty::CornerDelays delays = liberty::annotateCorner(
      context.netlist(), context.library(), context.vtModel(), corner);
  std::ostringstream where;
  where << "sim-queue seed " << seed << " "
        << circuits::fuName(context.kind()) << " @ (" << corner.voltage
        << " V, " << corner.temperature << " C)";

  const dta::Workload random = dta::randomWorkloadFor(
      context.kind(), static_cast<std::size_t>(cycles) + 1, rng);
  std::vector<std::vector<std::uint8_t>> vectors;
  for (const dta::OperandPair& op : random.ops) {
    vectors.push_back(circuits::encodeOperands(op.a, op.b));
  }
  expectSameSimulation(context.netlist(), delays, vectors,
                       where.str() + " random");

  // Low activity: each cycle repeats the previous operands or flips
  // one operand bit.
  vectors.assign(1, vectors.back());
  dta::OperandPair op = random.ops.back();
  for (int c = 0; c < cycles; ++c) {
    if (rng.nextBool(0.75)) {
      const std::uint32_t bit = std::uint32_t{1} << rng.nextBelow(32);
      (rng.nextBool() ? op.a : op.b) ^= bit;
    }
    vectors.push_back(circuits::encodeOperands(op.a, op.b));
  }
  expectSameSimulation(context.netlist(), delays, vectors,
                       where.str() + " low-activity");
}

}  // namespace tevot::check

// Event-driven gate-level timing simulation.
//
// Substitutes for ModelSim back-annotated simulation in the paper's
// flow. Given a netlist and one corner's annotated delays (the SDF
// content), the simulator applies an input vector per cycle, schedules
// gate output transitions with per-gate rise/fall delays under
// inertial-delay semantics (a newly scheduled transition on a net
// cancels a pending one — pulses narrower than a gate's delay are
// swallowed, as in real cells and in ModelSim's default), and records
// every toggle of the primary-output nets with its timestamp.
//
// The per-cycle *dynamic delay* — the paper's D[t] — is the time of
// the last toggle at the inputs of the sequential elements (here: the
// registered primary outputs) relative to the cycle's launching clock
// edge. The value actually latched at a clock period tclk is the
// output word as of time tclk, reconstructable from the toggle log;
// comparing it with the settled word yields the ground-truth
// timing-error label.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "liberty/corner.hpp"
#include "netlist/netlist.hpp"
#include "sim/event_queue.hpp"

namespace tevot::sim {

/// One observed output-bit transition within a cycle.
struct ToggleEvent {
  double time_ps;
  std::uint32_t output_bit;  ///< index into Netlist::outputs()
  bool value;
};

/// Output words (start/settled/latched) hold at most the first 64
/// primary outputs. Wider FUs (e.g. a 32x32 product plus flags) still
/// record every toggle, but bits >= kOutputWordBits have no slot in
/// the 64-bit words and are excluded from word-level comparisons.
inline constexpr std::uint32_t kOutputWordBits = 64;

/// Applies every toggle with time <= tclk_ps to `start_word` and
/// returns the resulting word — what a register bank clocked with
/// period tclk_ps would capture. Toggles of output bits >=
/// kOutputWordBits are ignored (see above); without the guard the
/// shift would be undefined behavior.
std::uint64_t latchWord(std::uint64_t start_word,
                        std::span<const ToggleEvent> toggles,
                        double tclk_ps);

/// Result of simulating one cycle (one input vector application).
struct CycleRecord {
  /// Time of the last primary-output toggle [ps]; 0 when no output
  /// toggled (the previous result was recomputed identically).
  double dynamic_delay_ps = 0.0;
  /// Output word before this cycle's input was applied (LSB first).
  std::uint64_t start_word = 0;
  /// Fully settled output word of this cycle.
  std::uint64_t settled_word = 0;
  /// Time-ordered toggles of the primary outputs.
  std::vector<ToggleEvent> output_toggles;
  /// Simulation events processed this cycle (for cost accounting).
  std::uint64_t events_processed = 0;

  /// Output word a register bank would capture at clock period
  /// `tclk_ps`: start_word updated by all toggles at time <= tclk_ps.
  std::uint64_t latchedWord(double tclk_ps) const;

  /// True when latching at `tclk_ps` yields a wrong (stale) word —
  /// the paper's per-cycle "timing erroneous" ground truth.
  bool timingError(double tclk_ps) const {
    return latchedWord(tclk_ps) != settled_word;
  }
};

/// Observes every net toggle (absolute time): used for VCD dumping.
using ToggleObserver =
    std::function<void(double time_ps, netlist::NetId net, bool value)>;

/// Event-driven simulator over one netlist and corner annotation.
/// `Queue` orders the pending transitions (see event_queue.hpp); every
/// queue pops in (time, seq) order, so the choice changes speed only.
/// Use TimingSimulator; HeapTimingSimulator is the reference the
/// differential oracle checks it against.
template <typename Queue>
class BasicTimingSimulator {
 public:
  /// Both references must outlive the simulator. Throws
  /// std::invalid_argument when `delays` does not match `nl` or holds
  /// a negative, NaN or infinite delay (or delays whose sum is not
  /// finite).
  BasicTimingSimulator(const netlist::Netlist& nl,
                       const liberty::CornerDelays& delays);

  /// Initializes every net to its settled functional value for
  /// `inputs` without recording toggles. Must be called before the
  /// first step().
  void reset(std::span<const std::uint8_t> inputs);

  /// Applies a new input vector at the cycle's clock edge (relative
  /// time 0) and propagates to quiescence.
  CycleRecord step(std::span<const std::uint8_t> inputs);

  /// Installs an observer receiving *absolute* toggle times
  /// (cycle_index * window + intra-cycle time). `window_ps` spaces the
  /// cycles; pass the characterization clock period. Pass nullptr to
  /// detach.
  void setToggleObserver(ToggleObserver observer, double window_ps);

  /// Cycles stepped so far (not reset by reset()).
  std::uint64_t cycleCount() const { return cycle_count_; }

  /// Current settled value of a net (valid after reset()).
  bool netValue(netlist::NetId net) const { return net_values_[net] != 0; }

  /// Total events processed since construction.
  std::uint64_t totalEvents() const { return total_events_; }

 private:
  void scheduleFanout(netlist::NetId net, double now_ps);
  void pushEvent(double time_ps, netlist::NetId net, bool value);

  const netlist::Netlist& nl_;
  const liberty::CornerDelays& delays_;
  std::vector<std::uint8_t> net_values_;
  /// Latest schedule sequence per net; an event is stale (cancelled)
  /// unless its seq matches. Implements inertial-delay preemption.
  std::vector<std::uint64_t> latest_seq_;
  Queue queue_;
  std::uint64_t next_seq_ = 0;
  std::vector<std::uint8_t> prev_inputs_;
  bool initialized_ = false;
  std::uint64_t cycle_count_ = 0;
  std::uint64_t total_events_ = 0;
  ToggleObserver observer_;
  double observer_window_ps_ = 0.0;
  /// Maps NetId -> output bit index + 1 (0 = not an output).
  std::vector<std::uint32_t> output_index_;
};

extern template class BasicTimingSimulator<TimeWheelQueue>;
extern template class BasicTimingSimulator<HeapEventQueue>;

/// The simulator every flow uses.
using TimingSimulator = BasicTimingSimulator<TimeWheelQueue>;
/// Binary-heap reference, for differential checks only.
using HeapTimingSimulator = BasicTimingSimulator<HeapEventQueue>;

}  // namespace tevot::sim

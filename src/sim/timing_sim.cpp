#include "sim/timing_sim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace tevot::sim {

using netlist::Gate;
using netlist::GateId;
using netlist::kNoGate;
using netlist::NetId;

std::uint64_t latchWord(std::uint64_t start_word,
                        std::span<const ToggleEvent> toggles,
                        double tclk_ps) {
  std::uint64_t word = start_word;
  for (const ToggleEvent& toggle : toggles) {
    if (toggle.time_ps > tclk_ps) break;
    if (toggle.output_bit >= kOutputWordBits) continue;  // no word slot
    const std::uint64_t mask = 1ULL << toggle.output_bit;
    if (toggle.value) {
      word |= mask;
    } else {
      word &= ~mask;
    }
  }
  return word;
}

std::uint64_t CycleRecord::latchedWord(double tclk_ps) const {
  return latchWord(start_word, output_toggles, tclk_ps);
}

namespace {

/// The annotation the queues rely on: one rise/fall pair per gate,
/// each finite and non-negative, so no event is scheduled before the
/// one that caused it; and a finite sum, which bounds every event time
/// (a causal chain visits each gate of the DAG at most once).
const liberty::CornerDelays& checkedDelays(
    const netlist::Netlist& nl, const liberty::CornerDelays& delays) {
  if (delays.gateCount() != nl.gateCount() ||
      delays.fall_ps.size() != nl.gateCount()) {
    throw std::invalid_argument(
        "TimingSimulator: delay annotation does not match netlist");
  }
  double sum = 0.0;
  for (std::size_t g = 0; g < delays.gateCount(); ++g) {
    for (const double delay : {delays.rise_ps[g], delays.fall_ps[g]}) {
      if (!(delay >= 0.0) || !std::isfinite(delay)) {
        throw std::invalid_argument(
            "TimingSimulator: gate " + std::to_string(g) +
            " has a negative or non-finite delay");
      }
    }
    sum += std::max(delays.rise_ps[g], delays.fall_ps[g]);
  }
  if (!std::isfinite(sum)) {
    throw std::invalid_argument(
        "TimingSimulator: delay annotation sums past the double range");
  }
  return delays;
}

}  // namespace

template <typename Queue>
BasicTimingSimulator<Queue>::BasicTimingSimulator(
    const netlist::Netlist& nl, const liberty::CornerDelays& delays)
    : nl_(nl), delays_(checkedDelays(nl, delays)), queue_(delays_) {
  net_values_.assign(nl.netCount(), 0);
  latest_seq_.assign(nl.netCount(), 0);
  output_index_.assign(nl.netCount(), 0);
  const auto outputs = nl.outputs();
  for (std::uint32_t i = 0; i < outputs.size(); ++i) {
    output_index_[outputs[i]] = i + 1;
  }
}

template <typename Queue>
void BasicTimingSimulator<Queue>::setToggleObserver(ToggleObserver observer,
                                                    double window_ps) {
  observer_ = std::move(observer);
  observer_window_ps_ = window_ps;
}

template <typename Queue>
void BasicTimingSimulator<Queue>::reset(std::span<const std::uint8_t> inputs) {
  net_values_ = nl_.evalFunctional(inputs);
  prev_inputs_.assign(inputs.begin(), inputs.end());
  queue_.clear();
  std::fill(latest_seq_.begin(), latest_seq_.end(), 0);
  initialized_ = true;
}

template <typename Queue>
void BasicTimingSimulator<Queue>::pushEvent(double time_ps, NetId net,
                                            bool value) {
  ++next_seq_;
  latest_seq_[net] = next_seq_;
  queue_.push(SimEvent{time_ps, next_seq_, net,
                       value ? std::uint8_t{1} : std::uint8_t{0}});
}

template <typename Queue>
void BasicTimingSimulator<Queue>::scheduleFanout(NetId net, double now_ps) {
  for (const GateId g : nl_.fanout(net)) {
    const Gate& gate = nl_.gate(g);
    const bool a = gate.fanin > 0 && net_values_[gate.in[0]] != 0;
    const bool b = gate.fanin > 1 && net_values_[gate.in[1]] != 0;
    const bool c = gate.fanin > 2 && net_values_[gate.in[2]] != 0;
    const bool new_value = netlist::evalCell(gate.kind, a, b, c);
    const bool current = net_values_[gate.out] != 0;
    // Only schedule when the projected value differs from the present
    // one, or when a pending (possibly stale) transition needs to be
    // superseded back to the current value.
    const bool has_pending = latest_seq_[gate.out] != 0;
    if (new_value == current && !has_pending) continue;
    const double delay =
        new_value ? delays_.rise_ps[g] : delays_.fall_ps[g];
    pushEvent(now_ps + delay, gate.out, new_value);
  }
}

template <typename Queue>
CycleRecord BasicTimingSimulator<Queue>::step(
    std::span<const std::uint8_t> inputs) {
  if (!initialized_) {
    throw std::logic_error("TimingSimulator: step before reset");
  }
  const auto input_nets = nl_.inputs();
  if (inputs.size() != input_nets.size()) {
    throw std::invalid_argument("TimingSimulator: input arity mismatch");
  }

  // Each cycle starts at time 0 on an empty queue.
  queue_.clear();
  CycleRecord record;
  const auto outputs = nl_.outputs();
  // Words intentionally hold only the first kOutputWordBits outputs;
  // see the comment on kOutputWordBits.
  for (std::uint32_t i = 0; i < outputs.size() && i < kOutputWordBits; ++i) {
    if (net_values_[outputs[i]]) record.start_word |= (1ULL << i);
  }

  const double cycle_base =
      observer_ ? static_cast<double>(cycle_count_) * observer_window_ps_
                : 0.0;

  // Launch: apply changed input bits at the clock edge (t = 0).
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const bool new_value = inputs[i] != 0;
    const bool old_value = prev_inputs_[i] != 0;
    if (new_value == old_value) continue;
    net_values_[input_nets[i]] = new_value ? 1 : 0;
    if (observer_) observer_(cycle_base, input_nets[i], new_value);
    // A primary input marked as a primary output is a zero-delay arc:
    // STA seeds its arrival at 0, so the simulator must record its
    // transition as an output toggle at the clock edge itself.
    // Without this, latchedWord() never sees the transition and every
    // cycle reads as a stale-value timing error (check repro seed 1,
    // tests/check/sim_vs_sta_test.cpp).
    const std::uint32_t out_slot = output_index_[input_nets[i]];
    if (out_slot != 0) {
      record.output_toggles.push_back(
          ToggleEvent{0.0, out_slot - 1, new_value});
    }
    scheduleFanout(input_nets[i], 0.0);
  }
  prev_inputs_.assign(inputs.begin(), inputs.end());

  // Propagate to quiescence.
  while (!queue_.empty()) {
    const SimEvent event = queue_.pop();
    ++record.events_processed;
    if (latest_seq_[event.net] != event.seq) continue;  // superseded
    latest_seq_[event.net] = 0;
    const bool value = event.value != 0;
    if ((net_values_[event.net] != 0) == value) continue;  // no toggle
    net_values_[event.net] = value ? 1 : 0;
    if (observer_) observer_(cycle_base + event.time_ps, event.net, value);
    const std::uint32_t out_slot = output_index_[event.net];
    if (out_slot != 0) {
      record.output_toggles.push_back(
          ToggleEvent{event.time_ps, out_slot - 1, value});
      record.dynamic_delay_ps =
          std::max(record.dynamic_delay_ps, event.time_ps);
    }
    scheduleFanout(event.net, event.time_ps);
  }

  for (std::uint32_t i = 0; i < outputs.size() && i < kOutputWordBits; ++i) {
    if (net_values_[outputs[i]]) record.settled_word |= (1ULL << i);
  }
  ++cycle_count_;
  total_events_ += record.events_processed;
  return record;
}

template class BasicTimingSimulator<TimeWheelQueue>;
template class BasicTimingSimulator<HeapEventQueue>;

}  // namespace tevot::sim

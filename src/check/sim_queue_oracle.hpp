// Time-wheel vs binary-heap differential oracle.
//
// Contract being checked: sim::TimingSimulator (time-wheel queue) and
// sim::HeapTimingSimulator (binary-heap reference) are observationally
// identical. On the same netlist, annotation and input stream, every
// cycle's CycleRecord matches field for field — dynamic delay and
// toggle times bit for bit, the toggle order, the start/settled words,
// and events_processed including superseded pops — and so do the
// ToggleObserver callback streams (time, net, value, in order).
//
// The annotations are chosen to stress the wheel's order within a
// timestamp: delays quantized to a few integer values (so many events
// share a time), some zero delays (events landing in the bucket being
// drained), a single distinct delay, and all-zero delays. The FU
// property runs all four FUs at a random Table I corner on a random
// and a low-activity workload.
//
// Every property draws its randomness from the Rng it is handed, so a
// divergence reproduces from `tevot_cli check 1 --seed N`.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "liberty/corner.hpp"
#include "netlist/netlist.hpp"
#include "tevot/pipeline.hpp"
#include "util/rng.hpp"

namespace tevot::check {

/// Resets both simulators to `vectors[0]`, steps them through the
/// rest, and throws PropertyViolation naming `label` and the cycle at
/// the first difference.
void expectSameSimulation(const netlist::Netlist& nl,
                          const liberty::CornerDelays& delays,
                          std::span<const std::vector<std::uint8_t>> vectors,
                          const std::string& label);

/// Random netlist with a tie-heavy annotation (see above).
void checkSimQueueOnRandomNetlist(std::uint64_t seed, util::Rng& rng);

/// `context`'s FU at a random Table I corner, on a random and a
/// low-activity workload of `cycles` cycles each.
void checkSimQueueOnFu(core::FuContext& context, std::uint64_t seed,
                       util::Rng& rng, int cycles = 8);

}  // namespace tevot::check

// Time-wheel vs heap differential oracle as a ctest suite: random
// netlists with tie-heavy annotations, all four FUs at random Table I
// corners, and fixed annotations with a single distinct delay and with
// zero delays.
#include "check/sim_queue_oracle.hpp"

#include <gtest/gtest.h>

#include "check/oracles.hpp"
#include "check/property.hpp"

namespace tevot::check {
namespace {

TEST(SimQueueOracleTest, RandomNetlistsMatchTheHeap) {
  const PropertyResult result =
      forAllSeeds(150, checkSimQueueOnRandomNetlist);
  EXPECT_TRUE(result.ok) << result.report("sim-queue/random-netlist");
}

TEST(SimQueueOracleTest, AllFusMatchTheHeap) {
  for (const circuits::FuKind kind : circuits::kAllFus) {
    core::FuContext context(kind);
    const PropertyResult result = forAllSeeds(
        4, [&context](std::uint64_t seed, util::Rng& rng) {
          checkSimQueueOnFu(context, seed, rng);
        });
    EXPECT_TRUE(result.ok)
        << result.report("sim-queue/" +
                         std::string(circuits::fuName(kind)));
  }
}

/// Random netlist and 40 input vectors with every arc set by `delay`.
void expectSameWithDelays(std::uint64_t seed,
                          double (*delay)(util::Rng&)) {
  util::Rng rng(seed);
  const netlist::Netlist nl = randomNetlist(rng);
  liberty::CornerDelays delays = randomDelays(rng, nl);
  for (std::vector<double>* arcs : {&delays.rise_ps, &delays.fall_ps}) {
    for (double& arc : *arcs) arc = delay(rng);
  }
  std::vector<std::vector<std::uint8_t>> vectors(41);
  std::vector<std::uint8_t> inputs(nl.inputs().size());
  for (std::vector<std::uint8_t>& vector : vectors) {
    for (auto& bit : inputs) bit ^= rng.nextBool(0.4) ? 1 : 0;
    vector = inputs;
  }
  expectSameSimulation(nl, delays, vectors,
                       "fixed annotation seed " + std::to_string(seed));
}

TEST(SimQueueOracleTest, SingleDistinctDelayMatchesTheHeap) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    EXPECT_NO_THROW(expectSameWithDelays(
        seed, [](util::Rng&) { return 12.5; }));
  }
}

TEST(SimQueueOracleTest, ZeroDelaysMatchTheHeap) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    EXPECT_NO_THROW(expectSameWithDelays(
        seed, [](util::Rng&) { return 0.0; }));
    EXPECT_NO_THROW(expectSameWithDelays(seed, [](util::Rng& rng) {
      return rng.nextBool(0.3) ? 0.0 : 10.0;
    }));
  }
}

}  // namespace
}  // namespace tevot::check

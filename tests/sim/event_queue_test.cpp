// Event-queue tests: the time wheel pops in the heap's (time, seq)
// order under random push/pop interleavings with heavy ties and zero
// delays; its bucket width and slot count follow the annotation; and
// the simulator refuses annotations the queues cannot order.
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "sim/timing_sim.hpp"
#include "util/rng.hpp"

namespace tevot::sim {
namespace {

liberty::CornerDelays delaysOf(std::vector<double> rise,
                               std::vector<double> fall) {
  liberty::CornerDelays delays;
  delays.rise_ps = std::move(rise);
  delays.fall_ps = std::move(fall);
  return delays;
}

/// Drives both queues with the same pushes and pops, each push at the
/// last popped time plus one of `arcs`, and requires identical pops.
void expectSamePopOrder(const std::vector<double>& arcs, std::uint64_t seed) {
  const liberty::CornerDelays delays = delaysOf(arcs, arcs);
  TimeWheelQueue wheel(delays);
  HeapEventQueue heap(delays);
  util::Rng rng(seed);
  for (int cycle = 0; cycle < 20; ++cycle) {
    wheel.clear();
    heap.clear();
    std::uint64_t seq = 0;
    double now = 0.0;
    const auto push = [&] {
      const SimEvent event{now + arcs[rng.nextBelow(arcs.size())], ++seq,
                           static_cast<netlist::NetId>(rng.nextBelow(8)),
                           static_cast<std::uint8_t>(rng.nextBelow(2))};
      wheel.push(event);
      heap.push(event);
    };
    for (int i = 0; i < 4; ++i) push();
    int pops = 0;
    while (!heap.empty()) {
      ASSERT_FALSE(wheel.empty());
      const SimEvent w = wheel.pop();
      const SimEvent h = heap.pop();
      ASSERT_EQ(w.time_ps, h.time_ps) << "seed " << seed << " pop " << pops;
      ASSERT_EQ(w.seq, h.seq) << "seed " << seed << " pop " << pops;
      ASSERT_EQ(w.net, h.net);
      ASSERT_EQ(w.value, h.value);
      now = h.time_ps;
      ++pops;
      // Fan out while the queue is young, then let it drain.
      if (pops < 300) {
        for (std::uint64_t k = rng.nextBelow(3); k > 0; --k) push();
      }
    }
    EXPECT_TRUE(wheel.empty());
  }
}

TEST(EventQueueTest, WheelMatchesHeapWithTiesAndZeroDelays) {
  expectSamePopOrder({0.0, 1.0, 2.0, 3.0}, 1);
  expectSamePopOrder({0.0, 0.0, 5.0}, 2);
  expectSamePopOrder({7.0}, 3);  // one distinct delay: ties everywhere
  expectSamePopOrder({0.0}, 4);  // everything at time 0
  expectSamePopOrder({0.1, 0.2, 0.30000000000000004, 17.5, 80.0}, 5);
}

TEST(EventQueueTest, WheelGeometryFollowsTheAnnotation) {
  const TimeWheelQueue wheel(delaysOf({10.0, 0.0, 40.0}, {20.0, 5.0, 0.0}));
  // Width = smallest positive delay / 16; slots cover the largest
  // delay plus slack, as a power of two.
  EXPECT_DOUBLE_EQ(wheel.bucketWidthPs(), 5.0 / 16.0);
  EXPECT_GE(static_cast<double>(wheel.slotCount()),
            40.0 / wheel.bucketWidthPs() + 3.0);
  EXPECT_EQ(wheel.slotCount() & (wheel.slotCount() - 1), 0u);

  // A huge delay ratio widens the buckets instead of growing the wheel.
  const TimeWheelQueue wide(delaysOf({1e-6, 1e6}, {1e-6, 1e6}));
  EXPECT_LE(wide.slotCount(), 4096u);
  EXPECT_GE(static_cast<double>(wide.slotCount()),
            1e6 / wide.bucketWidthPs() + 3.0);

  const TimeWheelQueue zero(delaysOf({0.0, 0.0}, {0.0, 0.0}));
  EXPECT_EQ(zero.bucketWidthPs(), 0.0);
}

TEST(EventQueueTest, WheelWithWideBucketsMatchesHeap) {
  // Buckets wider than the smallest delay: events land in the bucket
  // being drained and must still merge in order.
  expectSamePopOrder({1e-6, 0.5, 1.0, 1e6}, 6);
}

TEST(EventQueueTest, SimulatorRejectsUnorderableDelays) {
  netlist::Netlist nl("one");
  nl.markOutput(nl.addGate1(netlist::CellKind::kInv, nl.addInput("a")));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {-1.0, -1e-300, nan, inf, -inf}) {
    const liberty::CornerDelays rise_bad = delaysOf({bad}, {1.0});
    const liberty::CornerDelays fall_bad = delaysOf({1.0}, {bad});
    EXPECT_THROW(TimingSimulator(nl, rise_bad), std::invalid_argument)
        << bad;
    EXPECT_THROW(HeapTimingSimulator(nl, fall_bad), std::invalid_argument)
        << bad;
  }
  const liberty::CornerDelays short_fall = delaysOf({1.0}, {});
  EXPECT_THROW(TimingSimulator(nl, short_fall), std::invalid_argument);

  // Finite delays whose sum overflows would put event times at +inf.
  netlist::Netlist chain("chain");
  chain.markOutput(chain.addGate1(
      netlist::CellKind::kBuf,
      chain.addGate1(netlist::CellKind::kBuf, chain.addInput("a"))));
  const double big = std::numeric_limits<double>::max();
  const liberty::CornerDelays huge = delaysOf({big, big}, {big, big});
  EXPECT_THROW(TimingSimulator(chain, huge), std::invalid_argument);

  // Zero is a valid delay.
  const liberty::CornerDelays zero = delaysOf({0.0}, {-0.0});
  EXPECT_NO_THROW(TimingSimulator(nl, zero));
}

}  // namespace
}  // namespace tevot::sim

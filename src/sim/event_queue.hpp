// Event queues for the timing simulator.
//
// Both queues pop events in exactly the same order: by time, and among
// equal times by schedule sequence (`seq`, which only grows). The
// simulator's output — toggle order, glitch cancellation, and the
// per-cycle event count with its superseded pops — depends on nothing
// but that order, so any queue honouring it yields bit-identical
// CycleRecords.
//
//  * HeapEventQueue: a binary heap keyed on (time_ps, seq). O(log n)
//    per operation. It is the reference the differential oracle
//    (check/sim_queue_oracle.hpp) compares the wheel against.
//  * TimeWheelQueue: a bucketed time wheel, the production queue.
//    Buckets are `width` ps wide with width = (smallest positive gate
//    delay) / kBucketsPerMinDelay, so most pushes land many buckets
//    ahead of the one being drained and each bucket holds few events.
//    A bucket is sorted in place by time when it is drained; pushes
//    arrive in seq order, so a stable sort gives (time, seq) order.
//    Each slot keeps its own buffer, so memory follows the largest
//    bucket each slot has held. The wheel
//    has a power-of-two number of slots covering more than the longest
//    gate delay: every pending event is within one maximum delay of
//    the current time, so two pending buckets never share a slot.
//
// Both assume what the simulator guarantees: a pushed event is never
// earlier than the last popped one (delays are finite and
// non-negative), and a cycle starts at time 0 on an empty queue.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "liberty/corner.hpp"
#include "netlist/netlist.hpp"

namespace tevot::sim {

/// One scheduled net transition.
struct SimEvent {
  double time_ps;
  std::uint64_t seq;  ///< schedule order, for cancellation + ties
  netlist::NetId net;
  std::uint8_t value;
};

/// Binary heap on (time_ps, seq); the reference queue.
class HeapEventQueue {
 public:
  explicit HeapEventQueue(const liberty::CornerDelays& /*delays*/) {}

  void clear() { heap_.clear(); }
  bool empty() const { return heap_.empty(); }

  void push(const SimEvent& event) {
    heap_.push_back(event);
    std::push_heap(heap_.begin(), heap_.end(), later);
  }

  SimEvent pop() {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const SimEvent event = heap_.back();
    heap_.pop_back();
    return event;
  }

 private:
  static bool later(const SimEvent& a, const SimEvent& b) {
    if (a.time_ps != b.time_ps) return a.time_ps > b.time_ps;
    return a.seq > b.seq;
  }

  std::vector<SimEvent> heap_;
};

/// Bucketed time wheel popping in the heap's (time_ps, seq) order.
class TimeWheelQueue {
 public:
  /// Buckets per smallest positive gate delay.
  static constexpr double kBucketsPerMinDelay = 16.0;
  /// Upper bound on the slots one maximum delay may span; past it the
  /// buckets widen (order stays exact, buckets just hold more events).
  static constexpr double kMaxSpanBuckets = 4000.0;

  /// Derives the bucket width and wheel size from `delays`, which must
  /// be finite and non-negative (the simulator checks them first).
  explicit TimeWheelQueue(const liberty::CornerDelays& delays);

  /// Empties the queue and rewinds it to time 0.
  void clear();
  bool empty() const {
    return drain_pos_ == slots_[current_ & mask_].size() && pending_ == 0;
  }

  void push(const SimEvent& event) {
    const auto bucket =
        static_cast<std::uint64_t>(event.time_ps * inv_width_);
    if (bucket == current_) {
      // Same bucket as the one being drained (a zero or sub-width
      // delay): merge into the sorted remainder. Its seq is the
      // largest yet, so it goes after every event at its time.
      std::vector<SimEvent>& drain = slots_[current_ & mask_];
      auto at = drain.end();
      while (at - drain.begin() > static_cast<std::ptrdiff_t>(drain_pos_) &&
             (at - 1)->time_ps > event.time_ps) {
        --at;
      }
      drain.insert(at, event);
      return;
    }
    // A bucket behind the current one, or one so far ahead that it
    // would alias a pending slot, breaks the order contract.
    if (bucket - current_ > mask_) {
      throw std::logic_error("TimeWheelQueue: event outside the wheel");
    }
    const std::uint64_t slot = bucket & mask_;
    slots_[slot].push_back(event);
    occupied_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    ++pending_;
  }

  SimEvent pop() {
    if (drain_pos_ == slots_[current_ & mask_].size()) advance();
    return slots_[current_ & mask_][drain_pos_++];
  }

  /// Bucket width [ps] and slot count, for tests and docs.
  double bucketWidthPs() const {
    return inv_width_ > 0.0 ? 1.0 / inv_width_ : 0.0;
  }
  std::size_t slotCount() const { return slots_.size(); }

 private:
  /// Empties the drained bucket and makes the next non-empty one
  /// current, sorted.
  void advance();

  double inv_width_ = 0.0;  ///< 1 / bucket width; 0 puts all at bucket 0
  std::uint64_t mask_ = 0;  ///< slot count - 1
  std::uint64_t current_ = 0;  ///< absolute index of the drained bucket
  std::vector<std::vector<SimEvent>> slots_;
  std::vector<std::uint64_t> occupied_;  ///< one bit per non-empty slot
  std::size_t pending_ = 0;    ///< events in buckets after the current one
  std::size_t drain_pos_ = 0;  ///< next event to pop in the current bucket
};

}  // namespace tevot::sim

#include "sim/event_queue.hpp"

#include <bit>
#include <cmath>
#include <limits>

namespace tevot::sim {

TimeWheelQueue::TimeWheelQueue(const liberty::CornerDelays& delays) {
  double min_positive = std::numeric_limits<double>::infinity();
  double max_delay = 0.0;
  for (const std::vector<double>* arcs : {&delays.rise_ps, &delays.fall_ps}) {
    for (const double delay : *arcs) {
      if (delay > 0.0) min_positive = std::min(min_positive, delay);
      max_delay = std::max(max_delay, delay);
    }
  }
  // All-zero annotations keep inv_width_ = 0: every event is at time 0
  // and merges into bucket 0.
  if (max_delay > 0.0) {
    inv_width_ = std::min(kBucketsPerMinDelay / min_positive,
                          kMaxSpanBuckets / max_delay);
  }
  // Pending events lie in [now, now + max_delay], which touches at
  // most ceil(max_delay / width) + 1 buckets after the current one;
  // the extra slots absorb rounding in time_ps * inv_width_.
  const auto span =
      static_cast<std::uint64_t>(std::ceil(max_delay * inv_width_)) + 3;
  const std::uint64_t slots = std::max<std::uint64_t>(64, std::bit_ceil(span));
  mask_ = slots - 1;
  slots_.resize(slots);
  occupied_.assign(slots / 64, 0);
}

void TimeWheelQueue::clear() {
  if (pending_ != 0) {
    for (std::vector<SimEvent>& slot : slots_) slot.clear();
    std::fill(occupied_.begin(), occupied_.end(), 0);
    pending_ = 0;
  }
  slots_[current_ & mask_].clear();
  drain_pos_ = 0;
  current_ = 0;
}

void TimeWheelQueue::advance() {
  slots_[current_ & mask_].clear();  // keeps its capacity
  // First occupied slot after the current bucket, wrapping once. No
  // pending bucket is a full turn ahead, so the first hit is the
  // earliest bucket.
  const std::uint64_t start = (current_ + 1) & mask_;
  const std::size_t words = occupied_.size();
  std::size_t word = start >> 6;
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (start & 63));
  for (std::size_t scanned = 0; bits == 0; ++scanned) {
    if (scanned == words) {
      throw std::logic_error("TimeWheelQueue: pop from an empty queue");
    }
    word = word + 1 == words ? 0 : word + 1;
    bits = occupied_[word];
  }
  const std::uint64_t slot =
      (static_cast<std::uint64_t>(word) << 6) |
      static_cast<std::uint64_t>(std::countr_zero(bits));
  current_ += 1 + ((slot - start) & mask_);
  occupied_[word] &= ~(std::uint64_t{1} << (slot & 63));

  drain_pos_ = 0;
  std::vector<SimEvent>& bucket = slots_[slot];
  pending_ -= bucket.size();
  // Stable insertion sort by time: the bucket was filled in seq order,
  // so equal times keep it. Buckets are small (width = min delay / 16).
  for (std::size_t i = 1; i < bucket.size(); ++i) {
    const SimEvent event = bucket[i];
    std::size_t j = i;
    while (j > 0 && bucket[j - 1].time_ps > event.time_ps) {
      bucket[j] = bucket[j - 1];
      --j;
    }
    bucket[j] = event;
  }
}

}  // namespace tevot::sim

// Serving counters and latency percentiles behind /health and /stats.
//
// Counters are relaxed atomics (monotonic, per-event increments from
// many threads); the latency histogram is mutex-guarded because
// LatencyHistogram itself is not synchronized. snapshot() is the one
// read surface — the control responses, the drain-time summary, the
// bench JSON and the fleet router's cross-process aggregation all
// render from the same struct.
//
// toLine()/parseMetricsLine() are exact inverses for everything that
// matters downstream: counters and gauges round-trip as integers, and
// the latency distribution rides along as raw histogram buckets plus
// hexfloat min/max, so a router merging parsed worker lines computes
// the same percentiles as one process holding every sample.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "serve/protocol.hpp"
#include "util/stats.hpp"

namespace tevot::serve {

/// Milliseconds on the steady clock since `start`; the unit of every
/// latency and deadline in the serving layer.
inline double msSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct MetricsSnapshot {
  std::uint64_t connections = 0;
  std::uint64_t connections_dropped = 0;  ///< accept faults/conn limit
  std::uint64_t requests = 0;             ///< complete request lines
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline = 0;
  std::uint64_t errors = 0;
  std::uint64_t reloads = 0;
  std::uint64_t reload_failures = 0;
  std::uint64_t breaker_opens = 0;
  /// Admission gauge, "queue=D/C" on the wire: requests admitted and
  /// computing right now over the server's max_in_flight limit (a
  /// predictN batch counts once). The fleet router sheds a shard at
  /// queue_depth/queue_capacity >= shed_queue_fraction; merged
  /// snapshots sum both.
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  std::size_t breakers_open = 0;
  std::uint64_t generation = 0;  ///< model-set generation
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  std::uint64_t latency_count = 0;
  /// Full latency distribution; the percentile fields above are
  /// derived from it. Serialized bucket-exactly by toLine().
  util::LatencyHistogram latency;

  /// "k=v k=v …" line used by the stats response and final summary.
  /// Includes lat_min/lat_max (hexfloat) and sparse lat_hist buckets
  /// so parseMetricsLine() reconstructs the histogram exactly.
  std::string toLine() const;

  /// Fleet aggregation: sums counters and gauges, merges the latency
  /// histogram bucket-exactly, recomputes the percentile fields, and
  /// keeps the *minimum* generation (the oldest model set still
  /// serving anywhere in the fleet).
  void mergeFrom(const MetricsSnapshot& other);

  /// Re-derives p50/p95/p99/max_ms/latency_count from `latency`.
  void refreshLatencyFields();
};

/// Parses a toLine() rendering (leading "stats " tolerated) back into
/// an exact snapshot: integers round-trip, the histogram is rebuilt
/// from lat_hist/lat_min/lat_max, and percentiles are recomputed from
/// it. False when the line is not a metrics line (missing requests=
/// or a malformed k=v token).
bool parseMetricsLine(std::string_view line, MetricsSnapshot* out);

class ServeMetrics {
 public:
  std::atomic<std::uint64_t> connections{0};
  std::atomic<std::uint64_t> connections_dropped{0};
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> deadline{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> reloads{0};
  std::atomic<std::uint64_t> reload_failures{0};

  /// Bumps the ok/shed/deadline/errors counter for one response line.
  void count(ResponseStatus status);
  void recordLatencyMs(double ms) {
    const std::lock_guard<std::mutex> lock(latency_mutex_);
    latency_.add(ms);
  }
  util::LatencyHistogram latencySnapshot() const {
    const std::lock_guard<std::mutex> lock(latency_mutex_);
    return latency_;
  }

  /// Counter + latency part of the snapshot; the server fills in the
  /// queue/breaker/generation gauges it owns.
  MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex latency_mutex_;
  util::LatencyHistogram latency_;
};

}  // namespace tevot::serve

// In-memory span recorder for the benchmark's per-layer attribution.
//
// The benchmark times each layer from the outside: it opens a Span
// around every call it makes into a module's public API. A span holds
// its name ("<layer>.<call>"), start and end on the steady clock, the
// span that was open on the same thread when it started (its parent)
// and the thread it ran on. Spans stay in per-thread buffers until
// collect() gathers them at the end of the run; nothing is written
// while the timed work runs.
//
// When tracing is disabled a Span costs one relaxed atomic load, so
// the untraced run that reports end-to-end metrics executes the same
// code as the traced one.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";  ///< static string "<layer>.<call>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = no enclosing span on this thread
  std::uint32_t thread = 0;
};

/// Nanoseconds on std::chrono::steady_clock.
std::int64_t nowNs();

/// Turns recording on or off for every thread.
void setTracing(bool enabled);
bool tracing();

/// Scoped span: records [construction, destruction) when tracing is on.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::int64_t start_ns_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t saved_parent_ = 0;
};

/// Every span recorded so far, from all threads, ordered by start.
/// Threads that recorded spans must have finished recording.
std::vector<SpanRecord> collectSpans();

/// Seconds of self time per layer: each span's duration minus the
/// time covered by its children on the same thread, summed by the
/// layer prefix of its name (the text before the first '.').
std::map<std::string, double> selfSecondsByLayer(
    const std::vector<SpanRecord>& spans);

/// Writes one JSON object per line; false when the file cannot be
/// written.
bool writeSpans(const std::vector<SpanRecord>& spans,
                const std::string& path);

}  // namespace perfbench

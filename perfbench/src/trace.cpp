#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_thread{1};

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<SpanRecord> spans;
};

/// Owns every thread's buffer so spans outlive the threads that
/// recorded them.
std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer& localBuffer() {
  thread_local ThreadBuffer* buffer = [] {
    auto owned = std::make_unique<ThreadBuffer>();
    owned->thread = g_next_thread.fetch_add(1);
    owned->spans.reserve(1 << 12);
    ThreadBuffer* raw = owned.get();
    const std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::move(owned));
    return raw;
  }();
  return *buffer;
}

thread_local std::uint64_t t_open_span = 0;

std::string layerOf(const char* name) {
  const std::string full(name);
  const std::size_t dot = full.find('.');
  return dot == std::string::npos ? full : full.substr(0, dot);
}

}  // namespace

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void setTracing(bool enabled) { g_tracing.store(enabled); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

Span::Span(const char* name) : name_(name) {
  if (!tracing()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  saved_parent_ = t_open_span;
  t_open_span = id_;
  start_ns_ = nowNs();
}

Span::~Span() {
  if (id_ == 0) return;
  const std::int64_t end = nowNs();
  t_open_span = saved_parent_;
  ThreadBuffer& buffer = localBuffer();
  buffer.spans.push_back(
      {name_, start_ns_, end, id_, saved_parent_, buffer.thread});
}

std::vector<SpanRecord> collectSpans() {
  std::vector<SpanRecord> all;
  {
    const std::lock_guard<std::mutex> lock(g_buffers_mutex);
    for (const auto& buffer : g_buffers) {
      all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    }
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& x, const SpanRecord& y) {
              return x.start_ns != y.start_ns ? x.start_ns < y.start_ns
                                              : x.id < y.id;
            });
  return all;
}

std::map<std::string, double> selfSecondsByLayer(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::map<std::string, double> self;
  for (const SpanRecord& span : spans) {
    const auto it = child_ns.find(span.id);
    const std::int64_t children = it == child_ns.end() ? 0 : it->second;
    self[layerOf(span.name)] +=
        static_cast<double>(span.end_ns - span.start_ns - children) * 1e-9;
  }
  return self;
}

bool writeSpans(const std::vector<SpanRecord>& spans,
                const std::string& path) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  for (const SpanRecord& span : spans) {
    os << "{\"id\":" << span.id << ",\"parent\":" << span.parent
       << ",\"thread\":" << span.thread << ",\"name\":\"" << span.name
       << "\",\"start_ns\":" << span.start_ns
       << ",\"end_ns\":" << span.end_ns << "}\n";
  }
  os.flush();
  return static_cast<bool>(os);
}

}  // namespace perfbench

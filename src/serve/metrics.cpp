#include "serve/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "util/number.hpp"

namespace tevot::serve {

std::string MetricsSnapshot::toLine() const {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "requests=%llu ok=%llu shed=%llu deadline=%llu errors=%llu "
      "connections=%llu dropped=%llu queue=%zu/%zu breakers_open=%zu "
      "breaker_opens=%llu reloads=%llu reload_failures=%llu "
      "generation=%llu p50_ms=%.3f p95_ms=%.3f p99_ms=%.3f max_ms=%.3f "
      "latency_count=%llu",
      static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(deadline),
      static_cast<unsigned long long>(errors),
      static_cast<unsigned long long>(connections),
      static_cast<unsigned long long>(connections_dropped), queue_depth,
      queue_capacity, breakers_open,
      static_cast<unsigned long long>(breaker_opens),
      static_cast<unsigned long long>(reloads),
      static_cast<unsigned long long>(reload_failures),
      static_cast<unsigned long long>(generation), p50_ms, p95_ms, p99_ms,
      max_ms, static_cast<unsigned long long>(latency_count));
  std::string line = buf;
  // Exact-distribution tail: hexfloat min/max plus the non-empty
  // buckets, so a parse on the far side of a pipe or socket rebuilds
  // the histogram bit-for-bit. "-" marks an empty histogram.
  std::snprintf(buf, sizeof(buf), " lat_min=%a lat_max=%a lat_hist=",
                latency.minMs(), latency.maxMs());
  line += buf;
  bool any = false;
  for (std::size_t b = 0; b < util::LatencyHistogram::kBuckets; ++b) {
    const std::size_t count = latency.bucketCount(b);
    if (count == 0) continue;
    std::snprintf(buf, sizeof(buf), "%s%zu:%zu", any ? "," : "", b, count);
    line += buf;
    any = true;
  }
  if (!any) line += "-";
  return line;
}

void MetricsSnapshot::mergeFrom(const MetricsSnapshot& other) {
  connections += other.connections;
  connections_dropped += other.connections_dropped;
  requests += other.requests;
  ok += other.ok;
  shed += other.shed;
  deadline += other.deadline;
  errors += other.errors;
  reloads += other.reloads;
  reload_failures += other.reload_failures;
  breaker_opens += other.breaker_opens;
  queue_depth += other.queue_depth;
  queue_capacity += other.queue_capacity;
  breakers_open += other.breakers_open;
  generation = generation == 0
                   ? other.generation
                   : (other.generation == 0
                          ? generation
                          : std::min(generation, other.generation));
  latency.merge(other.latency);
  refreshLatencyFields();
}

void MetricsSnapshot::refreshLatencyFields() {
  p50_ms = latency.p50();
  p95_ms = latency.p95();
  p99_ms = latency.p99();
  max_ms = latency.maxMs();
  latency_count = latency.count();
}

bool parseMetricsLine(std::string_view line, MetricsSnapshot* out) {
  MetricsSnapshot snap;
  bool saw_requests = false;
  double lat_min = 0.0;
  double lat_max = 0.0;
  std::vector<std::pair<std::size_t, std::size_t>> buckets;
  std::size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && line[pos] == ' ') ++pos;
    const std::size_t start = pos;
    while (pos < line.size() && line[pos] != ' ') ++pos;
    const std::string_view token = line.substr(start, pos - start);
    if (token.empty()) continue;
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      // A leading tag ("stats", "tevot_serve:", …) is tolerated, but
      // only before any k=v token — junk between pairs is malformed.
      if (saw_requests || !buckets.empty()) return false;
      continue;
    }
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    const auto count = [value](auto* out) {
      return util::parseWhole(value, out);
    };
    const auto real = [value](double* out) {
      return util::parseFinite(value, out);
    };
    if (key == "requests") {
      if (!count(&snap.requests)) return false;
      saw_requests = true;
    } else if (key == "ok") {
      if (!count(&snap.ok)) return false;
    } else if (key == "shed") {
      if (!count(&snap.shed)) return false;
    } else if (key == "deadline") {
      if (!count(&snap.deadline)) return false;
    } else if (key == "errors") {
      if (!count(&snap.errors)) return false;
    } else if (key == "connections") {
      if (!count(&snap.connections)) return false;
    } else if (key == "dropped") {
      if (!count(&snap.connections_dropped)) return false;
    } else if (key == "queue") {
      const std::size_t slash = value.find('/');
      if (slash == std::string_view::npos ||
          !util::parseWhole(value.substr(0, slash), &snap.queue_depth) ||
          !util::parseWhole(value.substr(slash + 1), &snap.queue_capacity)) {
        return false;
      }
    } else if (key == "breakers_open") {
      if (!count(&snap.breakers_open)) return false;
    } else if (key == "breaker_opens") {
      if (!count(&snap.breaker_opens)) return false;
    } else if (key == "reloads") {
      if (!count(&snap.reloads)) return false;
    } else if (key == "reload_failures") {
      if (!count(&snap.reload_failures)) return false;
    } else if (key == "generation") {
      if (!count(&snap.generation)) return false;
    } else if (key == "p50_ms") {
      if (!real(&snap.p50_ms)) return false;
    } else if (key == "p95_ms") {
      if (!real(&snap.p95_ms)) return false;
    } else if (key == "p99_ms") {
      if (!real(&snap.p99_ms)) return false;
    } else if (key == "max_ms") {
      if (!real(&snap.max_ms)) return false;
    } else if (key == "latency_count") {
      if (!count(&snap.latency_count)) return false;
    } else if (key == "lat_min") {
      if (!real(&lat_min)) return false;
    } else if (key == "lat_max") {
      if (!real(&lat_max)) return false;
    } else if (key == "lat_hist") {
      if (value == "-") continue;
      std::size_t offset = 0;
      while (offset < value.size()) {
        std::size_t comma = value.find(',', offset);
        if (comma == std::string_view::npos) comma = value.size();
        const std::string_view entry = value.substr(offset, comma - offset);
        const std::size_t colon = entry.find(':');
        std::size_t bucket = 0;
        std::size_t samples = 0;
        if (colon == std::string_view::npos ||
            !util::parseWhole(entry.substr(0, colon), &bucket) ||
            !util::parseWhole(entry.substr(colon + 1), &samples)) {
          return false;
        }
        buckets.emplace_back(bucket, samples);
        offset = comma + 1;
      }
    }
    // Unknown keys are skipped (forward compatibility).
  }
  if (!saw_requests) return false;
  if (!buckets.empty()) {
    snap.latency =
        util::LatencyHistogram::fromBuckets(buckets, lat_min, lat_max);
    snap.refreshLatencyFields();
  }
  *out = snap;
  return true;
}

void ServeMetrics::count(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kOk:
      ok.fetch_add(1, std::memory_order_relaxed);
      return;
    case ResponseStatus::kShed:
      shed.fetch_add(1, std::memory_order_relaxed);
      return;
    case ResponseStatus::kDeadline:
      deadline.fetch_add(1, std::memory_order_relaxed);
      return;
    case ResponseStatus::kError:
      errors.fetch_add(1, std::memory_order_relaxed);
      return;
  }
}

MetricsSnapshot ServeMetrics::snapshot() const {
  MetricsSnapshot snap;
  snap.connections = connections.load(std::memory_order_relaxed);
  snap.connections_dropped =
      connections_dropped.load(std::memory_order_relaxed);
  snap.requests = requests.load(std::memory_order_relaxed);
  snap.ok = ok.load(std::memory_order_relaxed);
  snap.shed = shed.load(std::memory_order_relaxed);
  snap.deadline = deadline.load(std::memory_order_relaxed);
  snap.errors = errors.load(std::memory_order_relaxed);
  snap.reloads = reloads.load(std::memory_order_relaxed);
  snap.reload_failures = reload_failures.load(std::memory_order_relaxed);
  snap.latency = latencySnapshot();
  snap.refreshLatencyFields();
  return snap;
}

}  // namespace tevot::serve

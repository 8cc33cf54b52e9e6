#include "fleet/router.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "util/log.hpp"

namespace tevot::fleet {

namespace {

constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);
constexpr std::size_t kMaxConnections = 64;
/// Total forward attempts per request (first try included).
constexpr int kForwardAttempts = 3;
/// Budget for one shard's in-flight drain during rollingReload().
constexpr double kReloadDrainMs = 1000.0;

}  // namespace

const char* shardPolicyName(ShardPolicy policy) {
  switch (policy) {
    case ShardPolicy::kReplicated: return "replicated";
    case ShardPolicy::kPerFu: return "per-fu";
  }
  return "?";
}

bool parseShardPolicy(std::string_view text, ShardPolicy* out) {
  if (text == "replicated") {
    *out = ShardPolicy::kReplicated;
    return true;
  }
  if (text == "per-fu") {
    *out = ShardPolicy::kPerFu;
    return true;
  }
  return false;
}

Router::Router(RouterOptions options, std::vector<ShardEndpoint> shards)
    : options_(std::move(options)),
      transport_(metrics_, kMaxConnections, [this](int fd) {
        // Per-connection state: this client's cached backend
        // connections, used only by its connection thread.
        return [this, fd, backends = std::make_shared<Backends>()](
                   std::string_view line) { handleLine(fd, *backends, line); };
      }) {
  shards_.reserve(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    shards_.push_back(std::make_unique<Shard>(options_.breaker));
    shards_.back()->port.store(shards[i].port);
    shards_.back()->fus = std::move(shards[i].fus);
    for (const std::string& fu : shards_.back()->fus) {
      fu_owner_.emplace(fu, i);
    }
  }
}

Router::~Router() {
  if (running_.load()) drainAndStop();
}

util::Status Router::start() {
  if (running_.load()) {
    return util::Status::invalidArgument("router already running");
  }
  if (shards_.empty()) {
    return util::Status::invalidArgument("router needs at least one shard");
  }
  if (options_.policy == ShardPolicy::kPerFu && fu_owner_.empty()) {
    return util::Status::invalidArgument(
        "per-fu policy needs shard fu assignments");
  }
  // One synchronous probe round before the front port opens, so a
  // fresh fleet routes from its first request instead of shedding
  // until the first health tick.
  {
    std::vector<BackendConn> conns(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (shards_[i]->breaker.allow()) probeShard(i, &conns[i]);
    }
  }
  draining_.store(false);
  const util::Status bound = transport_.start(options_.port);
  if (!bound.ok()) return bound;
  running_.store(true);
  health_ = std::thread([this] { healthLoop(); });
  util::logInfo() << "fleet: router listening on 127.0.0.1:" << port()
                  << " shards=" << shards_.size()
                  << " policy=" << shardPolicyName(options_.policy);
  return util::Status::okStatus();
}

bool Router::shardEligible(std::size_t shard) const {
  if (shard >= shards_.size()) return false;
  const Shard& s = *shards_[shard];
  return s.port.load() > 0 && !s.admin_down.load() && s.probed_up.load() &&
         s.breaker.state() == serve::CircuitBreaker::State::kClosed;
}

void Router::markShardDown(std::size_t shard) {
  if (shard >= shards_.size()) return;
  shards_[shard]->probed_up.store(false);
  shards_[shard]->queue_permille.store(0);
}

void Router::setShardPort(std::size_t shard, int port) {
  if (shard >= shards_.size()) return;
  shards_[shard]->probed_up.store(false);
  shards_[shard]->queue_permille.store(0);
  shards_[shard]->port.store(port);
}

serve::MetricsSnapshot Router::stats() const {
  serve::MetricsSnapshot snap = metrics_.snapshot();
  std::uint64_t min_generation = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->breaker.state() != serve::CircuitBreaker::State::kClosed) {
      ++snap.breakers_open;
    }
    snap.breaker_opens += shard->breaker.opens();
    const std::lock_guard<std::mutex> lock(shard->stats_mutex);
    snap.queue_depth += shard->last_stats.queue_depth;
    snap.queue_capacity += shard->last_stats.queue_capacity;
    const std::uint64_t generation = shard->last_stats.generation;
    if (generation > 0 &&
        (min_generation == 0 || generation < min_generation)) {
      min_generation = generation;
    }
  }
  snap.generation = min_generation;
  return snap;
}

serve::MetricsSnapshot Router::workerStats() const {
  serve::MetricsSnapshot merged;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->stats_mutex);
    merged.mergeFrom(shard->last_stats);
  }
  return merged;
}

bool Router::probeShard(std::size_t index, BackendConn* conn) {
  Shard& shard = *shards_[index];
  const int port = shard.port.load();
  if (port <= 0) return false;
  const auto fail = [&] {
    conn->client.close();
    shard.breaker.recordFailure();
    return false;
  };
  if (!conn->client.connected() || conn->port != port) {
    conn->port = port;
    if (!conn->client.connectTo(port, options_.backend_timeout_ms).ok()) {
      return fail();
    }
  }
  if (!conn->client.sendLine("stats")) return fail();
  const std::optional<std::string> raw = conn->client.readLine();
  if (!raw.has_value()) return fail();
  serve::Response response;
  if (!serve::parseResponse(*raw, &response) ||
      response.status != serve::ResponseStatus::kOk) {
    return fail();
  }
  // The stats payload is "stats <k=v line>"; parse it exactly.
  std::string_view detail = response.detail;
  serve::MetricsSnapshot worker;
  if (!serve::parseMetricsLine(detail, &worker)) return fail();
  {
    const std::lock_guard<std::mutex> lock(shard.stats_mutex);
    shard.last_stats = worker;
  }
  const std::uint32_t permille =
      worker.queue_capacity == 0
          ? 0
          : static_cast<std::uint32_t>(
                (worker.queue_depth * 1024) / worker.queue_capacity);
  shard.queue_permille.store(permille);
  shard.breaker.recordSuccess();
  shard.probed_up.store(true);
  return true;
}

void Router::healthLoop() {
  std::vector<BackendConn> conns(shards_.size());
  const auto interval =
      std::chrono::duration<double, std::milli>(options_.health_interval_ms);
  while (!draining_.load()) {
    for (std::size_t i = 0; i < shards_.size() && !draining_.load(); ++i) {
      // allow() drives OPEN -> HALF_OPEN once the cooldown elapses;
      // while it refuses, the shard rests and routing skips it.
      if (shards_[i]->breaker.allow()) probeShard(i, &conns[i]);
    }
    // Sleep in small ticks so drain isn't held up by a long interval.
    auto remaining = interval;
    while (remaining.count() > 0.0 && !draining_.load()) {
      const auto tick = std::min(
          remaining, std::chrono::duration<double, std::milli>(10.0));
      std::this_thread::sleep_for(tick);
      remaining -= tick;
    }
  }
}

void Router::handleLine(int fd, Backends& backends,
                        std::string_view line) {
  serve::Request request;
  const util::Status parsed = serve::parseRequest(line, &request);
  if (!parsed.ok()) {
    // The router rejects malformed lines itself; garbage never
    // reaches a worker.
    metrics_.requests.fetch_add(1, std::memory_order_relaxed);
    writeResponses(fd,
                   {serve::responseForParseFailure(parsed).serialize()});
    return;
  }
  if (request.kind == serve::RequestKind::kStats ||
      request.kind == serve::RequestKind::kHealth) {
    // As on a worker, reading the counters or health is not a request.
    serve::sendAll(fd, handleControl(request).serialize() + '\n');
    return;
  }
  const std::size_t lines = request.responseCount();
  metrics_.requests.fetch_add(lines, std::memory_order_relaxed);
  if (request.kind != serve::RequestKind::kPredict &&
      request.kind != serve::RequestKind::kPredictBatch) {
    writeResponses(fd, {handleControl(request).serialize()});
    return;
  }
  if (draining_.load()) {
    std::vector<std::string> shed(
        lines, serve::Response::shed("draining").serialize());
    writeResponses(fd, shed);
    return;
  }
  routePredict(fd, backends, request, std::string(line));
}

serve::Response Router::handleControl(const serve::Request& request) {
  switch (request.kind) {
    case serve::RequestKind::kHealth: {
      std::size_t healthy = 0;
      for (std::size_t i = 0; i < shards_.size(); ++i) {
        if (shardEligible(i)) ++healthy;
      }
      char buf[192];
      std::snprintf(
          buf, sizeof(buf),
          "health status=%s shards=%zu healthy=%zu policy=%s "
          "generation=%llu",
          draining_.load() ? "draining" : "serving", shards_.size(),
          healthy, shardPolicyName(options_.policy),
          static_cast<unsigned long long>(stats().generation));
      return serve::Response::payload(buf);
    }
    case serve::RequestKind::kStats:
      return serve::Response::payload("stats " + stats().toLine());
    case serve::RequestKind::kReload: {
      const util::Status status = rollingReload();
      if (!status.ok()) {
        return serve::Response::error(serve::ErrorCode::kReloadFailed,
                                      status.message);
      }
      return serve::Response::payload(
          "reload generation=" + std::to_string(stats().generation) +
          " shards=" + std::to_string(shards_.size()));
    }
    case serve::RequestKind::kPredict:
    case serve::RequestKind::kPredictBatch:
      break;
  }
  return serve::Response::error(serve::ErrorCode::kInternal,
                                "bad control dispatch");
}

std::size_t Router::pickShard(const serve::Request& request,
                              const std::vector<bool>& exclude) const {
  const auto admissible = [&](std::size_t i) {
    return shardEligible(i) && !exclude[i] &&
           shards_[i]->queue_permille.load() <
               static_cast<std::uint32_t>(options_.shed_queue_fraction *
                                          1024.0);
  };
  if (options_.policy == ShardPolicy::kPerFu) {
    const auto owner = fu_owner_.find(request.fu);
    if (owner == fu_owner_.end()) return kNoShard;
    return admissible(owner->second) ? owner->second : kNoShard;
  }
  const std::size_t n = shards_.size();
  const std::uint64_t start =
      round_robin_.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t index = (start + i) % n;
    if (admissible(index)) return index;
  }
  return kNoShard;
}

void Router::routePredict(int fd, Backends& backends,
                          const serve::Request& request,
                          const std::string& line) {
  const std::size_t lines = request.responseCount();
  const auto arrival = std::chrono::steady_clock::now();

  // Per-FU requests for a FU no shard owns are refused up front with
  // the same typed error a worker would produce.
  if (options_.policy == ShardPolicy::kPerFu &&
      fu_owner_.find(request.fu) == fu_owner_.end()) {
    std::vector<std::string> responses(
        lines, serve::Response::error(serve::ErrorCode::kUnknownFu,
                                      "unknown fu '" + request.fu + "'")
                   .serialize());
    writeResponses(fd, responses);
    return;
  }

  std::vector<bool> tried(shards_.size(), false);
  for (int attempt = 0; attempt < kForwardAttempts; ++attempt) {
    const std::size_t index = pickShard(request, tried);
    if (index == kNoShard) break;
    // Reroute (kReplicated) excludes shards already tried; the per-FU
    // owner is retried over a fresh connection instead.
    if (options_.policy == ShardPolicy::kReplicated) tried[index] = true;
    Shard& shard = *shards_[index];
    shard.in_flight.fetch_add(1, std::memory_order_acq_rel);
    BackendConn& backend = backends[index];
    const int port = shard.port.load();
    bool forwarded = false;
    std::vector<std::string> responses;
    responses.reserve(lines);
    if (!backend.client.connected() || backend.port != port) {
      backend.port = port;
      if (!backend.client.connectTo(port, options_.backend_timeout_ms)
               .ok()) {
        backend.client.close();
      }
    }
    if (backend.client.connected() && backend.client.sendLine(line)) {
      while (responses.size() < lines) {
        std::optional<std::string> response = backend.client.readLine();
        if (!response.has_value()) break;
        responses.push_back(std::move(*response));
      }
      if (responses.size() == lines) {
        forwarded = true;
      } else if (!responses.empty()) {
        // The shard died mid-batch: the relayed prefix cannot be
        // retried (duplicates), so the remainder degrades to typed
        // errors and the batch still answers with exactly n lines.
        backend.client.close();
        shard.breaker.recordFailure();
        while (responses.size() < lines) {
          responses.push_back(
              serve::Response::error(serve::ErrorCode::kInternal,
                                     "shard connection lost mid-batch")
                  .serialize());
        }
        forwarded = true;
      }
    }
    shard.in_flight.fetch_sub(1, std::memory_order_acq_rel);
    if (forwarded) {
      metrics_.recordLatencyMs(serve::msSince(arrival));
      writeResponses(fd, responses);
      return;
    }
    // Nothing was relayed: safe to reroute/retry this idempotent
    // request after recording the backend failure.
    backend.client.close();
    shard.breaker.recordFailure();
  }
  std::vector<std::string> shed(
      lines, serve::Response::shed("no eligible shard").serialize());
  writeResponses(fd, shed);
}

void Router::writeResponses(int fd, const std::vector<std::string>& lines) {
  std::string wire;
  for (const std::string& line : lines) {
    // A worker emitting an unparseable line is a worker bug; it is
    // still relayed (the oracle flags it), but counted as an error.
    serve::Response response;
    metrics_.count(serve::parseResponse(line, &response)
                       ? response.status
                       : serve::ResponseStatus::kError);
    wire += line;
    wire += '\n';
  }
  serve::sendAll(fd, wire);
}

util::Status Router::rollingReload() {
  const std::lock_guard<std::mutex> lock(reload_mutex_);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    const int port = shard.port.load();
    // A down shard is skipped, not an error: its supervisor restart
    // loads the new models anyway.
    if (port <= 0 || !shard.probed_up.load()) continue;
    shard.admin_down.store(true);
    const auto drain_start = std::chrono::steady_clock::now();
    while (shard.in_flight.load() > 0 &&
           serve::msSince(drain_start) < kReloadDrainMs) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    serve::LineClient admin;
    util::Status failure = util::Status::okStatus();
    if (!admin.connectTo(port, options_.backend_timeout_ms).ok()) {
      failure = util::Status::ioError("shard " + std::to_string(i) +
                                      ": reload connect failed");
    } else if (!admin.sendLine("reload")) {
      failure = util::Status::ioError("shard " + std::to_string(i) +
                                      ": reload send failed");
    } else {
      const std::optional<std::string> raw = admin.readLine();
      serve::Response response;
      if (!raw.has_value() ||
          !serve::parseResponse(*raw, &response)) {
        failure = util::Status::ioError("shard " + std::to_string(i) +
                                        ": no reload response");
      } else if (response.status != serve::ResponseStatus::kOk) {
        failure = util::Status::ioError("shard " + std::to_string(i) +
                                        ": " + *raw);
      }
    }
    shard.admin_down.store(false);
    if (!failure.ok()) {
      metrics_.reload_failures.fetch_add(1, std::memory_order_relaxed);
      util::logWarn() << "fleet: rolling reload aborted: "
                      << failure.message;
      return failure;
    }
    metrics_.reloads.fetch_add(1, std::memory_order_relaxed);
  }
  util::logInfo() << "fleet: rolling reload complete";
  return util::Status::okStatus();
}

serve::MetricsSnapshot Router::drainAndStop() {
  bool was_running = true;
  if (!running_.compare_exchange_strong(was_running, false)) {
    return stats();
  }
  draining_.store(true);
  transport_.stop();
  if (health_.joinable()) health_.join();
  const serve::MetricsSnapshot final_stats = stats();
  util::logInfo() << "fleet: router drained; " << final_stats.toLine();
  return final_stats;
}

}  // namespace tevot::fleet

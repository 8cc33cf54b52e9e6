#include "serve/server.hpp"

#include <chrono>
#include <cstdio>
#include <utility>

#include "circuits/fu.hpp"
#include "liberty/corner.hpp"
#include "util/log.hpp"

namespace tevot::serve {

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      registry_(options_.model_dir, options_.strict_verify),
      transport_(metrics_, options_.max_connections,
                 [this](int fd) { return onConnection(fd); }) {
  if (options_.max_in_flight == 0) options_.max_in_flight = 1;
  faults_ = options_.faults != nullptr ? options_.faults
                                       : &util::FaultInjector::global();
  for (const circuits::FuKind kind : circuits::kAllFus) {
    breakers_.emplace(std::piecewise_construct,
                      std::forward_as_tuple(circuits::fuSlug(kind)),
                      std::forward_as_tuple(options_.breaker));
  }
}

Server::~Server() {
  if (running_.load()) drainAndStop();
}

util::Status Server::start() {
  if (running_.load()) {
    return util::Status::invalidArgument("server already running");
  }
  const util::Status loaded = registry_.reload(nullptr);
  if (!loaded.ok()) return loaded;

  draining_.store(false);
  const util::Status bound = transport_.start(options_.port);
  if (!bound.ok()) return bound;
  running_.store(true);
  util::logInfo() << "serve: listening on 127.0.0.1:" << port()
                  << " max_in_flight=" << options_.max_in_flight;
  return util::Status::okStatus();
}

util::Status Server::reload() {
  const util::Status status = registry_.reload(faults_);
  if (status.ok()) {
    metrics_.reloads.fetch_add(1, std::memory_order_relaxed);
  } else {
    metrics_.reload_failures.fetch_add(1, std::memory_order_relaxed);
    util::logWarn() << "serve: reload failed (previous models kept): "
                    << status.message;
  }
  return status;
}

MetricsSnapshot Server::stats() const {
  MetricsSnapshot snap = metrics_.snapshot();
  snap.queue_depth = in_flight_.load();
  snap.queue_capacity = options_.max_in_flight;
  snap.generation = registry_.generation();
  for (const auto& [name, breaker] : breakers_) {
    if (breaker.state() != CircuitBreaker::State::kClosed) {
      ++snap.breakers_open;
    }
    snap.breaker_opens += breaker.opens();
  }
  return snap;
}

LineServer::LineHandler Server::onConnection(int fd) {
  const std::uint64_t conn_id = next_connection_id_++;
  if (faults_->shouldFail("serve.accept", std::to_string(conn_id))) {
    // Injected accept fault: the connection is dropped before any
    // request is read. Clients observe a clean EOF, never a hang.
    return {};
  }
  return [this, fd](std::string_view line) { handleLine(fd, line); };
}

void Server::handleLine(int fd, std::string_view line) {
  const std::uint64_t id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  if (faults_->shouldFail("serve.parse", std::to_string(id))) {
    metrics_.requests.fetch_add(1, std::memory_order_relaxed);
    writeResponse(fd, Response::error(ErrorCode::kFaultInjected,
                                      "injected fault at serve.parse"));
    return;
  }
  Request request;
  const util::Status parsed = parseRequest(line, &request);
  if (!parsed.ok()) {
    // Parse failures are per-line: one BAD_REQUEST/PARSE even for a
    // malformed predictN (there is no trustworthy tuple count yet).
    metrics_.requests.fetch_add(1, std::memory_order_relaxed);
    writeResponse(fd, responseForParseFailure(parsed));
    return;
  }
  if (request.kind == RequestKind::kStats ||
      request.kind == RequestKind::kHealth) {
    // Reading the counters or the health line is not a request: the
    // fleet router probes every shard with `stats` each health tick,
    // a monitor polls `health`, and counting either would pass probes
    // off as client traffic.
    sendAll(fd, handleControl(request).serialize() + '\n');
    return;
  }
  // From here the line is a well-formed request answered with
  // responseCount() lines; count each tuple toward the
  // requests == ok+shed+deadline+errors invariant.
  const std::size_t lines = request.responseCount();
  metrics_.requests.fetch_add(lines, std::memory_order_relaxed);
  if (request.kind != RequestKind::kPredict &&
      request.kind != RequestKind::kPredictBatch) {
    writeResponse(fd, handleControl(request));
    return;
  }
  if (draining_.load()) {
    const std::vector<Response> shed(lines, Response::shed("draining"));
    writeResponses(fd, shed);
    return;
  }
  // Counting admission: take one of max_in_flight slots or shed.
  std::size_t admitted = in_flight_.load();
  do {
    if (admitted >= options_.max_in_flight) {
      const std::vector<Response> shed(lines, Response::shed("queue full"));
      writeResponses(fd, shed);
      return;
    }
  } while (!in_flight_.compare_exchange_weak(admitted, admitted + 1));
  const std::vector<Response> responses = predict(request, id);
  // Released before the send, so a client that has its answer sees
  // the slot free in stats.
  in_flight_.fetch_sub(1);
  writeResponses(fd, responses);
}

Response Server::handleControl(const Request& request) {
  switch (request.kind) {
    case RequestKind::kHealth: {
      const MetricsSnapshot snap = stats();
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "health status=%s generation=%llu models=%zu "
                    "queue=%zu/%zu breakers_open=%zu",
                    draining_.load() ? "draining" : "serving",
                    static_cast<unsigned long long>(snap.generation),
                    registry_.snapshot()->models.size(), snap.queue_depth,
                    snap.queue_capacity, snap.breakers_open);
      return Response::payload(buf);
    }
    case RequestKind::kStats:
      return Response::payload("stats " + stats().toLine());
    case RequestKind::kReload: {
      const util::Status status = reload();
      if (!status.ok()) {
        return Response::error(ErrorCode::kReloadFailed, status.message);
      }
      const std::shared_ptr<const ModelSet> set = registry_.snapshot();
      return Response::payload(
          "reload generation=" + std::to_string(set->generation) +
          " models=" + std::to_string(set->models.size()));
    }
    case RequestKind::kPredict:
    case RequestKind::kPredictBatch:
      break;
  }
  return Response::error(ErrorCode::kInternal, "bad control dispatch");
}

std::vector<Response> Server::predict(const Request& request,
                                      std::uint64_t id) {
  // A batch fails or succeeds as a unit up to the predict call:
  // deadline, breaker, and fault outcomes are replicated per tuple so
  // the client still receives exactly n lines. Fault points and the
  // breaker fire once per batch (keyed by request id), not per tuple.
  const auto arrival = std::chrono::steady_clock::now();
  const double deadline_ms = request.deadline_ms > 0.0
                                 ? request.deadline_ms
                                 : options_.default_deadline_ms;
  // Admission-time model snapshot: this request is served entirely
  // from one generation even if a reload lands while it computes.
  const std::shared_ptr<const ModelSet> models = registry_.snapshot();
  const std::size_t lines = request.responseCount();
  const auto replicate = [lines](Response response) {
    return std::vector<Response>(lines, std::move(response));
  };
  const double waited_ms = msSince(arrival);
  if (deadline_ms > 0.0 && waited_ms > deadline_ms) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "admitted %.3f ms > deadline %.3f ms",
                  waited_ms, deadline_ms);
    return replicate(Response::deadline(buf));
  }
  const auto breaker_it = breakers_.find(request.fu);
  if (breaker_it == breakers_.end()) {
    return replicate(Response::error(ErrorCode::kUnknownFu,
                                     "unknown fu '" + request.fu + "'"));
  }
  const core::TevotModel* model =
      models != nullptr ? models->find(request.fu) : nullptr;
  if (model == nullptr) {
    return replicate(
        Response::error(ErrorCode::kModelUnavailable,
                        "no model loaded for '" + request.fu + "'"));
  }
  CircuitBreaker& breaker = breaker_it->second;
  if (!breaker.allow()) {
    return replicate(Response::error(
        ErrorCode::kBreakerOpen, "breaker open for '" + request.fu + "'"));
  }
  std::vector<double> delays(lines, 0.0);
  try {
    // serve.slow (delay) is a separate point from serve.predict
    // (failure) so tests can arm slow backends without also arming
    // failures — the deterministic way to hold admission slots.
    faults_->maybeDelay("serve.slow", std::to_string(id));
    faults_->maybeThrow("serve.predict", std::to_string(id));
    const liberty::Corner corner{request.voltage, request.temperature};
    if (request.kind == RequestKind::kPredictBatch) {
      std::vector<core::DelayQuery> queries(request.batch.size());
      for (std::size_t i = 0; i < queries.size(); ++i) {
        const BatchOperand& operand = request.batch[i];
        queries[i] = {operand.a, operand.b, operand.prev_a, operand.prev_b,
                      corner};
      }
      model->predictDelayBatch(queries, delays);
    } else {
      delays[0] = model->predictDelay(request.a, request.b, request.prev_a,
                                      request.prev_b, corner);
    }
  } catch (const util::StatusError& error) {
    breaker.recordFailure();
    const ErrorCode code =
        error.status().code == util::StatusCode::kFaultInjected
            ? ErrorCode::kFaultInjected
            : ErrorCode::kInternal;
    return replicate(Response::error(code, error.status().message));
  } catch (const std::exception& error) {
    breaker.recordFailure();
    return replicate(Response::error(ErrorCode::kInternal, error.what()));
  }
  breaker.recordSuccess();
  const double total_ms = msSince(arrival);
  if (deadline_ms > 0.0 && total_ms > deadline_ms) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "served in %.3f ms > deadline %.3f ms",
                  total_ms, deadline_ms);
    return replicate(Response::deadline(buf));
  }
  metrics_.recordLatencyMs(total_ms);
  std::vector<Response> responses;
  responses.reserve(lines);
  for (const double delay_ps : delays) {
    responses.push_back(Response::ok(delay_ps, delay_ps > request.tclk_ps));
  }
  return responses;
}

void Server::writeResponse(int fd, const Response& response) {
  writeResponses(fd, std::span<const Response>(&response, 1));
}

void Server::writeResponses(int fd, std::span<const Response> responses) {
  std::string lines;
  for (const Response& response : responses) {
    metrics_.count(response.status);
    lines += response.serialize();
    lines += '\n';
  }
  sendAll(fd, lines);
}

MetricsSnapshot Server::drainAndStop() {
  bool was_running = true;
  if (!running_.compare_exchange_strong(was_running, false)) {
    return stats();  // already stopped (or never started)
  }
  draining_.store(true);
  // Each connection thread finishes the request in hand and answers
  // lines it has already read with SHED draining (handleLine checks
  // draining_) before the transport joins it.
  transport_.stop();
  const MetricsSnapshot final_stats = stats();
  util::logInfo() << "serve: drained; " << final_stats.toLine();
  return final_stats;
}

}  // namespace tevot::serve

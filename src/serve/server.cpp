#include "serve/server.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "circuits/fu.hpp"
#include "liberty/corner.hpp"
#include "util/log.hpp"

namespace tevot::serve {

namespace {

/// Writes the whole buffer, retrying on EINTR / short writes.
/// MSG_NOSIGNAL turns a dead peer into EPIPE instead of SIGPIPE.
bool sendAll(int fd, const char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      registry_(options_.model_dir, options_.strict_verify) {
  if (options_.max_in_flight == 0) options_.max_in_flight = 1;
  if (options_.max_connections == 0) options_.max_connections = 1;
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

double Server::msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

util::Status Server::start() {
  if (running_.load()) {
    return util::Status::invalidArgument("server already running");
  }
  const util::Status loaded = registry_.reload(nullptr);
  if (!loaded.ok()) return loaded;

  util::UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) {
    return util::Status::ioError(std::string("socket: ") +
                                 std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return util::Status::ioError("bind 127.0.0.1:" +
                                 std::to_string(options_.port) + ": " +
                                 std::strerror(errno));
  }
  if (::listen(fd.get(), 128) != 0) {
    return util::Status::ioError(std::string("listen: ") +
                                 std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return util::Status::ioError(std::string("getsockname: ") +
                                 std::strerror(errno));
  }
  bound_port_ = static_cast<int>(ntohs(bound.sin_port));
  listen_fd_ = std::move(fd);

  draining_.store(false);
  running_.store(true);
  acceptor_ = std::thread([this] { acceptLoop(); });
  util::logInfo() << "serve: listening on 127.0.0.1:" << bound_port_
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

void Server::acceptLoop() {
  while (!draining_.load()) {
    pollfd pfd{listen_fd_.get(), POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 100);
    if (rc < 0) {
      if (errno == EINTR) continue;
      util::logWarn() << "serve: poll: " << std::strerror(errno);
      break;
    }
    reapFinishedConnections();
    if (rc == 0 || (pfd.revents & POLLIN) == 0) continue;
    util::UniqueFd conn(::accept4(listen_fd_.get(), nullptr, nullptr,
                                  SOCK_CLOEXEC));
    if (!conn.valid()) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listener shut down under us (drain) or fatal
    }
    const std::uint64_t conn_id =
        next_connection_id_.fetch_add(1, std::memory_order_relaxed);
    metrics_.connections.fetch_add(1, std::memory_order_relaxed);
    if (faults_->shouldFail("serve.accept", std::to_string(conn_id))) {
      // Injected accept fault: the connection is dropped before any
      // request is read. Clients observe a clean EOF, never a hang.
      metrics_.connections_dropped.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    std::size_t live = 0;
    {
      const std::lock_guard<std::mutex> lock(connections_mutex_);
      live = connections_.size();
    }
    if (live >= options_.max_connections) {
      const Response shed = Response::shed("connection limit");
      const std::string line = shed.serialize() + "\n";
      sendAll(conn.get(), line.data(), line.size());
      metrics_.connections_dropped.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    connections_.emplace_back();
    Connection* entry = &connections_.back();
    entry->fd = std::move(conn);
    entry->thread = std::thread([this, entry] { connectionLoop(entry); });
  }
}

void Server::reapFinishedConnections() {
  const std::lock_guard<std::mutex> lock(connections_mutex_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->done.load()) {
      if (it->thread.joinable()) it->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::connectionLoop(Connection* connection) {
  std::string buffer;
  bool discarding = false;  // inside an oversized line, until '\n'
  char chunk[4096];
  for (;;) {
    ssize_t n = ::recv(connection->fd.get(), chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF, error, or drain's shutdown(SHUT_RD)
    buffer.append(chunk, static_cast<std::size_t>(n));
    for (;;) {
      const std::size_t nl = buffer.find('\n');
      if (nl == std::string::npos) {
        if (discarding) {
          buffer.clear();
        } else if (buffer.size() > kMaxLineBytes) {
          // The line already exceeds the cap without a terminator:
          // answer once, then swallow until the newline arrives.
          metrics_.requests.fetch_add(1, std::memory_order_relaxed);
          writeResponse(connection,
                        Response::error(ErrorCode::kOversized,
                                        "request line exceeds " +
                                            std::to_string(kMaxLineBytes) +
                                            " bytes"));
          discarding = true;
          buffer.clear();
        }
        break;
      }
      std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      if (discarding) {
        discarding = false;  // tail of the oversized line; already answered
        continue;
      }
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.size() > kMaxLineBytes) {
        metrics_.requests.fetch_add(1, std::memory_order_relaxed);
        writeResponse(connection,
                      Response::error(ErrorCode::kOversized,
                                      "request line exceeds " +
                                          std::to_string(kMaxLineBytes) +
                                          " bytes"));
        continue;
      }
      if (line.find_first_not_of(" \t") == std::string::npos) continue;
      handleLine(connection, line);
    }
  }
  connection->done.store(true);
}

void Server::handleLine(Connection* connection, std::string_view line) {
  metrics_.requests.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  if (faults_->shouldFail("serve.parse", std::to_string(id))) {
    writeResponse(connection,
                  Response::error(ErrorCode::kFaultInjected,
                                  "injected fault at serve.parse"));
    return;
  }
  Request request;
  const util::Status parsed = parseRequest(line, &request);
  if (!parsed.ok()) {
    // Parse failures are per-line: one BAD_REQUEST/PARSE even for a
    // malformed predictN (there is no trustworthy tuple count yet).
    writeResponse(connection, responseForParseFailure(parsed));
    return;
  }
  // From here the line is a well-formed request answered with
  // responseCount() lines; count each tuple toward the
  // requests == ok+shed+deadline+errors invariant.
  const std::size_t lines = request.responseCount();
  if (lines > 1) {
    metrics_.requests.fetch_add(lines - 1, std::memory_order_relaxed);
  }
  if (request.kind != RequestKind::kPredict &&
      request.kind != RequestKind::kPredictBatch) {
    writeResponse(connection, handleControl(request));
    return;
  }
  if (draining_.load()) {
    const std::vector<Response> shed(lines, Response::shed("draining"));
    writeResponses(connection, shed);
    return;
  }
  // Counting admission: take one of max_in_flight slots or shed.
  std::size_t admitted = in_flight_.load();
  do {
    if (admitted >= options_.max_in_flight) {
      const std::vector<Response> shed(lines, Response::shed("queue full"));
      writeResponses(connection, shed);
      return;
    }
  } while (!in_flight_.compare_exchange_weak(admitted, admitted + 1));
  const std::vector<Response> responses = predict(request, id);
  // Released before the send, so a client that has its answer sees
  // the slot free in stats.
  in_flight_.fetch_sub(1);
  writeResponses(connection, responses);
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
  const Clock::time_point arrival = Clock::now();
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

void Server::writeResponse(Connection* connection,
                           const Response& response) {
  writeResponses(connection, std::span<const Response>(&response, 1));
}

void Server::writeResponses(Connection* connection,
                            std::span<const Response> responses) {
  std::string lines;
  for (const Response& response : responses) {
    switch (response.status) {
      case ResponseStatus::kOk:
        metrics_.ok.fetch_add(1, std::memory_order_relaxed);
        break;
      case ResponseStatus::kShed:
        metrics_.shed.fetch_add(1, std::memory_order_relaxed);
        break;
      case ResponseStatus::kDeadline:
        metrics_.deadline.fetch_add(1, std::memory_order_relaxed);
        break;
      case ResponseStatus::kError:
        metrics_.errors.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    lines += response.serialize();
    lines += '\n';
  }
  sendAll(connection->fd.get(), lines.data(), lines.size());
}

MetricsSnapshot Server::drainAndStop() {
  bool was_running = true;
  if (!running_.compare_exchange_strong(was_running, false)) {
    return stats();  // already stopped (or never started)
  }
  draining_.store(true);
  // Wake the acceptor out of poll and stop new connections.
  if (listen_fd_.valid()) ::shutdown(listen_fd_.get(), SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  // Half-close every live connection: its thread finishes the request
  // in hand, answers lines it has already read with SHED draining
  // (handleLine checks draining_), then sees EOF; writes still flow.
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    for (Connection& connection : connections_) {
      if (connection.fd.valid()) {
        ::shutdown(connection.fd.get(), SHUT_RD);
      }
    }
    for (Connection& connection : connections_) {
      if (connection.thread.joinable()) connection.thread.join();
    }
    connections_.clear();
  }
  listen_fd_.reset();
  const MetricsSnapshot final_stats = stats();
  util::logInfo() << "serve: drained; " << final_stats.toLine();
  return final_stats;
}

}  // namespace tevot::serve

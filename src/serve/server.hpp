// Long-running TEVoT prediction server on the shared loopback
// transport (serve/line_server.hpp: acceptor, connection cap, one
// thread per connection, framing, drain).
//
// A connection thread computes each request line it reads before
// reading the next, so responses are trivially ordered and every
// request gets exactly one — a predictN batch is answered with exactly
// n typed lines in tuple order (a shed/expired batch yields n
// SHED/DEADLINE lines; the metrics invariant requests ==
// ok+shed+deadline+errors counts each tuple as a request). Admission
// is one atomic counter of predict requests computing right now,
// across all connections, against max_in_flight (a batch counts
// once); at the limit the request is answered SHED, never silently
// dropped. An admitted request predicts against the immutable model
// snapshot captured at admission (reload atomicity), is checked
// against its end-to-end deadline before and after compute, and
// routes through the per-FU circuit breaker.
//
// Robustness surface:
//  * load shedding   in-flight admission limit + connection cap, SHED
//                    responses
//  * deadlines       per-request (or server default), checked at
//                    admission and after compute
//  * circuit breaker per model backend; OPEN => typed BREAKER_OPEN
//  * hot reload      ModelRegistry validate-then-swap (control
//                    `reload` request; tevot_serve also maps SIGHUP)
//  * graceful drain  drainAndStop(): the transport's drain, with lines
//                    already read answered SHED draining
//  * fault injection serve.accept / serve.parse / serve.predict /
//                    serve.reload (failures) and serve.slow (delay)
//                    sites, armed via TEVOT_FAULTS or a
//                    local injector — degradation is deterministic and
//                    testable (check::checkServeResilience)
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "serve/breaker.hpp"
#include "serve/line_server.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "util/fault_injection.hpp"

namespace tevot::serve {

struct ServerOptions {
  std::string model_dir;
  /// Listen port on 127.0.0.1; 0 binds an ephemeral port (see port()).
  int port = 0;
  /// Admission limit: predict requests computing at once across all
  /// connections (a predictN batch counts once). One more is answered
  /// SHED queue full. Reported as queue_depth/queue_capacity.
  std::size_t max_in_flight = 64;
  std::size_t max_connections = 64;
  /// Applied when a request carries no deadline; 0 = none.
  double default_deadline_ms = 0.0;
  /// Gate loads/reloads through interval certification
  /// (verify::certifyModelForServing) on top of the point-canary
  /// validation; an uncertifiable model is refused and the previous
  /// set keeps serving.
  bool strict_verify = false;
  BreakerConfig breaker;
  /// Fault injector for the serve.* points; nullptr uses
  /// util::FaultInjector::global() (armed via TEVOT_FAULTS).
  util::FaultInjector* faults = nullptr;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Loads models, binds and starts all threads. Returns a typed
  /// error (and starts nothing) on load/bind failure.
  util::Status start();

  bool running() const { return running_.load(); }
  /// The bound port (after start()).
  int port() const { return transport_.port(); }

  /// Hot reload from the model directory; on failure the previous
  /// models keep serving.
  util::Status reload();

  /// Counters plus live gauges (admitted in-flight requests, breaker
  /// states, generation).
  MetricsSnapshot stats() const;

  /// Graceful drain: LineServer::stop(), with lines already read
  /// answered SHED draining. Idempotent. Returns the final stats
  /// snapshot.
  MetricsSnapshot drainAndStop();

 private:
  /// The transport's per-connection callback: the serve.accept fault
  /// point, then a handler answering on `fd`.
  LineServer::LineHandler onConnection(int fd);
  void handleLine(int fd, std::string_view line);
  Response handleControl(const Request& request);
  /// Computes an admitted predict request: one Response per expected
  /// line (request.responseCount() of them); batch predicts run
  /// through TevotModel::predictDelayBatch, batch deadline/error
  /// outcomes are replicated per tuple.
  std::vector<Response> predict(const Request& request, std::uint64_t id);
  /// Serializes, appends '\n', writes, and bumps the per-status
  /// counter. A failed write (client gone) is not an error.
  void writeResponse(int fd, const Response& response);
  /// writeResponse for every line of a batch, one send() so a batch
  /// answer is never interleaved with another write.
  void writeResponses(int fd, std::span<const Response> responses);

  ServerOptions options_;
  ModelRegistry registry_;
  ServeMetrics metrics_;
  util::FaultInjector* faults_ = nullptr;
  std::map<std::string, CircuitBreaker> breakers_;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<std::size_t> in_flight_{0};
  std::atomic<std::uint64_t> next_request_id_{1};
  std::uint64_t next_connection_id_ = 1;  ///< acceptor thread only
  /// Last member: its threads call into everything above.
  LineServer transport_;
};

}  // namespace tevot::serve

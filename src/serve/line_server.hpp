// Loopback transport for the newline wire protocol, shared by
// serve::Server (tevot_serve) and fleet::Router (tevot_router).
//
// Thread model: one acceptor and one thread per live connection,
// nothing else. The acceptor binds 127.0.0.1:port, counts every
// accepted connection, asks the caller's ConnectionHandler for the
// connection's LineHandler (an empty one drops the connection with a
// clean EOF), and over max_connections live connections answers one
// `SHED connection limit` line and closes. Connection threads are
// reaped by the acceptor once they end.
//
// Framing, identical for every caller: a trailing '\r' is stripped;
// blank and whitespace-only lines get no response and are not
// requests; a line over kMaxLineBytes is answered once with ERROR
// OVERSIZED (one request, one error) and its tail is swallowed up to
// the next newline, so the stream never desynchronizes. Every other
// line goes to the LineHandler, which answers on the connection's fd.
//
// stop() is the drain: stop accepting, half-close every connection
// (SHUT_RD, so each thread finishes the line in hand, handles the
// lines it has already read, then sees EOF while writes still flow),
// and join every thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string_view>
#include <thread>

#include "serve/metrics.hpp"
#include "util/fd.hpp"
#include "util/status.hpp"

namespace tevot::serve {

/// Writes all of `data`, retrying on EINTR and short writes.
/// MSG_NOSIGNAL turns a dead peer into a false return, not SIGPIPE.
bool sendAll(int fd, std::string_view data);

class LineServer {
 public:
  /// Answers one framed request line on the connection's fd.
  using LineHandler = std::function<void(std::string_view line)>;
  /// Runs on the acceptor for each accepted connection, before the
  /// connection cap is checked; per-connection state lives in the
  /// returned handler. An empty handler drops the connection.
  using ConnectionHandler = std::function<LineHandler(int fd)>;

  /// Counts connections, connections_dropped and oversized lines
  /// (requests + errors) into `metrics`. max_connections 0 means 1.
  LineServer(ServeMetrics& metrics, std::size_t max_connections,
             ConnectionHandler on_connection);
  ~LineServer();

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  /// Binds 127.0.0.1:port (0 = ephemeral) and starts the acceptor.
  util::Status start(int port);
  /// The bound port (after start()).
  int port() const { return bound_port_; }
  /// Stop accepting, half-close every connection, join every thread.
  /// Idempotent.
  void stop();

 private:
  struct Connection {
    util::UniqueFd fd;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void acceptLoop();
  void connectionLoop(Connection* connection, const LineHandler& handler);
  void answerOversized(int fd);
  void reapFinishedConnections();

  ServeMetrics& metrics_;
  const std::size_t max_connections_;
  const ConnectionHandler on_connection_;

  util::UniqueFd listen_fd_;
  int bound_port_ = 0;
  std::atomic<bool> stopping_{false};

  std::mutex connections_mutex_;
  std::list<Connection> connections_;  ///< guarded by connections_mutex_
  std::thread acceptor_;
};

}  // namespace tevot::serve

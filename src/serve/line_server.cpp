#include "serve/line_server.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <utility>

#include "serve/protocol.hpp"
#include "util/log.hpp"

namespace tevot::serve {

bool sendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

LineServer::LineServer(ServeMetrics& metrics, std::size_t max_connections,
                       ConnectionHandler on_connection)
    : metrics_(metrics),
      max_connections_(max_connections == 0 ? 1 : max_connections),
      on_connection_(std::move(on_connection)) {}

LineServer::~LineServer() { stop(); }

util::Status LineServer::start(int port) {
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
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return util::Status::ioError("bind 127.0.0.1:" + std::to_string(port) +
                                 ": " + std::strerror(errno));
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
  stopping_.store(false);
  acceptor_ = std::thread([this] { acceptLoop(); });
  return util::Status::okStatus();
}

void LineServer::acceptLoop() {
  while (!stopping_.load()) {
    pollfd pfd{listen_fd_.get(), POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 100);
    if (rc < 0) {
      if (errno == EINTR) continue;
      util::logWarn() << "line server: poll: " << std::strerror(errno);
      break;
    }
    reapFinishedConnections();
    if (rc == 0 || (pfd.revents & POLLIN) == 0) continue;
    util::UniqueFd conn(::accept4(listen_fd_.get(), nullptr, nullptr,
                                  SOCK_CLOEXEC));
    if (!conn.valid()) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listener shut down under us (stop) or fatal
    }
    metrics_.connections.fetch_add(1, std::memory_order_relaxed);
    LineHandler handler = on_connection_(conn.get());
    if (!handler) {
      metrics_.connections_dropped.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    if (connections_.size() >= max_connections_) {
      sendAll(conn.get(),
              Response::shed("connection limit").serialize() + "\n");
      metrics_.connections_dropped.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Connection* entry = &connections_.emplace_back();
    entry->fd = std::move(conn);
    entry->thread = std::thread(
        [this, entry, handler = std::move(handler)] {
          connectionLoop(entry, handler);
        });
  }
}

void LineServer::reapFinishedConnections() {
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

void LineServer::answerOversized(int fd) {
  metrics_.requests.fetch_add(1, std::memory_order_relaxed);
  metrics_.count(ResponseStatus::kError);
  sendAll(fd, Response::error(ErrorCode::kOversized,
                              "request line exceeds " +
                                  std::to_string(kMaxLineBytes) + " bytes")
                      .serialize() +
                  "\n");
}

void LineServer::connectionLoop(Connection* connection,
                                const LineHandler& handler) {
  const int fd = connection->fd.get();
  std::string buffer;
  bool discarding = false;  // inside an answered oversized line
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF, error, or stop()'s shutdown(SHUT_RD)
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n'); nl != std::string::npos;
         start = nl + 1, nl = buffer.find('\n', start)) {
      std::string_view line(buffer.data() + start, nl - start);
      if (discarding) {
        discarding = false;  // the tail of the oversized line
        continue;
      }
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (line.size() > kMaxLineBytes) {
        answerOversized(fd);
        continue;
      }
      if (line.find_first_not_of(" \t") == std::string_view::npos) continue;
      handler(line);
    }
    buffer.erase(0, start);
    if (discarding) {
      buffer.clear();
    } else if (buffer.size() > kMaxLineBytes) {
      // Over the cap with no newline yet: answer once, then swallow
      // everything up to the newline.
      answerOversized(fd);
      discarding = true;
      buffer.clear();
    }
  }
  connection->done.store(true);
}

void LineServer::stop() {
  stopping_.store(true);
  // Wake the acceptor out of poll and stop new connections.
  if (listen_fd_.valid()) ::shutdown(listen_fd_.get(), SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  const std::lock_guard<std::mutex> lock(connections_mutex_);
  for (Connection& connection : connections_) {
    ::shutdown(connection.fd.get(), SHUT_RD);
  }
  for (Connection& connection : connections_) {
    connection.thread.join();
  }
  connections_.clear();
  listen_fd_.reset();
}

}  // namespace tevot::serve

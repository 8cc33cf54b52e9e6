// The shared loopback transport (serve::LineServer): one byte matrix
// of framing edge cases runs against a serve::Server and against a
// fleet::Router front port, and both must answer it identically and
// count it identically; plus the connection cap on a bare LineServer.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <chrono>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "fleet/router.hpp"
#include "serve/client.hpp"
#include "serve/line_server.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve_test_util.hpp"
#include "util/fd.hpp"

namespace tevot::serve {
namespace {

/// A client that writes raw bytes (no implied newline), so a test
/// controls exactly how a line is split across sends.
class RawConnection {
 public:
  explicit RawConnection(int port)
      : fd_(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0)) {
    timeval tv{};
    tv.tv_sec = 5;  // a missing answer fails the test instead of hanging
    ::setsockopt(fd_.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    EXPECT_EQ(::connect(fd_.get(), reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
  }

  /// Sends `bytes`, then pauses so the next send reaches the server
  /// as a separate recv().
  void send(std::string_view bytes) {
    EXPECT_TRUE(sendAll(fd_.get(), bytes));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  std::string readLine() {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[1024];
      const ssize_t n = ::recv(fd_.get(), chunk, sizeof(chunk), 0);
      if (n <= 0) {
        ADD_FAILURE() << "no response line";
        return "";
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  util::UniqueFd fd_;
  std::string buffer_;
};

const std::string kPredict =
    "predict int_add 0x1.ccccccccccccdp-1 25 300 7 9 1 2";

/// The framing matrix on one connection; every response line in order.
std::vector<std::string> runMatrix(int port) {
  RawConnection conn(port);
  std::vector<std::string> responses;
  conn.send(kPredict + "\n");
  responses.push_back(conn.readLine());
  conn.send(kPredict + "\r\n");
  responses.push_back(conn.readLine());
  // Blank and whitespace-only lines get no response: the next line
  // read answers the predict sent after them.
  conn.send("\n \t\n\r\n\t\r\n" + kPredict + "\n");
  responses.push_back(conn.readLine());
  // An oversized line in several chunks, none with a newline: answered
  // once when it passes kMaxLineBytes, the rest swallowed up to the
  // newline, after which the connection serves the next line.
  const std::string chunk(kMaxLineBytes / 3, 'x');
  for (int i = 0; i < 4; ++i) conn.send(chunk);
  responses.push_back(conn.readLine());
  for (int i = 0; i < 3; ++i) conn.send(chunk);
  conn.send("\n" + kPredict + "\n");
  responses.push_back(conn.readLine());
  return responses;
}

struct Counted {
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
};

Counted delta(const MetricsSnapshot& before, const MetricsSnapshot& after) {
  return {after.requests - before.requests, after.ok - before.ok,
          after.errors - before.errors};
}

TEST(LineServerTest, ServerAndRouterFrameIdentically) {
  // The router's shard is a server of its own, so its health probes
  // do not land in the standalone server's counters.
  ServerOptions server_options;
  server_options.model_dir = serve_test::serveTestModels().dir;
  Server server(server_options);
  ASSERT_TRUE(server.start().ok());
  Server shard(server_options);
  ASSERT_TRUE(shard.start().ok());
  fleet::RouterOptions router_options;
  router_options.backend_timeout_ms = 2000.0;
  fleet::Router router(router_options, {{shard.port(), {}}});
  ASSERT_TRUE(router.start().ok());
  ASSERT_TRUE(router.shardEligible(0));

  const MetricsSnapshot server_before = server.stats();
  const std::vector<std::string> direct = runMatrix(server.port());
  const Counted server_counted = delta(server_before, server.stats());

  const MetricsSnapshot router_before = router.stats();
  const std::vector<std::string> relayed = runMatrix(router.port());
  const Counted router_counted = delta(router_before, router.stats());

  EXPECT_EQ(relayed, direct);
  ASSERT_EQ(direct.size(), 5u);
  Response ok;
  ASSERT_TRUE(parseResponse(direct[0], &ok));
  EXPECT_EQ(ok.status, ResponseStatus::kOk);
  EXPECT_EQ(direct[1], direct[0]);  // CRLF answered like LF
  EXPECT_EQ(direct[2], direct[0]);
  EXPECT_EQ(direct[3], "ERROR OVERSIZED request line exceeds " +
                           std::to_string(kMaxLineBytes) + " bytes");
  EXPECT_EQ(direct[4], direct[0]);

  // Four predicts and one oversized line; the blank lines are not
  // requests.
  for (const Counted& counted : {server_counted, router_counted}) {
    EXPECT_EQ(counted.requests, 5u);
    EXPECT_EQ(counted.ok, 4u);
    EXPECT_EQ(counted.errors, 1u);
  }

  router.drainAndStop();
  shard.drainAndStop();
  server.drainAndStop();
}

TEST(LineServerTest, ConnectionCapShedsOneLineThenAdmitsAfterLeave) {
  ServeMetrics metrics;
  LineServer transport(metrics, 1, [](int fd) -> LineServer::LineHandler {
    return [fd](std::string_view line) {
      sendAll(fd, "echo " + std::string(line) + "\n");
    };
  });
  ASSERT_TRUE(transport.start(0).ok());

  LineClient first;
  ASSERT_TRUE(first.connectTo(transport.port(), 5000.0).ok());
  ASSERT_TRUE(first.sendLine("one"));
  EXPECT_EQ(first.readLine(), std::optional<std::string>("echo one"));

  LineClient second;
  ASSERT_TRUE(second.connectTo(transport.port(), 5000.0).ok());
  EXPECT_EQ(second.readLine(),
            std::optional<std::string>("SHED connection limit"));
  EXPECT_EQ(second.readLine(), std::nullopt);  // then EOF
  EXPECT_EQ(metrics.connections.load(), 2u);
  EXPECT_EQ(metrics.connections_dropped.load(), 1u);

  // The acceptor reaps the first connection once its thread has seen
  // EOF; a newcomer arriving before that is still over the cap. A shed
  // newcomer gets its SHED line at once; an admitted one hears nothing
  // until it sends (it sends only then, so a close never races it).
  first.close();
  bool served = false;
  for (int attempt = 0; attempt < 100 && !served; ++attempt) {
    LineClient third;
    ASSERT_TRUE(third.connectTo(transport.port(), 200.0).ok());
    const std::optional<std::string> shed = third.readLine();
    if (shed.has_value()) {
      EXPECT_EQ(*shed, "SHED connection limit");
      continue;
    }
    ASSERT_TRUE(third.sendLine("three"));
    EXPECT_EQ(third.readLine(), std::optional<std::string>("echo three"));
    served = true;
  }
  EXPECT_TRUE(served);
  transport.stop();
}

}  // namespace
}  // namespace tevot::serve

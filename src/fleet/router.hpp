// Front router of the TEVoT serving fleet.
//
// The router accepts the exact tevot_serve newline protocol on one
// loopback port, through the same transport as the server
// (serve/line_server.hpp), and fans predict/predictN requests out
// over loopback TCP to N worker shards (each a serve::Server with its
// own ModelSet).
// Clients cannot tell a router from a single server: every request
// line still gets exactly one well-formed typed response (predictN: n
// lines), and relayed OK lines pass through byte-for-byte, so the
// hexfloat bit-identity contract of the single-server oracle holds
// end to end through the fleet.
//
// Sharding policies:
//   kReplicated  every shard serves every FU; requests round-robin
//                over the eligible shards, and a failed forward
//                reroutes to a sibling (predicts are idempotent, and
//                rerouting only happens before the first response
//                line has been relayed).
//   kPerFu       each shard owns a fixed FU subset (ShardEndpoint::
//                fus); the owner is the only target, so a failed
//                forward retries the same shard and then degrades to
//                a typed SHED.
//
// Eligibility and the backpressure contract: a shard is routed to
// only while (a) it is not administratively down (rolling reload /
// supervisor restart window), (b) its circuit breaker is CLOSED, and
// (c) its queue fraction — queue_depth/queue_capacity from the last
// polled worker stats line — is below shed_queue_fraction. The
// health thread polls each shard's in-band `stats` every
// health_interval_ms, feeds the breaker (probe failures open it;
// OPEN shards are skipped by routing until a cooled-down probe
// succeeds), and caches the parsed worker snapshot for fleet-wide
// aggregation (exact cross-process histogram merge). When no shard
// is eligible the router sheds with a typed SHED — backpressure is
// never a silent drop or an unbounded queue.
//
// Rolling zero-downtime reload (`reload` verb or tevot_router's
// SIGHUP): one shard at a time — mark admin-down (drain: new
// requests redirect to siblings under kReplicated and shed under
// kPerFu), wait for that shard's in-flight count to reach zero, send
// the in-band `reload`, verify the generation bump, mark admin-up,
// proceed. A failing shard reload aborts the roll with the remaining
// shards untouched (their previous models keep serving).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/breaker.hpp"
#include "serve/client.hpp"
#include "serve/line_server.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "util/status.hpp"

namespace tevot::fleet {

enum class ShardPolicy { kReplicated, kPerFu };

const char* shardPolicyName(ShardPolicy policy);  ///< "replicated"/"per-fu"
/// Parses "replicated"/"per-fu"; false on anything else.
bool parseShardPolicy(std::string_view text, ShardPolicy* out);

/// One worker shard as the router sees it: a loopback port plus (for
/// kPerFu) the FU names it owns. An empty fus list under kPerFu owns
/// nothing; under kReplicated fus is ignored.
struct ShardEndpoint {
  int port = 0;
  std::vector<std::string> fus;
};

struct RouterOptions {
  /// Front listen port on 127.0.0.1; 0 binds an ephemeral port.
  int port = 0;
  ShardPolicy policy = ShardPolicy::kReplicated;
  /// Worker stats poll + breaker probe cadence.
  double health_interval_ms = 50.0;
  /// Shed new requests for a shard whose polled queue_depth /
  /// queue_capacity is at or above this fraction.
  double shed_queue_fraction = 0.9;
  /// SO_RCVTIMEO on backend connections: bounds how long a dead or
  /// wedged shard can stall a relay before it degrades to a typed
  /// response. 0 disables the timeout.
  double backend_timeout_ms = 5000.0;
  /// Per-shard health breaker (probe failures open it).
  serve::BreakerConfig breaker{.failure_threshold = 3,
                               .cooldown_ms = 100.0};
};

class Router {
 public:
  Router(RouterOptions options, std::vector<ShardEndpoint> shards);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Binds the front port and starts the transport + health threads.
  util::Status start();

  bool running() const { return running_.load(); }
  int port() const { return transport_.port(); }
  std::size_t shardCount() const { return shards_.size(); }

  /// Router-side accounting: requests == ok+shed+deadline+errors over
  /// everything the router answered (relayed or self-generated), with
  /// router-measured latency. Gauges summarize the fleet: queue =
  /// summed worker queues, breakers_open = open shard breakers,
  /// generation = minimum worker generation.
  serve::MetricsSnapshot stats() const;

  /// Exact cross-process aggregation of the last polled worker stats
  /// lines: counters summed, latency histograms merged bucket-wise.
  serve::MetricsSnapshot workerStats() const;

  /// Rolling zero-downtime reload across the fleet; stops at the
  /// first shard whose reload fails (its previous models keep
  /// serving, later shards are not touched).
  util::Status rollingReload();

  /// True while the shard is routed to (admin-up, breaker closed).
  bool shardEligible(std::size_t shard) const;

  /// Supervisor hooks around a worker restart: markShardDown removes
  /// the shard from rotation immediately (faster than waiting for
  /// probe failures to open the breaker); setShardPort re-targets the
  /// shard after a respawn and re-admits it once a probe succeeds.
  void markShardDown(std::size_t shard);
  void setShardPort(std::size_t shard, int port);

  /// Graceful drain: LineServer::stop(), with lines already read
  /// answered SHED draining, then the health thread. Idempotent.
  /// Returns the final router-side stats.
  serve::MetricsSnapshot drainAndStop();

 private:
  struct Shard {
    std::atomic<int> port{0};
    std::vector<std::string> fus;
    serve::CircuitBreaker breaker;
    std::atomic<bool> admin_down{false};
    /// True once a health probe has succeeded on the current port;
    /// cleared by markShardDown/setShardPort so a restarting shard
    /// re-enters rotation only after it answers a probe.
    std::atomic<bool> probed_up{false};
    std::atomic<std::size_t> in_flight{0};
    /// queue_depth/queue_capacity from the last poll, in 1/1024ths
    /// (atomic double is avoided for older toolchains).
    std::atomic<std::uint32_t> queue_permille{0};
    mutable std::mutex stats_mutex;
    serve::MetricsSnapshot last_stats;  ///< guarded by stats_mutex

    explicit Shard(const serve::BreakerConfig& config)
        : breaker(config) {}
  };

  /// A cached backend connection plus the port it was dialed on, so a
  /// supervisor-restarted shard (new port) forces a reconnect.
  struct BackendConn {
    int port = 0;
    serve::LineClient client;
  };

  /// Cached backend connections by shard index, one map per client
  /// connection, used only by that connection's thread.
  using Backends = std::map<std::size_t, BackendConn>;

  void healthLoop();
  void handleLine(int fd, Backends& backends, std::string_view line);
  serve::Response handleControl(const serve::Request& request);
  /// Routes one parsed predict/predictN; writes exactly
  /// request.responseCount() lines to the client.
  void routePredict(int fd, Backends& backends,
                    const serve::Request& request, const std::string& line);
  /// The next eligible shard for `request`, or npos. `exclude` skips
  /// shards already tried this request (reroute path).
  std::size_t pickShard(const serve::Request& request,
                        const std::vector<bool>& exclude) const;
  bool probeShard(std::size_t index, BackendConn* conn);
  void writeResponses(int fd, const std::vector<std::string>& lines);

  RouterOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::map<std::string, std::size_t> fu_owner_;  ///< kPerFu routing map
  serve::ServeMetrics metrics_;

  std::thread health_;
  std::mutex reload_mutex_;  ///< serializes rollingReload()s

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  mutable std::atomic<std::uint64_t> round_robin_{0};
  /// Last member: its threads call into everything above.
  serve::LineServer transport_;
};

}  // namespace tevot::fleet

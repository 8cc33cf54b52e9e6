// serve: an in-process serve::Server (default ServerOptions, quiet
// fault injector) driven over loopback by nproc / 2 client connections:
// every request in flight holds a client thread and a server thread, so
// half the cores' worth of connections keeps the machine busy without
// oversubscribing it.
// Traffic mixes predictN lines of 16 tuples (the DVFS window) with
// single predict lines in the proportion the fleet load generator sends
// by default (fleet::LoadgenOptions::batch_fraction, one predictN in
// five); every request draws a fresh continuous (V, T).
//
// Two phases:
//  * open loop: requests are due at a fixed rate, round-robin over the
//    connections; latency is timed from each request's due time, so a
//    stalled connection delays the requests queued behind it, and the
//    generator reports how late it sent;
//  * closed loop: every connection sends its next request when the
//    previous one is answered, in slices separated by pauses in which
//    the responses are checked.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>

#include "common.hpp"
#include "fleet/loadgen.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/fault_injection.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace serve = tevot::serve;

namespace {

constexpr const char* kFu = "int_mul";
constexpr std::size_t kBatchTuples = 16;
/// Share of requests that are predictN lines, as tevot_loadgen sends.
const double kBatchFraction = tevot::fleet::LoadgenOptions{}.batch_fraction;
/// Open-loop rate [requests/s]: each connection is busy about a tenth
/// of the time, so no backlog builds even when the host slows the
/// round trip several-fold, and latency is the service path.
constexpr double kOpenLoopRate = 2000.0;
/// A send this far past its due time counts as late.
constexpr double kLateMs = 1.0;
/// Closed-loop slice: requests per connection between two pauses.
constexpr std::size_t kSliceRequests = 1000;
/// Open-loop requests per tail-latency sample: p99 is the median of the
/// p99s of consecutive chunks, each with 10 samples beyond its p99, so
/// one scheduling hiccup moves one chunk and not the figure.
constexpr std::size_t kChunkRequests = 1000;

struct Request {
  double voltage = 0.0;
  double temperature = 0.0;
  double tclk_ps = 0.0;
  bool batch = false;
  std::vector<serve::BatchOperand> tuples;
};

Request drawRequest(util::Rng& rng) {
  Request r;
  r.voltage = rng.nextDouble(0.81, 1.00);
  r.temperature = rng.nextDouble(0.0, 100.0);
  r.tclk_ps = rng.nextDouble(200.0, 2000.0);
  r.batch = rng.nextDouble() < kBatchFraction;
  r.tuples.resize(r.batch ? kBatchTuples : 1);
  for (serve::BatchOperand& t : r.tuples) {
    t = {rng.nextU32(), rng.nextU32(), rng.nextU32(), rng.nextU32()};
  }
  return r;
}

std::string formatRequest(const Request& r) {
  if (r.batch) {
    return serve::formatBatchRequest(kFu, r.voltage, r.temperature, r.tclk_ps,
                                     r.tuples);
  }
  const serve::BatchOperand& t = r.tuples[0];
  char line[192];
  std::snprintf(line, sizeof(line),
                "predict %s %a %a %a 0x%x 0x%x 0x%x 0x%x", kFu, r.voltage,
                r.temperature, r.tclk_ps, t.a, t.b, t.prev_a, t.prev_b);
  return line;
}

/// What one connection sent and received.
struct ConnLog {
  std::vector<Request> requests;
  std::string responses;  ///< every response line, '\n'-terminated
  std::vector<double> rtt_us;
  std::uint64_t late_sends = 0;
  std::uint64_t tuples = 0;
  std::uint64_t lost = 0;  ///< requests that got no complete answer
};

/// Sends one request and appends its n response lines to the log.
bool exchange(serve::LineClient& client, const Request& request,
              const std::string& line, ConnLog& log) {
  const Span span("serve.request");
  if (!client.sendLine(line)) return false;
  for (std::size_t i = 0; i < request.tuples.size(); ++i) {
    const std::optional<std::string> response = client.readLine();
    if (!response) return false;
    log.responses += *response;
    log.responses += '\n';
  }
  return true;
}

/// Checks every response line of `log` against offline prediction:
/// exactly one line per tuple, each bit-identical to the line
/// Response::ok(predictDelay(...)) serializes to.
void verifyLog(ConnLog& log, const core::TevotModel& model, Report& report,
               std::mutex& report_mutex) {
  std::size_t at = 0;
  std::vector<bool> ok(log.requests.size(), true);
  std::string first_bad;
  for (std::size_t i = 0; i < log.requests.size(); ++i) {
    const Request& request = log.requests[i];
    for (const serve::BatchOperand& t : request.tuples) {
      const std::size_t end = log.responses.find('\n', at);
      if (end == std::string::npos) {
        ok[i] = false;
        break;
      }
      const std::string_view got(log.responses.data() + at, end - at);
      at = end + 1;
      const double delay = model.predictDelay(
          t.a, t.b, t.prev_a, t.prev_b,
          {request.voltage, request.temperature});
      const std::string want =
          serve::Response::ok(delay, delay > request.tclk_ps).serialize();
      if (got != want) {
        ok[i] = false;
        if (first_bad.empty()) {
          first_bad = "got '" + std::string(got) + "' want '" + want + "'";
        }
      }
    }
  }
  const std::lock_guard<std::mutex> lock(report_mutex);
  for (const bool request_ok : ok) {
    report.attempt(report.expect(request_ok, "serve", first_bad));
  }
  for (std::uint64_t i = 0; i < log.lost; ++i) {
    report.attempt(report.expect(false, "serve", "request lost its answer"));
  }
}

/// Joins the threads on every exit path, after `stop` tells them to end.
class ThreadGroup {
 public:
  explicit ThreadGroup(std::function<void()> stop) : stop_(std::move(stop)) {}
  ~ThreadGroup() { join(); }
  ThreadGroup(const ThreadGroup&) = delete;
  ThreadGroup& operator=(const ThreadGroup&) = delete;

  template <typename F>
  void spawn(F&& body) {
    threads_.emplace_back(std::forward<F>(body));
  }
  void join() {
    if (stop_) stop_();
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  std::function<void()> stop_;
  std::vector<std::thread> threads_;
};

void corruptOneLine(ConnLog& log) {
  const std::size_t eq = log.responses.find('=');
  if (eq != std::string::npos) log.responses[eq + 1] ^= 1;
}

/// Median server latency [ms] of the requests the server answered
/// between two stats snapshots: the bucket-wise difference of their
/// latency histograms, so it has the histogram's resolution.
double serverP50Between(const serve::MetricsSnapshot& before,
                        const serve::MetricsSnapshot& after) {
  std::vector<std::pair<std::size_t, std::size_t>> buckets;
  for (std::size_t b = 0; b < util::LatencyHistogram::kBuckets; ++b) {
    const std::size_t n =
        after.latency.bucketCount(b) - before.latency.bucketCount(b);
    if (n > 0) buckets.emplace_back(b, n);
  }
  return util::LatencyHistogram::fromBuckets(buckets, after.latency.minMs(),
                                             after.latency.maxMs())
      .p50();
}

class ServeRun {
 public:
  ServeRun(const Options& options, Report& report)
      : options_(options), report_(report),
        connections_(std::max<std::size_t>(
            1, util::ThreadPool::hardwareThreads() / 2)),
        model_dir_(options.out_dir + "/serve-models-" +
                   std::to_string(::getpid())) {}

  ~ServeRun() {
    stopServer();
    std::error_code ec;
    std::filesystem::remove_all(model_dir_, ec);
  }

  void stopServer() {
    if (server_) server_->drainAndStop();
    server_.reset();
  }

  void setup() {
    bool ok = true;
    fu_ = trainFu(circuits::FuKind::kIntMul, options_.seed, options_.tiny,
                  report_, ok);
    std::filesystem::create_directories(model_dir_);
    fu_.model.save(model_dir_ + "/" + kFu + ".model");
    serve::ServerOptions server_options;
    server_options.model_dir = model_dir_;
    server_options.faults = &quiet_;
    server_ = std::make_unique<serve::Server>(server_options);
    const util::Status started = server_->start();
    if (!started.ok()) {
      throw std::runtime_error("serve: server did not start: " +
                               started.message);
    }
    setup_ok_ = setup_ok_ && ok;
  }

  void run() {
    report_.setup_s = timeSetup([&] { setup(); }, [&] { stopServer(); });
    report_.attempt(setup_ok_);
    openLoop();
    closedLoop();
    finish();
  }

 private:
  serve::LineClient connect() {
    serve::LineClient client;
    const util::Status status = client.connectTo(server_->port());
    if (!status.ok()) {
      throw std::runtime_error("serve: connect failed: " + status.message);
    }
    return client;
  }

  void verifyAll(std::vector<ConnLog>& logs) {
    if (report_.corruptNow("serve")) corruptOneLine(logs[0]);
    util::ThreadPool pool(connections_);
    pool.parallelFor(logs.size(), [&](std::size_t c) {
      verifyLog(logs[c], fu_.model, report_, report_mutex_);
    });
  }

  void openLoop() {
    const double phase_s = options_.seconds / 2.0;
    const std::size_t total =
        static_cast<std::size_t>(phase_s * kOpenLoopRate);
    std::vector<ConnLog> logs(connections_);
    from_due_ms_.assign(total, -1.0);
    due_batch_.assign(total, false);
    for (std::size_t c = 0; c < connections_; ++c) {
      util::Rng rng(options_.seed * 1000003ULL + c);
      for (std::size_t i = c; i < total; i += connections_) {
        logs[c].requests.push_back(drawRequest(rng));
        due_batch_[i] = logs[c].requests.back().batch;
      }
    }
    std::vector<serve::LineClient> clients;
    for (std::size_t c = 0; c < connections_; ++c) {
      clients.push_back(connect());
    }
    setTracing(options_.trace);
    const std::int64_t start = nowNs() + 20'000'000;  // 20 ms to start
    ThreadGroup threads(nullptr);
    for (std::size_t c = 0; c < connections_; ++c) {
      threads.spawn([&, c] {
        ConnLog& log = logs[c];
        for (std::size_t k = 0; k < log.requests.size(); ++k) {
          const std::size_t i = c + k * connections_;
          const std::int64_t due =
              start + static_cast<std::int64_t>(
                          static_cast<double>(i) * 1e9 / kOpenLoopRate);
          const std::string line = formatRequest(log.requests[k]);
          // Sleep to just before the due time, then spin onto it.
          const std::int64_t wake = due - 200'000;
          if (wake > nowNs()) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(wake - nowNs()));
          }
          while (nowNs() < due) {
          }
          const std::int64_t sent = nowNs();
          if (static_cast<double>(sent - due) * 1e-6 > kLateMs) {
            ++log.late_sends;
          }
          if (!exchange(clients[c], log.requests[k], line, log)) {
            log.lost = log.requests.size() - k;
            log.requests.resize(k);
            return;
          }
          const std::int64_t done = nowNs();
          from_due_ms_[i] = static_cast<double>(done - due) * 1e-6;
          log.rtt_us.push_back(static_cast<double>(done - sent) * 1e-3);
          log.tuples += log.requests[k].tuples.size();
        }
      });
    }
    threads.join();
    setTracing(false);

    std::set<std::pair<double, double>> corners;
    std::size_t repeats = 0;
    std::size_t requests = 0;
    std::uint64_t tuples = 0;
    for (const ConnLog& log : logs) {
      late_sends_ += log.late_sends;
      for (const Request& r : log.requests) {
        if (!corners.insert({r.voltage, r.temperature}).second) ++repeats;
        ++requests;
        tuples += r.tuples.size();
        if (replay_.size() < 2000) replay_.push_back(r);
      }
    }
    corner_repeat_frac_ =
        static_cast<double>(repeats) / static_cast<double>(requests);
    mean_tuples_ = static_cast<double>(tuples) / static_cast<double>(requests);
    verifyAll(logs);
  }

  void closedLoop() {
    std::vector<serve::LineClient> clients;
    for (std::size_t c = 0; c < connections_; ++c) {
      clients.push_back(connect());
    }
    std::vector<ConnLog> logs(connections_);
    std::mutex mutex;
    std::condition_variable cv;
    std::uint64_t generation = 0;
    std::size_t parked = 0;
    bool quit = false;
    std::atomic<bool> quit_now{false};

    ThreadGroup threads([&] {
      quit_now = true;
      {
        const std::lock_guard<std::mutex> lock(mutex);
        quit = true;
      }
      cv.notify_all();
    });
    for (std::size_t c = 0; c < connections_; ++c) {
      threads.spawn([&, c] {
        util::Rng rng(options_.seed * 1000033ULL + 7919 * c);
        std::uint64_t seen = 0;
        ConnLog& log = logs[c];
        while (true) {
          {
            std::unique_lock<std::mutex> lock(mutex);
            cv.wait(lock, [&] { return quit || generation != seen; });
            if (quit) return;
            seen = generation;
          }
          const std::size_t quota = options_.tiny ? 100 : kSliceRequests;
          while (log.requests.size() < quota && !quit_now.load()) {
            log.requests.push_back(drawRequest(rng));
            const Request& request = log.requests.back();
            const std::string line = formatRequest(request);
            const std::int64_t sent = nowNs();
            if (!exchange(clients[c], request, line, log)) {
              log.requests.pop_back();
              ++log.lost;
              break;
            }
            log.rtt_us.push_back(static_cast<double>(nowNs() - sent) * 1e-3);
            log.tuples += request.tuples.size();
          }
          {
            const std::lock_guard<std::mutex> lock(mutex);
            ++parked;
          }
          cv.notify_all();
        }
      });
    }

    const double phase_s = options_.seconds / 2.0;
    const std::int64_t phase_start = nowNs();
    bool traced = false;
    while (secondsSince(phase_start) < phase_s || slice_rate_.size() < 3 ||
           (options_.trace && traced_rate_.empty())) {
      setTracing(traced);
      const serve::MetricsSnapshot before = server_->stats();
      const std::int64_t start = nowNs();
      {
        const std::lock_guard<std::mutex> lock(mutex);
        parked = 0;
        ++generation;
      }
      cv.notify_all();
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return parked == connections_; });
      }
      const double wall = secondsSince(start);
      setTracing(false);
      const serve::MetricsSnapshot after = server_->stats();
      std::uint64_t tuples = 0;
      std::vector<double> rtt;
      for (ConnLog& log : logs) {
        tuples += log.tuples;
        rtt.insert(rtt.end(), log.rtt_us.begin(), log.rtt_us.end());
      }
      const double rate = static_cast<double>(tuples) / wall;
      (traced ? traced_rate_ : slice_rate_).push_back(rate);
      if (!traced) {
        // The server records a request's latency before it writes the
        // answer, so the snapshots bracket exactly this slice's requests.
        const double rtt_us = median(rtt);
        const double server_ms = serverP50Between(before, after);
        slice_rtt_us_.push_back(rtt_us);
        slice_server_ms_.push_back(server_ms);
        slice_residual_us_.push_back(rtt_us - server_ms * 1e3);
      }
      verifyAll(logs);
      for (ConnLog& log : logs) {
        // Keep the capacity: memory stays the same from slice to slice.
        log.requests.clear();
        log.responses.clear();
        log.rtt_us.clear();
        log.tuples = 0;
        log.lost = 0;
      }
      if (options_.trace) traced = !traced;
    }
    threads.join();
  }

  void replayLayers() {
    std::vector<std::string> lines;
    std::vector<serve::Response> responses;
    for (const Request& r : replay_) {
      lines.push_back(formatRequest(r));
      for (const serve::BatchOperand& t : r.tuples) {
        const double delay = fu_.model.predictDelay(
            t.a, t.b, t.prev_a, t.prev_b, {r.voltage, r.temperature});
        responses.push_back(serve::Response::ok(delay, delay > r.tclk_ps));
      }
    }
    const int passes = options_.tiny ? 2 : 20;
    std::size_t batches = 0;
    std::vector<double> out(kBatchTuples);
    std::vector<core::DelayQuery> queries(kBatchTuples);
    setTracing(true);
    for (int pass = 0; pass < passes; ++pass) {
      for (const std::string& line : lines) {
        serve::Request parsed;
        const Span span("serve.parse");
        if (!serve::parseRequest(line, &parsed).ok()) {
          report_.expect(false, "serve", "replayed line does not parse");
        }
      }
      for (const serve::Response& response : responses) {
        const Span span("serve.serialize");
        const std::string text = response.serialize();
        if (text.empty()) report_.expect(false, "serve", "empty response");
      }
      for (const Request& r : replay_) {
        if (!r.batch) continue;
        for (std::size_t i = 0; i < kBatchTuples; ++i) {
          const serve::BatchOperand& t = r.tuples[i];
          queries[i] = {t.a, t.b, t.prev_a, t.prev_b,
                        {r.voltage, r.temperature}};
        }
        const Span span("serve.compute");
        fu_.model.predictDelayBatch(queries, out);
        ++batches;
      }
    }
    setTracing(false);
    const std::vector<SpanRecord> spans = collectSpans();
    report_.layer("serve.parse_ns_per_line",
                  spanSeconds(spans, "serve.parse") * 1e9 /
                      static_cast<double>(lines.size() * passes));
    report_.layer("serve.serialize_ns_per_line",
                  spanSeconds(spans, "serve.serialize") * 1e9 /
                      static_cast<double>(responses.size() * passes));
    report_.layer("serve.compute_us_per_batch",
                  spanSeconds(spans, "serve.compute") * 1e6 /
                      static_cast<double>(std::max<std::size_t>(1, batches)));
    RoundTimes times;
    for (const double rate : slice_rate_) times.untraced_s.push_back(1.0 / rate);
    for (const double rate : traced_rate_) times.traced_s.push_back(1.0 / rate);
    finishTrace(options_, report_, spans, times);
  }

  void finish() {
    const serve::MetricsSnapshot stats = server_->drainAndStop();
    report_.expect(stats.requests == stats.ok + stats.shed + stats.deadline +
                                         stats.errors,
                   "serve", "server counters do not add up");
    const double per_s = median(slice_rate_);
    report_.throughput_per_s = per_s;
    std::vector<double> answered;
    std::vector<double> by_kind[2];  // [0] predict, [1] predictN
    std::vector<double> chunk_p99;
    for (std::size_t lo = 0; lo < from_due_ms_.size(); lo += kChunkRequests) {
      std::vector<double> chunk;
      for (std::size_t i = lo;
           i < std::min(from_due_ms_.size(), lo + kChunkRequests); ++i) {
        if (from_due_ms_[i] < 0.0) continue;
        chunk.push_back(from_due_ms_[i]);
        by_kind[due_batch_[i] ? 1 : 0].push_back(from_due_ms_[i]);
      }
      answered.insert(answered.end(), chunk.begin(), chunk.end());
      if (chunk.size() >= 100) chunk_p99.push_back(percentile(chunk, 0.99));
    }
    const double p50_ms = median(answered);
    const double p99_ms = median(chunk_p99);
    // The end-to-end p50 is the closed loop's: in the open loop most
    // requests wake idle threads on idle cores, and that wake-up cost
    // follows the host's load far more than the server's work does.
    report_.p50_ms = median(slice_rtt_us_) * 1e-3;
    report_.say("serve_per_s", per_s,
                "predictions/s (closed loop, " +
                    std::to_string(connections_) + " connections)");
    report_.say("serve_closed_p50_ms", report_.p50_ms,
                "ms round trip, closed loop (median of " +
                    std::to_string(slice_rtt_us_.size()) + " slices)");
    report_.say("serve_p50_ms", p50_ms,
                "ms from due time, over " + std::to_string(answered.size()) +
                    " requests");
    report_.say("serve_p50_ms_predict", median(by_kind[0]),
                "ms from due time, " + std::to_string(by_kind[0].size()) +
                    " predict lines");
    report_.say("serve_p50_ms_predictN", median(by_kind[1]),
                "ms from due time, " + std::to_string(by_kind[1].size()) +
                    " predictN(16) lines");
    report_.say("serve_p99_ms", p99_ms,
                "ms from due time, median over " +
                    std::to_string(chunk_p99.size()) + " chunks of " +
                    std::to_string(kChunkRequests) + " requests at " +
                    std::to_string(static_cast<int>(kOpenLoopRate)) + "/s");
    report_.say("late_sends", static_cast<double>(late_sends_),
                "requests sent > 1 ms after due");
    if (!options_.trace) return;

    report_.layer("serve.rtt_us", median(slice_rtt_us_));
    report_.layer("serve.server_p50_ms", median(slice_server_ms_));
    report_.layer("serve.residual_us", median(slice_residual_us_));
    report_.layer("serve.shed", static_cast<double>(stats.shed));
    report_.layer("serve.deadline", static_cast<double>(stats.deadline));
    report_.layer("serve.errors", static_cast<double>(stats.errors));
    report_.layer("serve.late_sends", static_cast<double>(late_sends_));
    report_.layer("serve.p50_from_due_ms", p50_ms);
    report_.layer("serve.p99_from_due_ms", p99_ms);
    report_.layer("tevot.accuracy", fu_.accuracy);
    report_.layer("input.corner_repeat_frac", corner_repeat_frac_);
    report_.layer("input.batch_rows", mean_tuples_);
    report_.layer("ml.nodes",
                  static_cast<double>(fu_.model.flatForest().nodeCount()));
    report_.layer("ml.max_depth", fu_.model.flatForest().maxDepth());
    replayLayers();
  }

  const Options& options_;
  Report& report_;
  std::mutex report_mutex_;
  const std::size_t connections_;
  const std::string model_dir_;
  util::FaultInjector quiet_;
  TrainedFu fu_;
  std::unique_ptr<serve::Server> server_;
  bool setup_ok_ = true;

  std::vector<double> from_due_ms_;
  std::vector<bool> due_batch_;  ///< open-loop request i is a predictN
  std::vector<double> slice_rtt_us_;
  std::vector<double> slice_server_ms_;
  std::vector<double> slice_residual_us_;
  std::vector<double> slice_rate_;
  std::vector<double> traced_rate_;
  std::uint64_t late_sends_ = 0;
  std::vector<Request> replay_;
  double corner_repeat_frac_ = 0.0;
  double mean_tuples_ = 0.0;
};

}  // namespace

void runServe(const Options& options, Report& report) {
  ServeRun run(options, report);
  run.run();
}

}  // namespace perfbench

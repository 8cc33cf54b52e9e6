// Resilient, checkpointable corner-sweep engine.
//
// dta::characterizeAll is fail-fast: one throwing job kills the whole
// sweep and discards every completed corner. runSweep() is the
// production-sweep counterpart with per-job isolation — a failing
// corner is recorded in the SweepReport, not fatal — bounded retry
// with exponential backoff, an optional per-job wall-clock deadline,
// optional fail-fast cancellation, and checkpoint/resume: each
// completed corner's trace is written atomically into a sweep
// directory, and a resumed run restores completed corners from disk
// instead of recomputing them (at-least-once semantics: a checkpoint
// that is missing, truncated, or unreadable is simply recomputed).
//
// Determinism: job i's trace depends only on job i, so the surviving
// traces of any run — serial, parallel, fault-injected, resumed — are
// bit-identical to a clean serial run (enforced by
// check::checkSweepFaultTolerance and the sweep tests).
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dta/dta.hpp"
#include "util/fault_injection.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"

namespace tevot::dta {

enum class JobState {
  kPending,           ///< never ran (internal initial state)
  kSucceeded,         ///< computed this run
  kRestored,          ///< loaded from a checkpoint (resume)
  kFailed,            ///< all attempts failed
  kDeadlineExceeded,  ///< all attempts failed, last one over deadline
  kCancelled,         ///< skipped because fail-fast aborted the sweep
};

const char* jobStateName(JobState state);

/// Per-job record in the SweepReport.
struct JobOutcome {
  std::size_t index = 0;
  std::string key;
  JobState state = JobState::kPending;
  int attempts = 0;         ///< executions this run (0 when restored)
  double duration_ms = 0.0; ///< wall clock across attempts (no backoff)
  util::Status status;      ///< last error; ok() on success/restore
};

struct SweepReport {
  std::vector<JobOutcome> outcomes;

  std::size_t count(JobState state) const;
  /// Every job either succeeded or was restored from a checkpoint.
  bool allOk() const;
  /// One-line verdict, e.g. "9 jobs: 7 ok, 2 restored, 0 failed".
  std::string summary() const;
  /// Full per-job table (for --report files and CI artifacts).
  std::string toText() const;
};

struct SweepResult {
  /// Input-order traces; nullopt for failed/cancelled jobs.
  std::vector<std::optional<DtaTrace>> traces;
  SweepReport report;
};

struct SweepOptions {
  int max_retries = 2;          ///< extra attempts after the first
  double backoff_ms = 5.0;      ///< first retry delay; doubles per retry
                                ///< (util::backoffMs, growth 2, no cap)
  double job_deadline_ms = 0.0; ///< per-attempt wall-clock budget; 0 = none
  bool fail_fast = false;       ///< first final failure cancels the rest
  std::string checkpoint_dir;   ///< empty = no checkpointing
  bool resume = false;          ///< restore completed corners from disk
  /// Fault injector consulted at the job.* / io.* points; nullptr
  /// uses util::FaultInjector::global() (armed via TEVOT_FAULTS).
  util::FaultInjector* faults = nullptr;
  /// Cooperative stop (e.g. SIGINT in `tevot_cli sweep`): polled at
  /// job entry and between retry attempts. Once it returns true, no
  /// new work starts — jobs not yet begun finish as kCancelled — but
  /// the in-flight job completes and flushes its checkpoint, so a
  /// later --resume always sees a consistent directory.
  std::function<bool()> stop_requested;
  /// Test hook, called before every execution attempt (job, attempt#).
  std::function<void(std::size_t job, int attempt)> on_attempt;
};

/// The checkpoint/fault key of job i: job.name, or "job<i>" when
/// unset. Keys should be unique per sweep and filesystem-safe.
std::string sweepJobKey(const CharacterizeJob& job, std::size_t index);

/// Runs every job on `pool` with per-job isolation per `options`.
/// Throws std::invalid_argument on malformed jobs (null pointers,
/// duplicate keys when checkpointing) before any work starts; never
/// throws for per-job failures — those land in the report.
SweepResult runSweep(std::span<const CharacterizeJob> jobs,
                     util::ThreadPool& pool,
                     const SweepOptions& options = {});

}  // namespace tevot::dta

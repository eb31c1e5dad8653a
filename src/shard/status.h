// Supervisor-side aggregation of the live telemetry plane: one atomic
// `status.json` snapshot per run directory, derived from the same files
// that make campaigns crash-resilient — checkpoints are the ground truth
// for progress, heartbeats for per-worker liveness, telemetry streams for
// rates, rusage and the fleet-wide detector-step latency distribution
// (docs/OBSERVABILITY.md "Live campaign telemetry").
//
// build_status() reads only the run directory, so a status can be computed
// by the supervisor mid-run, by `roboads_shard watch --manifest=...` after
// the supervisor died, or by CI against a finished run — all three agree
// because none of them trusts anything but the files.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "shard/manifest.h"

namespace roboads::shard {

// One worker label's row in the monitor.
struct WorkerStatus {
  std::string label;
  // Seconds since the last heartbeat; -1 = no heartbeat file yet.
  double heartbeat_age_seconds = -1.0;
  std::uint64_t jobs_done = 0;  // outcome lines in this label's checkpoint
  // From the heartbeat payload (this worker instance).
  std::uint64_t instance_jobs_done = 0;
  std::string last_job;
  double last_job_unix_time = 0.0;
  std::string current_job;
  // From the latest telemetry record of the latest instance.
  double rate_jobs_per_second = 0.0;
  double max_rss_kb = 0.0;
};

// Counters only the live supervisor knows (zero when a status is built
// offline from files alone).
struct SupervisionCounters {
  std::uint64_t launches = 0;
  std::uint64_t crashes = 0;
  std::uint64_t hangs = 0;
  std::uint64_t lost_shards = 0;
  std::uint64_t salvage_workers = 0;
  std::uint64_t slow_job_grants = 0;  // watchdog grace periods granted
};

struct RunStatus {
  double unix_time = 0.0;
  std::uint64_t total_jobs = 0;
  // Progress, from the deduplicated checkpoint outcomes (the ground truth
  // the merged report is built from).
  std::uint64_t completed = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t violations = 0;
  bool complete = false;
  double progress = 0.0;  // completed / total_jobs (0 when empty manifest)
  // Supervisor wall-clock seconds (0 when built offline).
  double elapsed_seconds = 0.0;
  // Fleet completion rate (sum of live worker rates) and the derived ETA;
  // eta_seconds < 0 means unknown (no rate yet, or already complete).
  double rate_jobs_per_second = 0.0;
  double eta_seconds = -1.0;
  SupervisionCounters counters;
  // Fleet-wide engine.step_ns distribution: every worker instance's
  // snapshot merged exactly (obs::HistogramSnapshot::merge).
  obs::HistogramSnapshot step_latency;
  std::vector<WorkerStatus> workers;  // label order
};

// A worker whose heartbeat is older than this is excluded from the fleet
// completion rate (it is dead, stopped, or between retries; counting it
// would inflate the ETA's denominator). The threshold scales with the
// configured heartbeat/telemetry cadence — a worker legitimately beating
// every 15 s must not be declared dead at 10 s — with a floor for fast
// cadences so one missed beat isn't a death sentence.
// `heartbeat_interval_seconds <= 0` selects the floor alone.
double live_heartbeat_threshold_seconds(double heartbeat_interval_seconds);

// Computes a status from the run directory's files. Tolerates torn
// telemetry/heartbeat tails (never repairs — sibling processes may be
// writing); throws only on real mid-file corruption.
// `heartbeat_interval_seconds` is the cadence the run's workers were
// configured with (--telemetry-interval); it sets the liveness threshold
// via live_heartbeat_threshold_seconds.
RunStatus build_status(const Manifest& manifest, const std::string& dir,
                       const SupervisionCounters& counters = {},
                       double elapsed_seconds = 0.0,
                       double heartbeat_interval_seconds = 0.0);

// Wire form (obs/jsonl.h record codec): one line, byte-stable through
// write→read→write; the supervision counters sit inline after eta_s.
template <class IO>
void codec(IO& io, WorkerStatus& w) {
  io("label", w.label);
  io("heartbeat_age_s", w.heartbeat_age_seconds);
  io("jobs_done", w.jobs_done);
  io("instance_jobs_done", w.instance_jobs_done);
  io("last_job", w.last_job);
  io("last_job_unix_time", w.last_job_unix_time);
  io("current_job", w.current_job);
  io("rate_jobs_per_s", w.rate_jobs_per_second);
  io("max_rss_kb", w.max_rss_kb);
}

template <class IO>
void codec(IO& io, SupervisionCounters& c) {
  io("launches", c.launches);
  io("crashes", c.crashes);
  io("hangs", c.hangs);
  io("lost_shards", c.lost_shards);
  io("salvage_workers", c.salvage_workers);
  io("slow_job_grants", c.slow_job_grants);
}

template <class IO>
void codec(IO& io, RunStatus& s) {
  io.tag("event", "status");
  io.tag("name", "roboads-shard-status");
  io.tag("version", 1);
  io("unix_time", s.unix_time);
  io("jobs", s.total_jobs);
  io("completed", s.completed);
  io("ok", s.ok);
  io("failed", s.failed);
  io("violations", s.violations);
  io("complete", s.complete);
  io("progress", s.progress);
  io("elapsed_s", s.elapsed_seconds);
  io("rate_jobs_per_s", s.rate_jobs_per_second);
  io("eta_s", s.eta_seconds);
  codec(io, s.counters);
  io("step_latency", s.step_latency);
  io("workers", s.workers);
}

std::string status_path(const std::string& dir);  // <dir>/status.json

// Published atomically with obs::json::publish (readers never see a
// partial snapshot) and read back with obs::json::read_snapshot, which
// throws CheckError when the file is missing or unreadable.
inline constexpr obs::json::SnapshotFile<RunStatus> kStatusFile{
    "status",
    "is a supervisor running with telemetry on? pass --manifest= to compute "
    "one from the checkpoints instead"};

// The `roboads_shard watch` terminal rendering: progress bar, fleet
// latency quantiles, per-worker rows.
std::string render_status(const RunStatus& status);

}  // namespace roboads::shard

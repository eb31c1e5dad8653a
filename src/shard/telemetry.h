// Per-worker telemetry streams: the worker half of the live campaign
// telemetry plane (docs/OBSERVABILITY.md "Live campaign telemetry").
//
// Each worker appends periodic JSONL records — jobs done, per-group
// outcome tallies, a mergeable detector-step latency histogram snapshot,
// and rusage — to `telemetry-<label>.jsonl` next to its checkpoint. The
// file shares the checkpoint's crash model: append-only, flushed per
// record, at most one torn final line after a SIGKILL, repaired/skipped by
// the same torn-tail-tolerant reader (obs/jsonl.h). Unlike checkpoints,
// telemetry never feeds results: the merged report is derived from
// checkpoints alone, so a lost telemetry tail costs staleness, not
// correctness.
//
// Records are *per worker instance* (keyed by pid): a retried worker
// starts its own counters at zero, and aggregation takes the last record
// of every instance and merges — exactly where the histogram snapshots'
// exact mergeability pays off (obs::HistogramSnapshot).
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "shard/checkpoint.h"

namespace roboads::shard {

// Outcome tallies for one replication group, as seen by one worker
// instance.
struct TelemetryGroupTally {
  std::uint64_t done = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t violations = 0;
  std::uint64_t alarms = 0;  // jobs with any sensor/actuator positive
};

struct TelemetryRecord {
  std::string label;          // worker label (s0, v1-2)
  std::int64_t instance = 0;  // pid of the writing worker instance
  std::uint64_t seq = 0;      // per-instance sequence number, from 0
  double unix_time = 0.0;     // CLOCK_REALTIME at append
  double elapsed_seconds = 0.0;  // since this instance started
  std::uint64_t jobs_assigned = 0;  // handed to this instance at launch
  std::uint64_t jobs_done = 0;      // completed by this instance
  std::map<std::string, TelemetryGroupTally> groups;
  obs::HistogramSnapshot step_latency;  // engine.step_ns, this instance
  // getrusage(RUSAGE_SELF) at append.
  double max_rss_kb = 0.0;
  double user_seconds = 0.0;
  double system_seconds = 0.0;

  // This instance's completion rate; 0 until time has passed.
  double jobs_per_second() const {
    return elapsed_seconds > 0.0 ? jobs_done / elapsed_seconds : 0.0;
  }
};

// Wire form (obs/jsonl.h record codec): `groups` is an array of tallies,
// each led by its group name.
template <class IO>
void codec(IO& io, TelemetryGroupTally& t) {
  io("done", t.done);
  io("ok", t.ok);
  io("failed", t.failed);
  io("violations", t.violations);
  io("alarms", t.alarms);
}

template <class IO>
void codec(IO& io, TelemetryRecord& r) {
  io.tag("event", "telemetry");
  io("label", r.label);
  io("instance", r.instance);
  io("seq", r.seq);
  io("unix_time", r.unix_time);
  io("elapsed_s", r.elapsed_seconds);
  io("jobs_assigned", r.jobs_assigned);
  io("jobs_done", r.jobs_done);
  io.keyed("groups", "group", r.groups);
  io("step_latency", r.step_latency);
  io("max_rss_kb", r.max_rss_kb);
  io("user_s", r.user_seconds);
  io("system_s", r.system_seconds);
}

// A telemetry file is a checkpoint-style stream (obs::json::read_stream):
// a torn final line is tolerated (and with `repair` truncated); corruption
// earlier in the file throws ManifestError. A missing file reads as empty.
inline constexpr obs::json::Stream<TelemetryRecord, ManifestError>
    kTelemetryStream{"telemetry-header", "roboads-shard-telemetry", 1};

std::string telemetry_path(const std::string& dir, const std::string& label);

// The worker-side appender. Owns the stream file: repairs its own torn
// tail on construction, appends the versioned header if fresh, then emits
// one record per `interval_seconds` (checked on job boundaries) plus one
// final record from flush(). interval_seconds <= 0 disables everything —
// every call becomes a no-op and no file is created.
class TelemetryStream {
 public:
  TelemetryStream(const std::string& dir, const std::string& label,
                  double interval_seconds, obs::MetricsRegistry* metrics);

  void set_jobs_assigned(std::uint64_t n);
  // Folds one completed job's outcome into the tallies and appends a
  // record if the interval has elapsed.
  void job_finished(const JobOutcome& outcome);
  // Unconditionally appends a record (start-of-run and end-of-run marks).
  void flush();

  bool enabled() const { return enabled_; }

 private:
  void append_record();

  bool enabled_ = false;
  double interval_seconds_ = 0.0;
  double started_monotonic_ = 0.0;
  double last_append_monotonic_ = 0.0;
  obs::MetricsRegistry* metrics_ = nullptr;
  TelemetryRecord record_;  // running state; seq advances per append
  std::ofstream os_;
};

}  // namespace roboads::shard

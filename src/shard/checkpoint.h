// Per-shard checkpoint files: the crash-resilience substrate of the sharded
// runner (docs/ROBUSTNESS.md "Resume semantics").
//
// A checkpoint is append-only JSONL: one header line, then one JobOutcome
// line per completed job, flushed line-by-line so a SIGKILL can lose at most
// the line being written. A worker that restarts (retry, --resume, salvage)
// first *repairs* its checkpoint — truncating a torn final line left by a
// mid-write kill — then skips every job already recorded and appends from
// there. Outcomes are pure functions of the manifest job, so a job recorded
// by any worker instance is interchangeable with any other recording of it;
// the merger deduplicates by job id across all checkpoint files in a run
// directory.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "obs/jsonl.h"
#include "shard/manifest.h"

namespace roboads::shard {

// One detection-delay record of a scored mission (eval::DelayRecord shape).
struct OutcomeDelay {
  std::string label;
  std::size_t triggered_at = 0;
  std::optional<double> seconds;  // nullopt: never correctly detected
};

// One invariant violation found by a fuzz job (shrunk reproducer included).
struct OutcomeFinding {
  std::string invariant;
  std::string detail;
  std::string spec_text;    // the campaign as generated (serialized)
  std::string shrunk_text;  // greedily minimized reproducer (serialized)
};

// The complete, serializable result of one manifest job — everything the
// merger needs, and nothing nondeterministic: no timing, no worker or shard
// attribution, so a chaos-interrupted run merges byte-identically to an
// uninterrupted serial one.
struct JobOutcome {
  std::string id;
  std::string group;
  std::string name;      // resolved display name (scenario / campaign)
  std::string status;    // "ok" | "failed" | "violation"

  // Mission metrics (kSpec / kLibrary jobs with status "ok").
  std::int64_t sensor_tp = 0, sensor_fp = 0, sensor_tn = 0, sensor_fn = 0;
  std::int64_t actuator_tp = 0, actuator_fp = 0, actuator_tn = 0,
               actuator_fn = 0;
  std::vector<OutcomeDelay> delays;
  std::string sensor_sequence;
  std::string actuator_sequence;

  // Postmortem bundle files this job froze, relative to the run directory.
  std::vector<std::string> bundle_files;

  // status "failed": the mission abort record.
  std::string failure;
  std::size_t failure_step = 0;

  // Fuzz jobs: violations found (status "violation" when non-empty).
  std::vector<OutcomeFinding> findings;
};

// Wire form (obs/jsonl.h record codec): one line per outcome, identical
// bytes wherever the outcome is recorded (checkpoint or merged report). A
// missed delay's seconds are null; the confusion counts are 4-element
// [tp, fp, tn, fn] arrays.
template <class IO>
void codec(IO& io, OutcomeDelay& d) {
  io("label", d.label);
  io("triggered_at", d.triggered_at);
  io("seconds", d.seconds);
}

template <class IO>
void codec(IO& io, OutcomeFinding& f) {
  io("invariant", f.invariant);
  io("detail", f.detail);
  io("spec", f.spec_text);
  io("shrunk", f.shrunk_text);
}

template <class IO>
void codec(IO& io, JobOutcome& o) {
  io.tag("event", "outcome");
  io("id", o.id);
  io("group", o.group);
  io("job", o.name);
  io("status", o.status);
  io("sensor", std::tie(o.sensor_tp, o.sensor_fp, o.sensor_tn, o.sensor_fn));
  io("actuator",
     std::tie(o.actuator_tp, o.actuator_fp, o.actuator_tn, o.actuator_fn));
  io("delays", o.delays);
  io("sensor_sequence", o.sensor_sequence);
  io("actuator_sequence", o.actuator_sequence);
  io("bundles", o.bundle_files);
  io("failure", o.failure);
  io("failure_step", o.failure_step);
  io("findings", o.findings);
}

// The outcome's line (json::encode), kept by name: the benchmark digests
// campaign outcomes through it.
std::string serialize_outcome(const JobOutcome& outcome);

// --- Checkpoint files ------------------------------------------------------
//
// Written with obs::json::write_header / append (one flushed line per
// outcome) and read with obs::json::read_stream, which tolerates a torn
// tail: a final line that does not parse (mid-write kill) is dropped, and
// with `repair` the file is truncated back to the last good line so
// appends resume cleanly. A torn or missing header yields an empty result
// (the file is rewritten from scratch). Unparseable lines *before* the
// final one are real corruption and throw ManifestError.
inline constexpr obs::json::Stream<JobOutcome, ManifestError>
    kCheckpointStream{"checkpoint", "roboads-shard-checkpoint", 1};

// All outcomes across every "checkpoint-*.jsonl" in `dir`, deduplicated by
// job id (first recording wins; later recordings of a pure job are
// byte-identical anyway). Never repairs — reading a live run's directory
// must not race its workers.
std::vector<JobOutcome> load_run_outcomes(const std::string& dir);

// Path helpers shared by workers, supervisor and merger.
std::string checkpoint_path(const std::string& dir, const std::string& label);
std::string heartbeat_path(const std::string& dir, const std::string& label);

}  // namespace roboads::shard

// Worker liveness via heartbeat files. A worker rewrites its heartbeat
// atomically (write to a temp file, rename over the target) once per job and
// on startup; the supervising watchdog reads the file's mtime age. A worker
// that stops beating — hung, SIGSTOPped, or wedged in a runaway mission —
// looks exactly like one whose process died, and is reclaimed the same way
// (SIGKILL, then retry). File mtimes rather than pipes/sockets keep the
// protocol crash-proof: a heartbeat survives its writer, and a fresh worker
// instance simply overwrites it.
//
// The payload is a single JSON object carrying the worker's progress: the
// last-completed job id and completion time plus the job currently in
// flight. The watchdog uses it to tell a *slow* job (progress this launch,
// stuck on one long mission) from a *hung* worker (no progress at all) and
// grants the former one grace period before SIGKILLing
// (docs/OBSERVABILITY.md "Live campaign telemetry"); `roboads_shard watch`
// renders it per worker.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "obs/jsonl.h"

namespace roboads::shard {

struct Heartbeat {
  std::string label;           // worker label (s0, v1-2)
  std::uint64_t jobs_done = 0; // jobs completed by THIS worker instance
  std::string last_job;        // id of the last completed job ("" = none)
  double last_job_unix_time = 0.0;  // CLOCK_REALTIME seconds of completion
  std::string current_job;     // id of the job in flight ("" = idle)
};

template <class IO>
void codec(IO& io, Heartbeat& beat) {
  io("label", beat.label);
  io("jobs_done", beat.jobs_done);
  io("last_job", beat.last_job);
  io("last_job_unix_time", beat.last_job_unix_time);
  io("current_job", beat.current_job);
}

// Written with obs::json::publish: an atomic rewrite. The watchdog reads
// the mtime for liveness; the JSON payload is advisory.
inline constexpr obs::json::SnapshotFile<Heartbeat> kHeartbeatFile{
    "heartbeat", "has the worker started?"};

// Parses the heartbeat payload. nullopt when the file is missing or the
// payload is unparseable (a legacy plain-text beat, a torn write) — the
// watchdog then falls back to mtime-only behavior.
std::optional<Heartbeat> read_heartbeat(const std::string& path);

// Age of the heartbeat in seconds, or nullopt when the file does not exist
// (worker not started yet). Uses nanosecond mtime, so sub-second watchdog
// timeouts are meaningful in tests.
std::optional<double> heartbeat_age_seconds(const std::string& path);

// CLOCK_REALTIME now, in fractional seconds (shared by heartbeat payloads
// and telemetry records).
double unix_now_seconds();

}  // namespace roboads::shard

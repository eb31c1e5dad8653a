// The worker process half of the sharded runner. A worker is launched by the
// supervisor (or by hand) with a manifest, a run directory and a label; it
// repairs and replays its own checkpoint, heartbeats, executes whatever of
// its assigned jobs are still pending — in manifest order — and appends one
// flushed outcome line per job. It is safe to SIGKILL at any instant: the
// next launch of the same label loses at most the job in flight.
//
// Workers are re-execs of the *host binary*: any program that embeds the
// runner (tools/roboads_shard, roboads_fuzz, bench/seed_robustness, the
// chaos test) dispatches `--shard-worker` as its first argument to
// worker_main() before its own CLI parsing, and self_exec_launcher() builds
// the matching command line from /proc/self/exe. One binary, N processes —
// no separate worker executable to keep in sync.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "shard/exec.h"
#include "shard/supervise.h"

namespace roboads::shard {

struct WorkerOptions {
  std::string manifest_path;
  std::string dir;    // run directory (checkpoints, heartbeats, bundles)
  std::string label;  // names this worker's checkpoint/heartbeat files
  // Jobs to run, by manifest id. Empty with shard >= 0 selects every job of
  // that shard (the by-hand form); the supervisor always passes explicit
  // ids, already filtered of completed work.
  std::vector<std::string> job_ids;
  int shard = -1;
  bool record_bundles = false;
  // Seconds between telemetry records (shard/telemetry.h); <= 0 disables
  // the telemetry stream and the per-job latency instrumentation entirely.
  double telemetry_interval_seconds = 5.0;
  // Chaos injection requested by the supervisor (`--chaos=`), if any.
  std::optional<ChaosInjection> chaos;
};

// Runs the worker loop to completion. Returns a process exit code: 0 when
// every selected job has an outcome (even "failed" ones — those are results,
// not worker errors), non-zero on worker-level faults (unreadable manifest,
// unwritable run directory).
int run_worker(const WorkerOptions& options);

// Parses `--manifest= --dir= --label= [--shard=N] [--job=ID ...]
// [--bundles] [--telemetry-interval=S]
// [--chaos=kill|stop@K]` and calls run_worker. `args` excludes the
// `--shard-worker` dispatch token.
int worker_main(const std::vector<std::string>& args);

// A WorkerLauncher that re-execs the current binary (/proc/self/exe) with
// `--shard-worker` and the flags worker_main expects.
WorkerLauncher self_exec_launcher(const std::string& manifest_path,
                                  const std::string& dir,
                                  bool record_bundles,
                                  double telemetry_interval_seconds = 5.0);

}  // namespace roboads::shard

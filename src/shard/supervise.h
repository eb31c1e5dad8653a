// Worker-pool supervision for sharded campaign runs: spawn one worker
// process per shard, watch heartbeats, SIGKILL the hung, restart the dead
// with exponential backoff, and when a shard is lost for good, shrink the
// pool and requeue its remaining jobs onto salvage workers. The supervisor
// never computes results itself — completion is judged purely from the
// checkpoint files the workers append — so killing the *supervisor* loses
// nothing either: a rerun with --resume picks up from the checkpoints.
//
// Chaos hooks (kill/stop random workers mid-run) live here too, so the
// chaos test and ci.sh shard-smoke exercise the identical supervision code
// paths they are meant to prove out (tests/shard_chaos_test.cc asserts the
// merged results are bit-identical to an unkilled serial run).
//
// Every worker runs in its own process group, and the watchdog signals the
// group, so a reclaimed worker takes whatever it spawned down with it.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "shard/manifest.h"

namespace roboads::shard {

// Bounded exponential backoff between restart attempts of one worker slot.
// Pure, so the schedule is unit-testable (tests/shard_supervise_test.cc).
struct RetryPolicy {
  std::size_t max_retries = 3;        // restarts after the first launch
  double base_delay_seconds = 0.25;   // delay before restart #1
  double multiplier = 2.0;
  double max_delay_seconds = 5.0;

  // Delay before restart `attempt` (1-based): base * multiplier^(attempt-1),
  // capped at max_delay_seconds.
  double delay_seconds(std::size_t attempt) const;
};

struct SupervisorConfig {
  RetryPolicy retry;
  double heartbeat_timeout_seconds = 30.0;
  double poll_interval_seconds = 0.05;
  // Requeue waves after shards are lost permanently (0 = report partial
  // coverage immediately).
  std::size_t salvage_waves = 1;

  // Slow-job grace: when a worker times out but its structured heartbeat
  // shows it completed jobs since launch, the watchdog assumes "slow job"
  // rather than "hung job" and grants one extra window of this many seconds
  // (once per launch) before SIGKILLing. < 0 means "same as
  // heartbeat_timeout_seconds"; 0 disables the grace entirely.
  double slow_job_grace_seconds = -1.0;

  // How often the supervisor publishes the run's status.json snapshot
  // (shard/status.h) for `roboads_shard watch`. <= 0 disables publication.
  double status_interval_seconds = 1.0;

  // The heartbeat/telemetry cadence the workers were launched with
  // (--telemetry-interval). Published snapshots derive the worker-liveness
  // threshold from it (shard/status.h live_heartbeat_threshold_seconds), so
  // slow-cadence fleets are not misclassified as dead and dropped from the
  // rate/ETA. <= 0 falls back to the threshold floor.
  double telemetry_interval_seconds = 5.0;

  // Chaos injection: this many randomly chosen shard workers SIGKILL /
  // SIGSTOP themselves once they have checkpointed half of their pending
  // jobs (see chaos_argument). The victim fires the signal itself, so the
  // injection lands at the same point however fast jobs run. A stopped
  // worker keeps its process slot but stops heartbeating, so it exercises
  // the hang-detection path end to end.
  std::size_t chaos_kills = 0;
  std::size_t chaos_stops = 0;
  std::uint64_t chaos_seed = 1;
};

// The argv of one worker process. args[0] is the program to exec.
struct WorkerCommand {
  std::vector<std::string> args;
};

// Builds the command for a worker instance: `label` names its checkpoint
// and heartbeat files, `job_ids` the exact jobs it must complete (already
// filtered of completed work by the supervisor).
using WorkerLauncher = std::function<WorkerCommand(
    const std::string& label, const std::vector<std::string>& job_ids)>;

struct SuperviseResult {
  bool complete = false;             // every manifest job has an outcome
  std::size_t launches = 0;          // worker processes spawned in total
  std::size_t crashes = 0;           // workers that died before finishing
  std::size_t hangs = 0;             // workers the watchdog had to SIGKILL
  std::size_t lost_shards = 0;       // slots that exhausted their retries
  std::size_t salvage_workers = 0;   // extra workers spawned by requeue waves
  std::size_t slow_job_grants = 0;   // watchdog grace periods granted
  std::vector<std::string> missing_ids;  // jobs with no outcome (partial)
};

// The argv entry (`--chaos=kill@K` / `--chaos=stop@K`) the supervisor
// appends to a chaos victim's command line: after its K-th checkpointed job
// the worker raises `signal` (SIGKILL or SIGSTOP). worker_main
// (shard/worker.h) honours it; parse_chaos_argument reads the part after
// `--chaos=` back, nullopt when it is malformed.
struct ChaosInjection {
  int signal = 0;
  std::size_t after_jobs = 0;
};
std::string chaos_argument(int signal, std::size_t after_jobs);
std::optional<ChaosInjection> parse_chaos_argument(const std::string& value);

// Runs the manifest's jobs to completion (or partial coverage) under `dir`.
// Jobs already recorded in the directory's checkpoints are skipped — that
// is both `--resume` and the retry path; pass a fresh directory for a fresh
// run. The launcher is invoked for shard workers ("s<shard>") and salvage
// workers ("v<wave>-<i>").
SuperviseResult supervise(const Manifest& manifest, const std::string& dir,
                          const SupervisorConfig& config,
                          const WorkerLauncher& launcher);

}  // namespace roboads::shard

// The two ways to fly a manifest: run_serial, every job in this process,
// and run_supervised, the jobs spread over supervised worker processes that
// re-exec the host binary (shard/supervise.h, shard/worker.h). A job's
// outcome is a pure function of the job (shard/exec.h), so both give the
// same outcomes and byte-identical merged reports. `roboads_shard`,
// `roboads_fuzz` and `bench/seed_robustness` fly every sweep through them.
#pragma once

#include <string>
#include <vector>

#include "shard/checkpoint.h"
#include "shard/exec.h"
#include "shard/manifest.h"
#include "shard/merge.h"
#include "shard/supervise.h"

namespace roboads::shard {

// Every job through execute_job, in manifest order.
std::vector<JobOutcome> run_serial(const Manifest& manifest,
                                   const ExecConfig& exec);

struct SupervisedRunConfig {
  std::string dir;            // checkpoints, heartbeats, report
  std::string manifest_path;  // the manifest file the workers read
  bool resume = false;        // continue the run `dir` holds checkpoints of
  bool record_bundles = false;  // workers freeze bundles in <dir>/bundles/
  std::string report_path;      // empty = <dir>/report.jsonl
  SupervisorConfig supervisor;
};

// The campaign flags `roboads_fuzz` and `bench/seed_robustness` share:
// --workers=N (N >= 1) flies the sweep in N supervised worker processes
// with run directory --shard-dir=D, and --resume continues the run D holds.
// Without --workers the sweep runs in process and `workers` stays 0.
//
// Takes those flags out of `args` (leaving the rest, in order, to the
// caller's parser) into `workers`, `run.dir` and `run.resume`. Returns ""
// on success, else a one-line diagnostic naming the flag, for a malformed
// or zero --workers, --workers without --shard-dir, or --shard-dir or
// --resume without --workers; callers print it and exit 2.
std::string take_campaign_flags(std::vector<std::string>& args,
                                std::size_t& workers,
                                SupervisedRunConfig& run);

struct SupervisedRun {
  Manifest manifest;  // the manifest the workers flew
  SuperviseResult supervised;
  MergedReport report;
  std::vector<JobOutcome> outcomes;  // every recorded outcome, by job id
  std::string report_path;
};

// The supervised run behind `roboads_shard run`, `roboads_fuzz --workers`
// and `seed_robustness --workers`. In order, it
//   1. refuses a `dir` that holds checkpoints unless `resume` (a
//      std::runtime_error naming --resume): job ids repeat across
//      manifests, so their outcomes would be merged as this run's;
//   2. writes `fresh`, a manifest the caller built, to `manifest_path`,
//      unless resuming a run that stored one there (the stored one wins);
//   3. supervises self_exec_launcher workers;
//   4. merges every checkpoint and writes the report.
SupervisedRun run_supervised(const SupervisedRunConfig& config,
                             const Manifest* fresh = nullptr);

}  // namespace roboads::shard

// Merges per-shard checkpoint outcomes into one campaign report.
//
// The report is JSONL, rendered deterministically: header, whole-campaign
// aggregates, per-metric 95% confidence intervals across replication
// groups, per-group lines, a missing-jobs line when coverage is partial,
// then every job outcome re-serialized canonically in job-id order. Nothing
// in it depends on shard attribution, worker identity, retry history or
// wall-clock time — so a chaos-interrupted, resumed, salvaged run renders a
// report byte-identical to an uninterrupted serial run over the same
// manifest (tests/shard_chaos_test.cc pins this).
#pragma once

#include <string>
#include <vector>

#include "shard/checkpoint.h"
#include "shard/manifest.h"

namespace roboads::shard {

struct MergeStats {
  std::size_t total_jobs = 0;
  std::size_t completed = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t violations = 0;  // fuzz jobs with invariant findings
  bool complete = false;
  std::vector<std::string> missing_ids;
};

struct MergedReport {
  MergeStats stats;
  std::string text;  // the full report.jsonl contents
};

// Merges explicit outcomes (the serial reference path). Outcomes not in the
// manifest throw ManifestError; duplicates by id are rejected too.
MergedReport merge_outcomes(const Manifest& manifest,
                            std::vector<JobOutcome> outcomes);

// Loads every checkpoint under `dir` and merges (the sharded path).
MergedReport merge_run(const Manifest& manifest, const std::string& dir);

// Writes report.text to `path`; throws ManifestError when it cannot.
void write_report(const std::string& path, const MergedReport& report);

}  // namespace roboads::shard

// Coverage fuzzer CLI (docs/SCENARIOS.md; ./ci.sh fuzz-smoke).
//
// Randomizes attack campaigns over the scenario DSL, flies each one as a
// contained mission, checks the fuzzer invariants (scenario/fuzz.h), and
// shrinks any violation to a minimal replayable spec. Exit status: 0 when
// every campaign held the invariants, 1 when there are findings or failed
// campaigns, 2 on usage errors, 3 on partial coverage (--workers only).
//
//   roboads_fuzz [--seed=N] [--campaigns=N] [--iterations=N]
//                [--max-attacks=N] [--fault-probability=P] [--platform=NAME]
//                [--corpus-out=DIR] [--workers=N --shard-dir=DIR [--resume]]
//
// --platform may repeat; default is every known platform. --corpus-out
// writes each finding's shrunk spec as DIR/<invariant>-<job id>.spec (job
// j00017 is campaign 17), ready to check into tests/data/fuzz_corpus/ once
// the underlying bug is fixed.
//
// The sweep is a shard manifest (shard/manifest.h, one fuzz job per
// campaign). Without --workers its jobs run one after another in this
// process; --workers=N flies them in N supervised worker processes
// (re-execs of this binary) that checkpoint per-campaign results under
// --shard-dir, so a killed sweep resumes with --resume. A directory that
// already holds checkpoints is refused without --resume. Both modes fly the
// identical campaigns and report the same findings.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/parse.h"
#include "scenario/fuzz.h"
#include "shard/run.h"
#include "shard/worker.h"

namespace {

namespace shard = roboads::shard;
using roboads::common::flag_value;

[[noreturn]] void usage_error(const char* argv0, const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", argv0, message.c_str());
  std::fprintf(stderr,
               "usage: %s [--seed=N] [--campaigns=N] [--iterations=N] "
               "[--max-attacks=N] [--fault-probability=P] "
               "[--platform=NAME]... [--corpus-out=DIR] "
               "[--workers=N --shard-dir=DIR [--resume]]\n",
               argv0);
  std::exit(2);
}

// The one finding printer: every finding with its shrunk reproducer (also
// written under `corpus_out`), every failed campaign, then the count.
int report_findings(const std::vector<shard::JobOutcome>& outcomes,
                    const shard::MergeStats& stats,
                    const std::string& corpus_out) {
  std::size_t findings = 0;
  for (const shard::JobOutcome& outcome : outcomes) {
    if (outcome.status == "failed") {
      std::printf("\n== failed: %s\n  %s\n", outcome.id.c_str(),
                  outcome.failure.c_str());
    }
    for (const shard::OutcomeFinding& finding : outcome.findings) {
      std::printf("\n== finding: %s (%s)\n  %s\n", finding.invariant.c_str(),
                  outcome.id.c_str(), finding.detail.c_str());
      std::printf("-- shrunk reproducer:\n%s", finding.shrunk_text.c_str());
      if (!corpus_out.empty()) {
        const std::string path =
            corpus_out + "/" + finding.invariant + "-" + outcome.id + ".spec";
        std::ofstream os(path);
        if (!(os << finding.shrunk_text)) {
          std::fprintf(stderr, "cannot write %s\n", path.c_str());
          return 2;
        }
        std::printf("-- written to %s\n", path.c_str());
      }
      ++findings;
    }
  }
  std::printf("%zu findings\n", findings);
  if (!stats.complete) {
    std::fprintf(stderr, "partial coverage: %zu campaigns missing\n",
                 stats.missing_ids.size());
    return 3;
  }
  return findings == 0 && stats.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Supervisor-spawned worker processes re-exec this binary.
  if (argc >= 2 && std::strcmp(argv[1], "--shard-worker") == 0) {
    return shard::worker_main({argv + 2, argv + argc});
  }

  const auto count = [&](const std::string& flag, const std::string& value,
                         bool allow_zero) {
    const auto n = roboads::common::parse_u64(value);
    if (!n || (!allow_zero && *n == 0)) {
      usage_error(argv[0], flag + " expects a " +
                               (allow_zero ? "non-negative" : "positive") +
                               " integer, got \"" + value + "\"");
    }
    return static_cast<std::size_t>(*n);
  };
  roboads::scenario::FuzzConfig config;
  config.platforms.clear();
  std::string corpus_out;
  std::size_t workers = 0;
  shard::SupervisedRunConfig run;

  std::vector<std::string> args(argv + 1, argv + argc);
  const std::string error = shard::take_campaign_flags(args, workers, run);
  if (!error.empty()) usage_error(argv[0], error);
  for (const std::string& arg : args) {
    std::string value;
    if (flag_value(arg, "--seed", &value)) {
      config.seed = count("--seed", value, true);
    } else if (flag_value(arg, "--campaigns", &value)) {
      config.campaigns = count("--campaigns", value, false);
    } else if (flag_value(arg, "--iterations", &value)) {
      config.iterations = count("--iterations", value, false);
    } else if (flag_value(arg, "--max-attacks", &value)) {
      config.max_attacks = count("--max-attacks", value, false);
    } else if (flag_value(arg, "--fault-probability", &value)) {
      const auto p = roboads::common::parse_double(value);
      if (!p || !roboads::scenario::valid_fault_probability(*p)) {
        usage_error(argv[0], "--fault-probability expects a number in "
                             "[0, 1], got \"" + value + "\"");
      }
      config.fault_probability = *p;
    } else if (flag_value(arg, "--platform", &value)) {
      config.platforms.push_back(value);
    } else if (flag_value(arg, "--corpus-out", &value)) {
      if (value.empty()) {
        usage_error(argv[0], "--corpus-out expects a directory");
      }
      corpus_out = value;
    } else {
      usage_error(argv[0], "unknown argument \"" + arg + "\"");
    }
  }
  if (config.platforms.empty()) {
    config.platforms = roboads::eval::platform_names();
  }

  try {
    for (const std::string& platform : config.platforms) {
      roboads::scenario::platform_traits(platform);  // throws on a bad name
    }
    std::printf("fuzzing %zu campaigns (seed %llu, %zu iterations, up to %zu "
                "attacks) over:",
                config.campaigns,
                static_cast<unsigned long long>(config.seed),
                config.iterations, config.max_attacks);
    for (const std::string& platform : config.platforms) {
      std::printf(" %s", platform.c_str());
    }
    std::printf("\n");
    const shard::Manifest manifest =
        shard::fuzz_manifest(config, std::max<std::size_t>(workers, 1));

    if (workers == 0) {
      const std::vector<shard::JobOutcome> outcomes =
          shard::run_serial(manifest, {});
      const shard::MergeStats stats =
          shard::merge_outcomes(manifest, outcomes).stats;
      std::printf("%zu/%zu campaigns flown in process\n", stats.completed,
                  stats.total_jobs);
      return report_findings(outcomes, stats, corpus_out);
    }

    if (run.resume) {
      // A stored manifest is the sweep being resumed: the original
      // invocation's sweep flags win over whatever was passed now.
      std::printf("resuming sharded sweep from %s\n", run.dir.c_str());
    }
    run.manifest_path = run.dir + "/manifest.jsonl";
    const shard::SupervisedRun result = shard::run_supervised(run, &manifest);
    std::printf("%zu/%zu campaigns flown over %zu workers "
                "(%zu launches, %zu crashes, %zu hangs)\n",
                result.report.stats.completed, result.report.stats.total_jobs,
                result.manifest.shards, result.supervised.launches,
                result.supervised.crashes, result.supervised.hangs);
    return report_findings(result.outcomes, result.report.stats, corpus_out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
}

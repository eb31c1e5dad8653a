// Coverage fuzzer CLI (docs/SCENARIOS.md; ./ci.sh fuzz-smoke).
//
// Randomizes attack campaigns over the scenario DSL, flies each one as a
// contained mission, checks the fuzzer invariants (scenario/fuzz.h), and
// shrinks any violation to a minimal replayable spec. Exit status: 0 when
// every campaign held the invariants, 1 when there are findings, 2 on
// usage errors.
//
//   roboads_fuzz [--seed=N] [--campaigns=N] [--iterations=N]
//                [--max-attacks=N] [--fault-probability=P] [--platform=NAME]
//                [--threads=N] [--corpus-out=DIR]
//                [--workers=N --shard-dir=DIR [--resume]]
//
// --platform may repeat; default is every known platform. --corpus-out
// writes each finding's shrunk spec as DIR/<invariant>-<index>.spec, ready
// to check into tests/data/fuzz_corpus/ once the underlying bug is fixed.
//
// --workers=N runs the sweep as a crash-resilient sharded campaign instead
// of in-process threads: N supervised worker processes (re-execs of this
// binary) fly the identical campaign set, checkpointing per-campaign results
// under --shard-dir so a killed sweep resumes with --resume. Campaign
// regeneration is seed-deterministic, so sharded and serial sweeps produce
// the same findings.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "scenario/fuzz.h"
#include "scenario/spec.h"
#include "shard/checkpoint.h"
#include "shard/manifest.h"
#include "shard/merge.h"
#include "shard/supervise.h"
#include "shard/worker.h"

namespace {

[[noreturn]] void usage_error(const char* argv0, const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", argv0, message.c_str());
  std::fprintf(stderr,
               "usage: %s [--seed=N] [--campaigns=N] [--iterations=N] "
               "[--max-attacks=N] [--fault-probability=P] "
               "[--platform=NAME]... [--threads=N] [--corpus-out=DIR] "
               "[--workers=N --shard-dir=DIR [--resume]]\n",
               argv0);
  std::exit(2);
}

std::size_t parse_count(const char* argv0, const char* flag,
                        const char* value, bool allow_zero) {
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (*value == '\0' || end == value || *end != '\0') {
    usage_error(argv0, std::string(flag) + " expects a non-negative "
                                           "integer, got \"" +
                           value + "\"");
  }
  if (!allow_zero && parsed == 0) {
    usage_error(argv0, std::string(flag) + " must be positive");
  }
  return static_cast<std::size_t>(parsed);
}

}  // namespace

int main(int argc, char** argv) {
  using roboads::scenario::FuzzConfig;
  using roboads::scenario::FuzzFinding;
  using roboads::scenario::FuzzReport;

  // Supervisor-spawned worker processes re-exec this binary.
  if (argc >= 2 && std::strcmp(argv[1], "--shard-worker") == 0) {
    return roboads::shard::worker_main({argv + 2, argv + argc});
  }

  FuzzConfig config;
  config.platforms.clear();
  std::string corpus_out;
  std::size_t workers = 0;
  std::string shard_dir;
  bool resume = false;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--seed=", 7) == 0) {
      config.seed = parse_count(argv[0], "--seed", arg + 7, true);
    } else if (std::strncmp(arg, "--campaigns=", 12) == 0) {
      config.campaigns = parse_count(argv[0], "--campaigns", arg + 12, false);
    } else if (std::strncmp(arg, "--iterations=", 13) == 0) {
      config.iterations =
          parse_count(argv[0], "--iterations", arg + 13, false);
    } else if (std::strncmp(arg, "--max-attacks=", 14) == 0) {
      config.max_attacks =
          parse_count(argv[0], "--max-attacks", arg + 14, false);
    } else if (std::strncmp(arg, "--fault-probability=", 20) == 0) {
      char* end = nullptr;
      config.fault_probability = std::strtod(arg + 20, &end);
      if (end == arg + 20 || *end != '\0' || config.fault_probability < 0.0 ||
          config.fault_probability > 1.0) {
        usage_error(argv[0], "--fault-probability expects a value in [0,1]");
      }
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      config.num_threads = parse_count(argv[0], "--threads", arg + 10, true);
    } else if (std::strncmp(arg, "--platform=", 11) == 0) {
      config.platforms.emplace_back(arg + 11);
    } else if (std::strncmp(arg, "--corpus-out=", 13) == 0) {
      corpus_out = arg + 13;
      if (corpus_out.empty()) {
        usage_error(argv[0], "--corpus-out expects a directory");
      }
    } else if (std::strncmp(arg, "--workers=", 10) == 0) {
      workers = parse_count(argv[0], "--workers", arg + 10, false);
    } else if (std::strncmp(arg, "--shard-dir=", 12) == 0) {
      shard_dir = arg + 12;
    } else if (std::strcmp(arg, "--resume") == 0) {
      resume = true;
    } else {
      usage_error(argv[0], std::string("unknown argument \"") + arg + "\"");
    }
  }
  if (config.platforms.empty()) {
    config.platforms = roboads::eval::platform_names();
  }
  for (const std::string& platform : config.platforms) {
    roboads::scenario::platform_traits(platform);  // throws on a bad name
  }
  if (workers > 0 && shard_dir.empty()) {
    usage_error(argv[0], "--workers needs --shard-dir");
  }
  if ((resume || !shard_dir.empty()) && workers == 0) {
    usage_error(argv[0], "--shard-dir/--resume need --workers");
  }

  if (workers > 0) {
    namespace shard = roboads::shard;
    namespace fs = std::filesystem;
    try {
      fs::create_directories(shard_dir);
      const std::string manifest_path = shard_dir + "/manifest.jsonl";
      if (resume && fs::exists(manifest_path)) {
        // The stored manifest is the campaign being resumed; the sweep flags
        // of the original invocation win over whatever was passed now.
        std::printf("resuming sharded sweep from %s\n", shard_dir.c_str());
      } else {
        shard::write_manifest_file(manifest_path,
                                   shard::fuzz_manifest(config, workers));
      }
      const shard::Manifest manifest =
          shard::read_manifest_file(manifest_path);

      shard::SupervisorConfig supervisor;
      const shard::SuperviseResult supervised = shard::supervise(
          manifest, shard_dir, supervisor,
          shard::self_exec_launcher(manifest_path, shard_dir,
                                    /*record_bundles=*/false));
      const shard::MergedReport report =
          shard::merge_run(manifest, shard_dir);
      std::ofstream os(shard_dir + "/report.jsonl", std::ios::binary);
      os << report.text;

      std::printf("%zu/%zu campaigns flown over %zu workers "
                  "(%zu launches, %zu crashes, %zu hangs)\n",
                  report.stats.completed, report.stats.total_jobs,
                  manifest.shards, supervised.launches, supervised.crashes,
                  supervised.hangs);
      std::size_t findings = 0;
      for (const shard::JobOutcome& outcome :
           shard::load_run_outcomes(shard_dir)) {
        for (const shard::OutcomeFinding& finding : outcome.findings) {
          std::printf("\n== finding: %s (%s)\n  %s\n",
                      finding.invariant.c_str(), outcome.id.c_str(),
                      finding.detail.c_str());
          std::printf("-- shrunk reproducer:\n%s", finding.shrunk_text.c_str());
          if (!corpus_out.empty()) {
            const std::string path = corpus_out + "/" + finding.invariant +
                                     "-" + outcome.id + ".spec";
            std::ofstream spec_os(path);
            if (!spec_os) {
              std::fprintf(stderr, "cannot write %s\n", path.c_str());
              return 2;
            }
            spec_os << finding.shrunk_text;
            std::printf("-- written to %s\n", path.c_str());
          }
          ++findings;
        }
      }
      std::printf("%zu findings\n", findings);
      if (!report.stats.complete) {
        std::fprintf(stderr, "partial coverage: %zu campaigns missing\n",
                     report.stats.missing_ids.size());
        return 3;
      }
      return findings == 0 && report.stats.failed == 0 ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      return 2;
    }
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

  const FuzzReport report = roboads::scenario::run_fuzzer(config);
  std::printf("%zu campaigns flown, %zu findings, %zu shrink missions\n",
              report.campaigns_run, report.findings.size(),
              report.shrink_missions);

  for (const FuzzFinding& finding : report.findings) {
    std::printf("\n== finding: %s (campaign %zu)\n  %s\n",
                finding.violation.invariant.c_str(), finding.campaign_index,
                finding.violation.detail.c_str());
    std::printf("-- shrunk reproducer:\n%s",
                roboads::scenario::serialize(finding.shrunk).c_str());
    if (!corpus_out.empty()) {
      const std::string path = corpus_out + "/" +
                               finding.violation.invariant + "-" +
                               std::to_string(finding.campaign_index) +
                               ".spec";
      std::ofstream os(path);
      if (!os) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 2;
      }
      os << roboads::scenario::serialize(finding.shrunk);
      std::printf("-- written to %s\n", path.c_str());
    }
  }
  return report.clean() ? 0 : 1;
}

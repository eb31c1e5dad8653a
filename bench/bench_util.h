// Shared helpers for the table/figure reproduction binaries.
#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/parse.h"
#include "eval/khepera.h"
#include "eval/mission.h"
#include "eval/scoring.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "scenario/compile.h"
#include "scenario/library.h"

namespace roboads::bench {

// The one flag parser shared by every bench binary. Flags:
//
//   --trace-out=P    enable the structured detector trace and write it to P
//                    on exit (.csv → flattened iteration table, anything
//                    else → JSONL; docs/OBSERVABILITY.md).
//   --metrics-out=P  enable the metrics registry, print the roboads_report
//                    summary on exit, and write the metrics snapshot JSONL
//                    to P ("-" = report only, no file).
//   --record-out=P   enable the flight recorder and write any postmortem
//                    bundles frozen during the run as JSONL files named
//                    P + <bundle_filename> ("-" = record in memory only;
//                    set P to "dir/" or "dir/prefix-"). Every mission of
//                    the run records through the one Observability
//                    recorder, and its bundles are numbered across the run.
//   --record-window=N  flight-recorder ring capacity (default 256); implies
//                    recording just like --record-out.
//
// Malformed values and unknown flags are hard errors: a bench silently
// dropping a misspelled flag wastes a sweep.
struct BenchArgs {
  obs::ObsConfig obs;
};

[[noreturn]] inline void bench_usage_error(const char* argv0,
                                           const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", argv0, message.c_str());
  std::fprintf(stderr,
               "usage: %s [--trace-out=PATH] "
               "[--metrics-out=PATH|-] [--record-out=PREFIX|-] "
               "[--record-window=N]\n",
               argv0);
  std::exit(2);
}

inline BenchArgs parse_bench_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      const std::string path = arg + 12;
      if (path.empty()) {
        bench_usage_error(argv[0], "--trace-out expects a path");
      }
      args.obs.trace = true;
      if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0) {
        args.obs.trace_csv_path = path;
      } else {
        args.obs.trace_jsonl_path = path;
      }
    } else if (std::strncmp(arg, "--metrics-out=", 14) == 0) {
      const std::string path = arg + 14;
      if (path.empty()) {
        bench_usage_error(argv[0], "--metrics-out expects a path or \"-\"");
      }
      args.obs.metrics = true;
      if (path != "-") args.obs.metrics_jsonl_path = path;
    } else if (std::strncmp(arg, "--record-out=", 13) == 0) {
      const std::string prefix = arg + 13;
      if (prefix.empty()) {
        bench_usage_error(argv[0], "--record-out expects a prefix or \"-\"");
      }
      args.obs.record = true;
      if (prefix != "-") args.obs.record_out = prefix;
    } else if (std::strncmp(arg, "--record-window=", 16) == 0) {
      const auto parsed = common::parse_u64(arg + 16);
      if (!parsed || *parsed == 0) {
        bench_usage_error(argv[0], std::string("--record-window expects a ") +
                                       "positive integer, got \"" +
                                       (arg + 16) + "\"");
      }
      args.obs.record = true;
      args.obs.record_window = static_cast<std::size_t>(*parsed);
    } else {
      bench_usage_error(argv[0],
                        std::string("unknown argument \"") + arg + "\"");
    }
  }
  return args;
}

// Owns the run's observability (if any flags enabled it), hands out its
// instruments, and writes artifacts + prints the summary report at the end.
class BenchObservation {
 public:
  explicit BenchObservation(BenchArgs args) : args_(std::move(args)) {
    if (args_.obs.enabled()) {
      bundle_ = std::make_unique<obs::Observability>(args_.obs);
    }
  }

  obs::Instruments instruments() const {
    return bundle_ != nullptr ? bundle_->instruments() : obs::Instruments{};
  }

  // Writes the configured artifacts and prints the report. Call last.
  void finish() {
    if (bundle_ == nullptr) return;
    bundle_->finish();
    std::printf("%s", bundle_->report().c_str());
    if (!args_.obs.trace_jsonl_path.empty()) {
      std::printf("trace jsonl: %s\n", args_.obs.trace_jsonl_path.c_str());
    }
    if (!args_.obs.trace_csv_path.empty()) {
      std::printf("trace csv:   %s\n", args_.obs.trace_csv_path.c_str());
    }
    if (!args_.obs.metrics_jsonl_path.empty()) {
      std::printf("metrics:     %s\n", args_.obs.metrics_jsonl_path.c_str());
    }
    for (const std::string& path : bundle_->bundle_paths()) {
      std::printf("bundle:      %s\n", path.c_str());
    }
  }

 private:
  BenchArgs args_;
  std::unique_ptr<obs::Observability> bundle_;
};

inline void print_header(const std::string& title,
                         const std::string& paper_ref) {
  std::printf("\n============================================================"
              "====================\n");
  std::printf("%s\n", title.c_str());
  std::printf("(reproduces %s)\n", paper_ref.c_str());
  std::printf("=============================================================="
              "==================\n");
}

inline std::string fmt_rate(double r) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f%%", 100.0 * r);
  return buf;
}

inline std::string fmt_delay(const std::optional<double>& d) {
  if (!d) return "miss";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fs", *d);
  return buf;
}

// A bench mission's config: `iterations` at `seed`, observed through
// `instruments` under the label "<scenario>/s<seed>".
inline eval::MissionConfig bench_mission(const attacks::Scenario& scenario,
                                         std::uint64_t seed,
                                         std::size_t iterations,
                                         obs::Instruments instruments) {
  eval::MissionConfig cfg;
  cfg.iterations = iterations;
  cfg.seed = seed;
  cfg.instruments = instruments;
  if (instruments.enabled()) {
    cfg.obs_label = scenario.name() + "/s" + std::to_string(seed);
  }
  return cfg;
}

// One scenario mission + score at the platform's default detector config.
struct ScenarioRun {
  std::string name;
  eval::MissionResult result;
  eval::ScenarioScore score;
};

inline ScenarioRun run_and_score(const eval::Platform& platform,
                                 const attacks::Scenario& scenario,
                                 std::uint64_t seed,
                                 std::size_t iterations = 250,
                                 obs::Instruments instruments = {}) {
  const eval::MissionConfig cfg =
      bench_mission(scenario, seed, iterations, instruments);
  ScenarioRun run;
  run.name = scenario.name();
  run.result = eval::run_mission(platform, scenario, cfg);
  run.score = eval::score_mission(run.result, platform);
  return run;
}

}  // namespace roboads::bench

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

// The flags part of the usage line for the set above. A bench that takes
// other flags passes its own line to both functions below.
inline constexpr const char* kBenchFlags =
    "[--trace-out=PATH] [--metrics-out=PATH|-] [--record-out=PREFIX|-] "
    "[--record-window=N]";

[[noreturn]] inline void bench_usage_error(const char* argv0,
                                           const std::string& message,
                                           const char* flags = kBenchFlags) {
  std::fprintf(stderr, "%s: %s\n", argv0, message.c_str());
  std::fprintf(stderr, "usage: %s %s\n", argv0, flags);
  std::exit(2);
}

inline BenchArgs parse_bench_args(int argc, char** argv,
                                  const char* flags = kBenchFlags) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      const std::string path = arg + 12;
      if (path.empty()) {
        bench_usage_error(argv[0], "--trace-out expects a path", flags);
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
        bench_usage_error(argv[0], "--metrics-out expects a path or \"-\"",
                          flags);
      }
      args.obs.metrics = true;
      if (path != "-") args.obs.metrics_jsonl_path = path;
    } else if (std::strncmp(arg, "--record-out=", 13) == 0) {
      const std::string prefix = arg + 13;
      if (prefix.empty()) {
        bench_usage_error(argv[0], "--record-out expects a prefix or \"-\"",
                          flags);
      }
      args.obs.record = true;
      if (prefix != "-") args.obs.record_out = prefix;
    } else if (std::strncmp(arg, "--record-window=", 16) == 0) {
      const auto parsed = common::parse_u64(arg + 16);
      if (!parsed || *parsed == 0) {
        bench_usage_error(argv[0],
                          std::string("--record-window expects a ") +
                              "positive integer, got \"" + (arg + 16) + "\"",
                          flags);
      }
      args.obs.record = true;
      args.obs.record_window = static_cast<std::size_t>(*parsed);
    } else {
      bench_usage_error(argv[0],
                        std::string("unknown argument \"") + arg + "\"",
                        flags);
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

// The tally behind a scenario battery table (Table II, §V-D, the extension
// battery): each flown mission yields one row's cells, and its counts and
// delays join the totals printed under the table.
struct BatteryTally {
  struct Row {
    std::string detection;       // actuator/sensor condition sequences
    std::string delays;          // one fmt_delay per delay record
    std::string actuator_rates;  // "FPR/FNR"
    std::string sensor_rates;
  };

  // Scores one mission into the totals and returns its cells. A failed run
  // prints "<name>: FAILED at step k: cause" instead, counts as not
  // detected and sets exit_code() to 1.
  std::optional<Row> add(const std::string& name,
                         const eval::ContainedRun& run) {
    if (run.failed()) {
      std::printf("%s: FAILED at step %zu: %s\n", name.c_str(),
                  run.failure->step, run.failure->what.c_str());
      all_detected = false;
      failed = true;
      return std::nullopt;
    }
    const eval::ScenarioScore& s = run.score;
    Row row;
    for (const eval::DelayRecord& d : s.delays) {
      if (!row.delays.empty()) row.delays += " ";
      row.delays += fmt_delay(d.seconds);
      if (d.seconds) {
        delays.push_back(*d.seconds);
        (d.label == "actuator" ? actuator_delays : sensor_delays)
            .push_back(*d.seconds);
      } else {
        all_detected = false;
      }
    }
    row.detection = s.actuator_condition_sequence == "A0"
                        ? s.sensor_condition_sequence
                    : s.sensor_condition_sequence == "S0"
                        ? s.actuator_condition_sequence
                        : s.actuator_condition_sequence + " " +
                              s.sensor_condition_sequence;
    row.actuator_rates = fmt_rate(s.actuator.false_positive_rate()) + "/" +
                         fmt_rate(s.actuator.false_negative_rate());
    row.sensor_rates = fmt_rate(s.sensor.false_positive_rate()) + "/" +
                       fmt_rate(s.sensor.false_negative_rate());
    combined += s.sensor;
    combined += s.actuator;
    return row;
  }

  int exit_code() const { return failed ? 1 : 0; }

  // Sensor and actuator counts of every scored mission together.
  stats::ConfusionCounts combined;
  // Resolved delays in mission order: all, sensor-side, actuator-side.
  std::vector<double> delays, sensor_delays, actuator_delays;
  bool all_detected = true;
  bool failed = false;
};

}  // namespace roboads::bench

// Sharded campaign runner CLI (docs/ROBUSTNESS.md; ./ci.sh shard-smoke).
//
//   roboads_shard gen-table2 --out=FILE --seeds=N [--shards=N]
//                            [--iterations=N] [--seed=S]...
//   roboads_shard gen-fuzz   --out=FILE [--seed=N] [--campaigns=N]
//                            [--iterations=N] [--max-attacks=N]
//                            [--fault-probability=P] [--platform=NAME]...
//                            [--shards=N]
//   roboads_shard run        --manifest=FILE --dir=DIR [--resume] [--bundles]
//                            [--report=FILE] [--heartbeat-timeout=SECONDS]
//                            [--max-retries=N] [--salvage-waves=N]
//                            [--chaos-kills=N] [--chaos-stops=N]
//                            [--chaos-seed=N] [--telemetry-interval=SECONDS]
//                            [--status-interval=SECONDS]
//                            [--slow-job-grace=SECONDS]
//   roboads_shard serial     --manifest=FILE [--report=FILE] [--dir=DIR]
//                            [--bundles]
//   roboads_shard merge      --manifest=FILE --dir=DIR [--report=FILE]
//   roboads_shard worker     --manifest=FILE --dir=DIR --label=L
//                            [--shard=N] [--job=ID]... [--bundles]
//   roboads_shard watch      --dir=DIR [--manifest=FILE] [--once] [--json]
//                            [--interval=SECONDS]
//                            [--telemetry-interval=SECONDS]
//
// `run` spawns one supervised worker process per manifest shard (re-execing
// this binary), restarts crashed workers with backoff, SIGKILLs hung ones on
// heartbeat timeout, requeues permanently lost shards onto salvage workers,
// and merges every checkpoint into DIR/report.jsonl. A killed run — workers
// *or* supervisor — resumes from its checkpoints with `--resume`; without
// it, a DIR that already holds checkpoints is refused (exit 2). The
// --chaos-* flags self-inject worker kills/hangs for testing; results must
// not change (./ci.sh shard-smoke asserts this against `serial`).
//
// `watch` is the live monitor (the same loop as `roboads_fleet top`,
// obs/monitor.h): it renders the supervisor's status.json snapshot every
// --interval seconds (progress bar, per-worker rows, fleet detector-step
// latency quantiles) until the run completes. With --manifest it
// recomputes the status from the run directory's checkpoints/heartbeats/
// telemetry instead, which also works after the supervisor died;
// --telemetry-interval then names the run's heartbeat cadence, which sets
// when a worker counts as live. --once prints a single frame and exits;
// --json (with --once) emits the raw status line for scripts and CI.
//
// Exit status: 0 = complete, all ok; 1 = complete with failed jobs or fuzz
// findings; 2 = usage/setup error; 3 = partial coverage (lost shards
// exhausted their retries and salvage waves).
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "common/parse.h"
#include "obs/jsonl.h"
#include "obs/monitor.h"
#include "shard/run.h"
#include "shard/status.h"
#include "shard/worker.h"

namespace {

namespace fs = std::filesystem;
using namespace roboads::shard;
using roboads::common::flag_value;

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "roboads_shard: %s\n", message.c_str());
  std::fprintf(stderr,
               "usage: roboads_shard <gen-table2|gen-fuzz|run|serial|merge|"
               "watch|worker> [flags]\n(see tools/roboads_shard.cc for the "
               "full flag list)\n");
  std::exit(2);
}

std::size_t parse_count(const char* flag, const std::string& value,
                        bool allow_zero) {
  const auto parsed = roboads::common::parse_u64(value);
  if (!parsed) {
    usage_error(std::string(flag) + " expects a non-negative integer, got \"" +
                value + "\"");
  }
  if (!allow_zero && *parsed == 0) {
    usage_error(std::string(flag) + " must be positive");
  }
  return static_cast<std::size_t>(*parsed);
}

double parse_fraction(const char* flag, const std::string& value) {
  const auto parsed = roboads::common::parse_double(value);
  if (!parsed || *parsed < 0.0) {
    usage_error(std::string(flag) + " expects a non-negative number, got \"" +
                value + "\"");
  }
  return *parsed;
}

double parse_probability(const std::string& value) {
  const auto parsed = roboads::common::parse_double(value);
  if (!parsed || !roboads::scenario::valid_fault_probability(*parsed)) {
    usage_error("--fault-probability expects a number in [0, 1], got \"" +
                value + "\"");
  }
  return *parsed;
}

int report_exit_code(const MergeStats& stats) {
  if (!stats.complete) return 3;
  if (stats.failed > 0 || stats.violations > 0) return 1;
  return 0;
}

void print_summary(const MergeStats& stats) {
  std::printf("%zu/%zu jobs merged: %zu ok, %zu failed, %zu violations",
              stats.completed, stats.total_jobs, stats.ok, stats.failed,
              stats.violations);
  if (!stats.complete) {
    std::printf(" — PARTIAL, %zu jobs missing", stats.missing_ids.size());
  }
  std::printf("\n");
}

int cmd_gen_table2(const std::vector<std::string>& args) {
  std::string out;
  std::size_t num_seeds = 5, shards = 4, iterations = 250;
  std::vector<std::uint64_t> seeds;
  for (const std::string& arg : args) {
    std::string value;
    if (flag_value(arg, "--out", &value)) out = value;
    else if (flag_value(arg, "--seeds", &value))
      num_seeds = parse_count("--seeds", value, false);
    else if (flag_value(arg, "--seed", &value))
      seeds.push_back(parse_count("--seed", value, true));
    else if (flag_value(arg, "--shards", &value))
      shards = parse_count("--shards", value, false);
    else if (flag_value(arg, "--iterations", &value))
      iterations = parse_count("--iterations", value, false);
    else usage_error("gen-table2: unknown argument \"" + arg + "\"");
  }
  if (out.empty()) usage_error("gen-table2: --out is required");
  if (seeds.empty()) seeds = default_seed_series(num_seeds);
  const Manifest manifest = table2_manifest(seeds, shards, iterations);
  write_manifest_file(out, manifest);
  std::printf("wrote %s: %zu jobs (%zu seeds x Table II) over %zu shards\n",
              out.c_str(), manifest.jobs.size(), seeds.size(), shards);
  return 0;
}

int cmd_gen_fuzz(const std::vector<std::string>& args) {
  std::string out;
  std::size_t shards = 4;
  roboads::scenario::FuzzConfig config;
  config.platforms.clear();
  for (const std::string& arg : args) {
    std::string value;
    if (flag_value(arg, "--out", &value)) out = value;
    else if (flag_value(arg, "--seed", &value))
      config.seed = parse_count("--seed", value, true);
    else if (flag_value(arg, "--campaigns", &value))
      config.campaigns = parse_count("--campaigns", value, false);
    else if (flag_value(arg, "--iterations", &value))
      config.iterations = parse_count("--iterations", value, false);
    else if (flag_value(arg, "--max-attacks", &value))
      config.max_attacks = parse_count("--max-attacks", value, false);
    else if (flag_value(arg, "--fault-probability", &value))
      config.fault_probability = parse_probability(value);
    else if (flag_value(arg, "--platform", &value))
      config.platforms.push_back(value);
    else if (flag_value(arg, "--shards", &value))
      shards = parse_count("--shards", value, false);
    else usage_error("gen-fuzz: unknown argument \"" + arg + "\"");
  }
  if (out.empty()) usage_error("gen-fuzz: --out is required");
  if (config.platforms.empty()) {
    config.platforms = roboads::eval::platform_names();
  }
  const Manifest manifest = fuzz_manifest(config, shards);
  write_manifest_file(out, manifest);
  std::printf("wrote %s: %zu fuzz campaigns over %zu shards\n", out.c_str(),
              manifest.jobs.size(), shards);
  return 0;
}

int cmd_run(const std::vector<std::string>& args) {
  SupervisedRunConfig run;
  SupervisorConfig& config = run.supervisor;
  for (const std::string& arg : args) {
    std::string value;
    if (flag_value(arg, "--manifest", &value)) run.manifest_path = value;
    else if (flag_value(arg, "--dir", &value)) run.dir = value;
    else if (flag_value(arg, "--report", &value)) run.report_path = value;
    else if (arg == "--resume") run.resume = true;
    else if (arg == "--bundles") run.record_bundles = true;
    else if (flag_value(arg, "--heartbeat-timeout", &value))
      config.heartbeat_timeout_seconds =
          parse_fraction("--heartbeat-timeout", value);
    else if (flag_value(arg, "--telemetry-interval", &value))
      config.telemetry_interval_seconds =
          parse_fraction("--telemetry-interval", value);
    else if (flag_value(arg, "--status-interval", &value))
      config.status_interval_seconds =
          parse_fraction("--status-interval", value);
    else if (flag_value(arg, "--slow-job-grace", &value))
      config.slow_job_grace_seconds = parse_fraction("--slow-job-grace", value);
    else if (flag_value(arg, "--max-retries", &value))
      config.retry.max_retries = parse_count("--max-retries", value, true);
    else if (flag_value(arg, "--salvage-waves", &value))
      config.salvage_waves = parse_count("--salvage-waves", value, true);
    else if (flag_value(arg, "--chaos-kills", &value))
      config.chaos_kills = parse_count("--chaos-kills", value, true);
    else if (flag_value(arg, "--chaos-stops", &value))
      config.chaos_stops = parse_count("--chaos-stops", value, true);
    else if (flag_value(arg, "--chaos-seed", &value))
      config.chaos_seed = parse_count("--chaos-seed", value, true);
    else usage_error("run: unknown argument \"" + arg + "\"");
  }
  if (run.manifest_path.empty() || run.dir.empty()) {
    usage_error("run: --manifest and --dir are required");
  }
  const SupervisedRun result = run_supervised(run);
  const SuperviseResult& supervised = result.supervised;
  std::printf(
      "supervision: %zu launches, %zu crashes, %zu hangs, %zu lost shards, "
      "%zu salvage workers, %zu slow-job grants\n",
      supervised.launches, supervised.crashes, supervised.hangs,
      supervised.lost_shards, supervised.salvage_workers,
      supervised.slow_job_grants);
  print_summary(result.report.stats);
  std::printf("report: %s\n", result.report_path.c_str());
  return report_exit_code(result.report.stats);
}

int cmd_serial(const std::vector<std::string>& args) {
  std::string manifest_path, dir, report_path;
  bool bundles = false;
  for (const std::string& arg : args) {
    std::string value;
    if (flag_value(arg, "--manifest", &value)) manifest_path = value;
    else if (flag_value(arg, "--dir", &value)) dir = value;
    else if (flag_value(arg, "--report", &value)) report_path = value;
    else if (arg == "--bundles") bundles = true;
    else usage_error("serial: unknown argument \"" + arg + "\"");
  }
  if (manifest_path.empty()) usage_error("serial: --manifest is required");
  if (bundles && dir.empty()) {
    usage_error("serial: --bundles needs --dir for the bundle files");
  }
  const Manifest manifest = read_manifest_file(manifest_path);
  if (!dir.empty()) fs::create_directories(dir);

  ExecConfig exec;
  exec.run_dir = dir;
  exec.record_bundles = bundles;
  const MergedReport report =
      merge_outcomes(manifest, run_serial(manifest, exec));
  if (report_path.empty() && !dir.empty()) report_path = dir + "/report.jsonl";
  if (!report_path.empty()) {
    write_report(report_path, report);
    std::printf("report: %s\n", report_path.c_str());
  } else {
    std::fputs(report.text.c_str(), stdout);
  }
  print_summary(report.stats);
  return report_exit_code(report.stats);
}

int cmd_watch(const std::vector<std::string>& args) {
  std::string dir, manifest_path;
  roboads::obs::MonitorOptions monitor;
  double telemetry_interval = 5.0;  // liveness cadence of the watched run
  for (const std::string& arg : args) {
    std::string value, error;
    if (roboads::obs::take_monitor_flag(arg, monitor, &error)) {
      if (!error.empty()) usage_error("watch: " + error);
    } else if (flag_value(arg, "--dir", &value)) {
      dir = value;
    } else if (flag_value(arg, "--manifest", &value)) {
      manifest_path = value;
    } else if (flag_value(arg, "--telemetry-interval", &value)) {
      telemetry_interval = parse_fraction("--telemetry-interval", value);
    } else {
      usage_error("watch: unknown argument \"" + arg + "\"");
    }
  }
  if (dir.empty()) usage_error("watch: --dir is required");
  const std::string error = roboads::obs::check_monitor_options(monitor);
  if (!error.empty()) usage_error("watch: " + error);

  // With a manifest the status is recomputed from the run directory's own
  // files (works mid-run, after a dead supervisor, or in CI); without one
  // it is read from the supervisor's atomically published snapshot.
  std::optional<Manifest> manifest;
  if (!manifest_path.empty()) manifest = read_manifest_file(manifest_path);

  roboads::obs::run_monitor(monitor, [&](bool json) {
    const RunStatus status =
        manifest.has_value()
            ? build_status(*manifest, dir, {}, 0.0, telemetry_interval)
            : roboads::obs::json::read_snapshot(status_path(dir),
                                                kStatusFile);
    return roboads::obs::MonitorFrame{
        json ? roboads::obs::json::encode(status) : render_status(status),
        status.complete};
  });
  return 0;
}

int cmd_merge(const std::vector<std::string>& args) {
  std::string manifest_path, dir, report_path;
  for (const std::string& arg : args) {
    std::string value;
    if (flag_value(arg, "--manifest", &value)) manifest_path = value;
    else if (flag_value(arg, "--dir", &value)) dir = value;
    else if (flag_value(arg, "--report", &value)) report_path = value;
    else usage_error("merge: unknown argument \"" + arg + "\"");
  }
  if (manifest_path.empty() || dir.empty()) {
    usage_error("merge: --manifest and --dir are required");
  }
  const MergedReport report =
      merge_run(read_manifest_file(manifest_path), dir);
  if (report_path.empty()) report_path = dir + "/report.jsonl";
  write_report(report_path, report);
  print_summary(report.stats);
  std::printf("report: %s\n", report_path.c_str());
  return report_exit_code(report.stats);
}

}  // namespace

int main(int argc, char** argv) {
  // Supervisor-spawned worker processes re-exec this binary with
  // --shard-worker before any subcommand parsing.
  if (argc >= 2 && std::strcmp(argv[1], "--shard-worker") == 0) {
    return worker_main({argv + 2, argv + argc});
  }
  if (argc < 2) usage_error("a command is required");
  const std::string command = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (command == "gen-table2") return cmd_gen_table2(args);
    if (command == "gen-fuzz") return cmd_gen_fuzz(args);
    if (command == "run") return cmd_run(args);
    if (command == "serial") return cmd_serial(args);
    if (command == "merge") return cmd_merge(args);
    if (command == "watch") return cmd_watch(args);
    if (command == "worker") return worker_main(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "roboads_shard %s: %s\n", command.c_str(), e.what());
    return 2;
  }
  usage_error("unknown command \"" + command + "\"");
}

// Statistical robustness: the paper reports single experimental runs; this
// bench replays the full Table II battery across independent seeds and
// reports mean ± sample-stddev and a 95% confidence interval of the headline
// metrics, so the reproduced numbers carry error bars.
//
// Extra flags on top of the common bench set (bench_util.h):
//   --seeds=N      replications to fly (default 5; each is 11 missions).
//   --workers=N    run the battery as a crash-resilient sharded campaign
//                  with N supervised worker processes (src/shard/) instead
//                  of in-process; requires --shard-dir. `--seeds=100
//                  --workers=8` completes the 1100-mission battery in
//                  minutes and survives worker kills.
//   --shard-dir=D  run directory (manifest, checkpoints, merged report).
//   --resume       continue a killed sharded run from its checkpoints.
#include <filesystem>
#include <fstream>
#include <map>

#include "bench/bench_util.h"
#include "common/parse.h"
#include "shard/checkpoint.h"
#include "shard/manifest.h"
#include "shard/merge.h"
#include "shard/supervise.h"
#include "shard/worker.h"

namespace roboads::bench {
namespace {

struct RobustnessArgs {
  std::size_t seeds = 5;
  std::size_t workers = 0;
  std::string shard_dir;
  bool resume = false;
};

// Metric samples per replication seed, however the missions were flown.
struct Replication {
  std::uint64_t seed = 0;
  stats::ConfusionCounts total;
  std::vector<double> sensor_delays, actuator_delays;
  std::size_t missed = 0;
  std::size_t failed = 0;
};

void print_ci(const char* name, const std::vector<double>& xs, double scale,
              const char* unit, const char* paper) {
  const stats::MeanCi95 ci = stats::mean_ci95(xs);
  std::printf("%s %.2f%s ± %.2f%s  CI95 [%.2f, %.2f]  %s\n", name,
              scale * ci.mean, unit, scale * ci.stddev, unit, scale * ci.lo,
              scale * ci.hi, paper);
}

int summarize(const std::vector<Replication>& replications) {
  std::vector<double> fprs, fnrs, sensor_delays, actuator_delays;
  std::size_t missed = 0, failed = 0;
  for (const Replication& r : replications) {
    fprs.push_back(r.total.false_positive_rate());
    fnrs.push_back(r.total.false_negative_rate());
    sensor_delays.insert(sensor_delays.end(), r.sensor_delays.begin(),
                         r.sensor_delays.end());
    actuator_delays.insert(actuator_delays.end(), r.actuator_delays.begin(),
                           r.actuator_delays.end());
    missed += r.missed;
    failed += r.failed;
    if (replications.size() <= 10) {
      std::printf("seed %-6llu FPR %s  FNR %s\n",
                  static_cast<unsigned long long>(r.seed),
                  fmt_rate(r.total.false_positive_rate()).c_str(),
                  fmt_rate(r.total.false_negative_rate()).c_str());
    }
  }

  std::printf("%s\n", std::string(60, '-').c_str());
  std::printf("%zu replications, %zu missions\n", replications.size(),
              replications.size() * 11);
  print_ci("FPR ", fprs, 100.0, "%", "(paper single run: 0.86%)");
  print_ci("FNR ", fnrs, 100.0, "%", "(paper single run: 0.97%)");
  print_ci("sensor delay  ", sensor_delays, 1.0, " s", "(paper 0.35 s)");
  print_ci("actuator delay", actuator_delays, 1.0, " s", "(paper 0.61 s)");
  std::printf("missed misbehaviors across %zu scenario-runs: %zu\n",
              replications.size() * 11, missed);
  if (failed > 0) std::printf("FAILED missions: %zu\n", failed);
  // The classic five-seed battery must detect every misbehavior; a wide
  // sweep (100+ seeds) deliberately explores the tail, so it tolerates a
  // small miss rate instead of calling the whole reproduction broken.
  const double miss_rate =
      static_cast<double>(missed) /
      static_cast<double>(replications.size() * 11);
  const bool misses_ok =
      replications.size() <= 10 ? missed == 0 : miss_rate <= 0.02;
  const bool ok = failed == 0 && misses_ok && stats::mean(fprs) < 0.05 &&
                  stats::mean(fnrs) < 0.08;
  std::printf("shape check: detection coverage and FPR/FNR within a few "
              "percent across replications: %s\n",
              ok ? "yes" : "NO");
  return ok ? 0 : 1;
}

int run_serial(const std::vector<std::uint64_t>& seeds,
               const obs::Instruments& instruments) {
  eval::KheperaPlatform platform;
  std::vector<Replication> replications;
  for (std::uint64_t seed : seeds) {
    Replication r;
    r.seed = seed;
    for (std::size_t n = 1; n <= 11; ++n) {
      const ScenarioRun run = run_and_score(
          platform,
          scenario::compile_spec(scenario::khepera_table2_spec(n), platform),
          seed * 1000 + n, 250, instruments);
      r.total += run.score.sensor;
      r.total += run.score.actuator;
      for (const eval::DelayRecord& d : run.score.delays) {
        if (!d.seconds) {
          ++r.missed;
        } else if (d.label == "actuator") {
          r.actuator_delays.push_back(*d.seconds);
        } else {
          r.sensor_delays.push_back(*d.seconds);
        }
      }
    }
    replications.push_back(std::move(r));
  }
  return summarize(replications);
}

int run_sharded(const std::vector<std::uint64_t>& seeds,
                const RobustnessArgs& args) {
  namespace fs = std::filesystem;
  fs::create_directories(args.shard_dir);
  const std::string manifest_path = args.shard_dir + "/manifest.jsonl";
  if (args.resume && fs::exists(manifest_path)) {
    std::printf("resuming sharded battery from %s\n", args.shard_dir.c_str());
  } else {
    shard::write_manifest_file(
        manifest_path, shard::table2_manifest(seeds, args.workers, 250));
  }
  const shard::Manifest manifest = shard::read_manifest_file(manifest_path);

  const shard::SuperviseResult supervised = shard::supervise(
      manifest, args.shard_dir, shard::SupervisorConfig{},
      shard::self_exec_launcher(manifest_path, args.shard_dir,
                                /*record_bundles=*/false));
  const shard::MergedReport report =
      shard::merge_run(manifest, args.shard_dir);
  std::ofstream os(args.shard_dir + "/report.jsonl", std::ios::binary);
  os << report.text;
  std::printf("%zu/%zu missions over %zu workers (%zu launches, %zu crashes, "
              "%zu hangs); merged report: %s/report.jsonl\n",
              report.stats.completed, report.stats.total_jobs,
              manifest.shards, supervised.launches, supervised.crashes,
              supervised.hangs, args.shard_dir.c_str());
  if (!report.stats.complete) {
    std::fprintf(stderr, "partial coverage: %zu missions missing\n",
                 report.stats.missing_ids.size());
    return 3;
  }

  // Rebuild per-seed replications from the merged outcomes; the group key
  // "seed-<seed>" is the join.
  std::map<std::string, Replication> by_group;
  for (const shard::JobOutcome& o :
       shard::load_run_outcomes(args.shard_dir)) {
    // Group names come from a merged report on disk; a stray non-"seed-"
    // group (hand-edited run dir, mixed manifests) must be a diagnostic,
    // not an uncaught std::invalid_argument out of std::stoull.
    const std::string prefix = "seed-";
    std::optional<unsigned long long> seed;
    if (o.group.rfind(prefix, 0) == 0) {
      seed = common::parse_u64(o.group.substr(prefix.size()));
    }
    if (!seed) {
      throw std::runtime_error("merged report contains job group \"" +
                               o.group +
                               "\" which is not of the form seed-<N>");
    }
    Replication& r = by_group[o.group];
    r.seed = *seed;
    if (o.status != "ok") {
      ++r.failed;
      continue;
    }
    r.total.true_positives += static_cast<std::size_t>(o.sensor_tp);
    r.total.false_positives += static_cast<std::size_t>(o.sensor_fp);
    r.total.true_negatives += static_cast<std::size_t>(o.sensor_tn);
    r.total.false_negatives += static_cast<std::size_t>(o.sensor_fn);
    r.total.true_positives += static_cast<std::size_t>(o.actuator_tp);
    r.total.false_positives += static_cast<std::size_t>(o.actuator_fp);
    r.total.true_negatives += static_cast<std::size_t>(o.actuator_tn);
    r.total.false_negatives += static_cast<std::size_t>(o.actuator_fn);
    for (const shard::OutcomeDelay& d : o.delays) {
      if (!d.seconds) {
        ++r.missed;
      } else if (d.label == "actuator") {
        r.actuator_delays.push_back(*d.seconds);
      } else {
        r.sensor_delays.push_back(*d.seconds);
      }
    }
  }
  std::vector<Replication> replications;
  for (std::uint64_t seed : seeds) {
    const auto it = by_group.find("seed-" + std::to_string(seed));
    if (it != by_group.end()) replications.push_back(std::move(it->second));
  }
  return summarize(replications);
}

}  // namespace
}  // namespace roboads::bench

int main(int argc, char** argv) {
  using roboads::bench::RobustnessArgs;

  if (argc >= 2 && std::strcmp(argv[1], "--shard-worker") == 0) {
    return roboads::shard::worker_main({argv + 2, argv + argc});
  }

  // Strip this bench's own flags before the strict common parser sees them.
  RobustnessArgs robustness;
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seeds=", 0) == 0) {
      const auto seeds = roboads::common::parse_u64(arg.substr(8));
      if (!seeds || *seeds == 0) {
        roboads::bench::bench_usage_error(
            argv[0], "--seeds expects a positive integer, got \"" +
                         arg.substr(8) + "\"");
      }
      robustness.seeds = static_cast<std::size_t>(*seeds);
    } else if (arg.rfind("--workers=", 0) == 0) {
      const auto workers = roboads::common::parse_u64(arg.substr(10));
      if (!workers) {
        roboads::bench::bench_usage_error(
            argv[0], "--workers expects a non-negative integer, got \"" +
                         arg.substr(10) + "\"");
      }
      robustness.workers = static_cast<std::size_t>(*workers);
    } else if (arg.rfind("--shard-dir=", 0) == 0) {
      robustness.shard_dir = arg.substr(12);
    } else if (arg == "--resume") {
      robustness.resume = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (robustness.workers > 0 && robustness.shard_dir.empty()) {
    roboads::bench::bench_usage_error(argv[0], "--workers needs --shard-dir");
  }

  const std::vector<std::uint64_t> seeds =
      roboads::shard::default_seed_series(robustness.seeds);

  roboads::bench::print_header(
      "Robustness — Table II battery across independent seeds",
      "reproducibility supplement to RoboADS (DSN'18) Table II");

  if (robustness.workers > 0) {
    try {
      return roboads::bench::run_sharded(seeds, robustness);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      return 2;
    }
  }

  roboads::bench::BenchObservation watch(roboads::bench::parse_bench_args(
      static_cast<int>(passthrough.size()), passthrough.data()));
  const int rc =
      roboads::bench::run_serial(seeds, watch.instruments());
  watch.finish();
  return rc;
}

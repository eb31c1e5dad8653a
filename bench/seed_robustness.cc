// Statistical robustness: the paper reports single experimental runs; this
// bench replays the full Table II battery across independent seeds and
// reports mean ± sample-stddev and a 95% confidence interval of the headline
// metrics, so the reproduced numbers carry error bars.
//
// The battery is a shard manifest (shard::table2_manifest: 11 library jobs
// per seed, group "seed-<seed>"). Without --workers its jobs run one after
// another in this process; one reducer folds the job outcomes into per-seed
// replications in both modes, so both print the same summary.
//
// Extra flags on top of the common bench set (bench_util.h):
//   --seeds=N      replications to fly (default 5; each is 11 missions).
//   --workers=N    fly the battery in N >= 1 supervised worker processes
//                  (src/shard/) instead of in this process; requires
//                  --shard-dir. `--seeds=100 --workers=8` completes the
//                  1100-mission battery in minutes and survives worker
//                  kills. --trace-out, --metrics-out and --record-out work
//                  in process only.
//   --shard-dir=D  run directory (manifest, checkpoints, merged report). A
//                  directory that already holds checkpoints is refused
//                  without --resume.
//   --resume       continue a killed sharded run from its checkpoints.
// These three parse as in roboads_fuzz (shard::take_campaign_flags).
//
// In process, --record-out=D records every mission and writes its
// postmortem bundles to D/bundles/, named after their manifest job
// (shard::ExecConfig); --record-window is not supported.
#include <algorithm>
#include <filesystem>
#include <map>

#include "bench/bench_util.h"
#include "shard/run.h"
#include "shard/worker.h"

namespace roboads::bench {
namespace {

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

// The one reducer: one replication per "seed-<N>" job group, in the order
// the groups first appear (manifest order: outcomes come sorted by job id).
std::vector<Replication> replications(
    const std::vector<shard::JobOutcome>& outcomes) {
  std::vector<Replication> out;
  std::map<std::string, std::size_t> index;
  for (const shard::JobOutcome& o : outcomes) {
    const auto slot = index.emplace(o.group, out.size());
    if (slot.second) {
      // A resumed run reads its groups from a manifest on disk; a stray one
      // (hand-edited run dir) must be a diagnostic, not a misread seed.
      const std::optional<unsigned long long> seed =
          o.group.rfind("seed-", 0) == 0 ? common::parse_u64(o.group.substr(5))
                                         : std::nullopt;
      if (!seed) {
        throw std::runtime_error("job group \"" + o.group +
                                 "\" is not of the form seed-<N>");
      }
      out.emplace_back().seed = *seed;
    }
    Replication& r = out[slot.first->second];
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
  return out;
}

// Flies the battery in process (workers == 0) or supervised.
int run_battery(const shard::Manifest& manifest, std::size_t workers,
                shard::SupervisedRunConfig run, const BenchArgs& args) {
  if (workers == 0) {
    BenchObservation watch(args);
    shard::ExecConfig exec;
    exec.instruments = watch.instruments();
    exec.run_dir = args.obs.record_out;
    exec.record_bundles = !exec.run_dir.empty();
    const std::vector<shard::JobOutcome> outcomes =
        shard::run_serial(manifest, exec);
    const int rc = summarize(replications(outcomes));
    watch.finish();
    for (const shard::JobOutcome& o : outcomes) {
      for (const std::string& bundle : o.bundle_files) {
        std::printf("bundle:      %s\n",
                    (std::filesystem::path(exec.run_dir) / bundle).c_str());
      }
    }
    return rc;
  }

  if (run.resume) {
    std::printf("resuming sharded battery from %s\n", run.dir.c_str());
  }
  run.manifest_path = run.dir + "/manifest.jsonl";
  const shard::SupervisedRun result = shard::run_supervised(run, &manifest);
  const shard::MergeStats& stats = result.report.stats;
  std::printf("%zu/%zu missions over %zu workers (%zu launches, %zu crashes, "
              "%zu hangs); merged report: %s\n",
              stats.completed, stats.total_jobs, result.manifest.shards,
              result.supervised.launches, result.supervised.crashes,
              result.supervised.hangs, result.report_path.c_str());
  if (!stats.complete) {
    std::fprintf(stderr, "partial coverage: %zu missions missing\n",
                 stats.missing_ids.size());
    return 3;
  }
  return summarize(replications(result.outcomes));
}

}  // namespace
}  // namespace roboads::bench

int main(int argc, char** argv) {
  using roboads::bench::bench_usage_error;
  using roboads::common::flag_value;

  if (argc >= 2 && std::strcmp(argv[1], "--shard-worker") == 0) {
    return roboads::shard::worker_main({argv + 2, argv + argc});
  }

  // Strip this bench's own flags before the strict common parser sees them.
  std::size_t seeds = 5, workers = 0;
  roboads::shard::SupervisedRunConfig run;
  std::vector<std::string> args(argv + 1, argv + argc);
  const std::string error =
      roboads::shard::take_campaign_flags(args, workers, run);
  if (!error.empty()) bench_usage_error(argv[0], error);
  std::vector<char*> passthrough = {argv[0]};
  for (std::string& arg : args) {
    std::string value;
    if (flag_value(arg, "--seeds", &value)) {
      const auto n = roboads::common::parse_u64(value);
      if (!n || *n == 0) {
        bench_usage_error(argv[0], "--seeds expects a positive integer, "
                                   "got \"" + value + "\"");
      }
      seeds = static_cast<std::size_t>(*n);
    } else if (flag_value(arg, "--record-window", &value)) {
      bench_usage_error(argv[0], "--record-window is not supported: job "
                                 "bundles use the default window");
    } else {
      passthrough.push_back(arg.data());
    }
  }
  const roboads::bench::BenchArgs common = roboads::bench::parse_bench_args(
      static_cast<int>(passthrough.size()), passthrough.data());
  if (workers > 0 && common.obs.enabled()) {
    bench_usage_error(argv[0], "--trace-out, --metrics-out and --record-out "
                               "work in process only (without --workers)");
  }

  roboads::bench::print_header(
      "Robustness — Table II battery across independent seeds",
      "reproducibility supplement to RoboADS (DSN'18) Table II");
  try {
    return roboads::bench::run_battery(
        roboads::shard::table2_manifest(
            roboads::shard::default_seed_series(seeds),
            std::max<std::size_t>(workers, 1), 250),
        workers, run, common);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
}

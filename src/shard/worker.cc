#include "shard/worker.h"

#include <signal.h>

#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>

#include "common/parse.h"
#include "obs/metrics.h"
#include "shard/checkpoint.h"
#include "shard/heartbeat.h"
#include "shard/manifest.h"
#include "shard/telemetry.h"

namespace roboads::shard {
namespace {

namespace fs = std::filesystem;

bool flag_value(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string(name) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

}  // namespace

int run_worker(const WorkerOptions& options) {
  try {
    const Manifest manifest = read_manifest_file(options.manifest_path);
    fs::create_directories(options.dir);

    // Which manifest jobs are ours.
    std::set<std::string> wanted(options.job_ids.begin(),
                                 options.job_ids.end());
    std::vector<const ManifestJob*> assigned;
    for (const ManifestJob& job : manifest.jobs) {
      const bool by_id = wanted.erase(job.id) > 0;
      const bool by_shard = options.job_ids.empty() && options.shard >= 0 &&
                            job.shard == static_cast<std::size_t>(options.shard);
      if (by_id || by_shard) assigned.push_back(&job);
    }
    if (!wanted.empty()) {
      throw ManifestError("job \"" + *wanted.begin() +
                          "\" is not in the manifest");
    }

    // Repair our own checkpoint (torn tail from a previous kill), then skip
    // everything it already records. Only our *own* file is repaired —
    // sibling workers may be appending to theirs right now.
    const std::string path = checkpoint_path(options.dir, options.label);
    std::set<std::string> done;
    for (const JobOutcome& outcome :
         read_checkpoint_file(path, /*repair=*/true)) {
      done.insert(outcome.id);
    }
    const bool fresh = !fs::exists(path) || fs::file_size(path) == 0;
    std::ofstream os(path, fresh ? std::ios::binary
                                 : std::ios::binary | std::ios::app);
    if (!os) {
      std::cerr << "worker " << options.label << ": cannot open " << path
                << "\n";
      return 2;
    }
    if (fresh) write_checkpoint_header(os);

    ExecConfig exec;
    exec.run_dir = options.dir;
    exec.record_bundles = options.record_bundles;
    exec.shrink_budget = options.shrink_budget;

    // Telemetry plane: a worker-local metrics registry feeds the periodic
    // stream with detector-step latency histograms. Coarse timers keep the
    // always-on cost to the engine.step_ns/decision.evaluate_ns pair
    // (bench/obs_overhead gates it); the full per-stage NUISE timers remain
    // an explicit opt-in for report runs.
    obs::MetricsRegistry registry;
    const bool telemetry_on = options.telemetry_interval_seconds > 0.0;
    if (telemetry_on) {
      exec.instruments.metrics = &registry;
      exec.instruments.coarse_timers = true;
    }
    TelemetryStream telemetry(options.dir, options.label,
                              options.telemetry_interval_seconds,
                              telemetry_on ? &registry : nullptr);

    std::uint64_t pending = 0;
    for (const ManifestJob* job : assigned) {
      if (done.count(job->id) == 0) ++pending;
    }
    telemetry.set_jobs_assigned(pending);

    // The structured heartbeat lets the watchdog distinguish "hung job"
    // (no progress this launch) from "slow job" (progress, then quiet).
    Heartbeat beat;
    beat.label = options.label;
    const std::string beat_path = heartbeat_path(options.dir, options.label);
    write_heartbeat(beat_path, beat);
    if (telemetry.enabled()) telemetry.flush();  // start-of-run mark
    for (const ManifestJob* job : assigned) {
      if (done.count(job->id) != 0) continue;
      if (options.chaos && beat.jobs_done == options.chaos->after_jobs) {
        raise(options.chaos->signal);
      }
      beat.current_job = job->id;
      write_heartbeat(beat_path, beat);
      const JobOutcome outcome = execute_job(*job, exec);
      append_outcome(os, outcome);
      telemetry.job_finished(outcome);
      ++beat.jobs_done;
      beat.last_job = job->id;
      beat.last_job_unix_time = unix_now_seconds();
      beat.current_job.clear();
      write_heartbeat(beat_path, beat);
    }
    if (telemetry.enabled()) telemetry.flush();  // end-of-run mark
    write_heartbeat(beat_path, beat);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "worker " << options.label << ": " << e.what() << "\n";
    return 2;
  }
}

int worker_main(const std::vector<std::string>& args) {
  WorkerOptions options;
  for (const std::string& arg : args) {
    std::string value;
    if (flag_value(arg, "--manifest", &value)) {
      options.manifest_path = value;
    } else if (flag_value(arg, "--dir", &value)) {
      options.dir = value;
    } else if (flag_value(arg, "--label", &value)) {
      options.label = value;
    } else if (flag_value(arg, "--shard", &value)) {
      // Malformed numerics must be a diagnostic + exit 2, never an uncaught
      // std::invalid_argument that kills the worker before run_worker's
      // try/catch can see it (the supervisor would read that as a crash and
      // burn a retry on input that can never parse).
      const auto shard = common::parse_i64(value);
      if (!shard || *shard < -1) {
        std::cerr << "shard worker: --shard expects a shard index, got \""
                  << value << "\"\n";
        return 2;
      }
      options.shard = static_cast<int>(*shard);
    } else if (flag_value(arg, "--job", &value)) {
      options.job_ids.push_back(value);
    } else if (flag_value(arg, "--shrink-budget", &value)) {
      const auto budget = common::parse_u64(value);
      if (!budget) {
        std::cerr << "shard worker: --shrink-budget expects a non-negative "
                     "integer, got \""
                  << value << "\"\n";
        return 2;
      }
      options.shrink_budget = static_cast<std::size_t>(*budget);
    } else if (flag_value(arg, "--telemetry-interval", &value)) {
      const auto interval = common::parse_double(value);
      if (!interval || *interval < 0.0) {
        std::cerr << "shard worker: --telemetry-interval expects a "
                     "non-negative number of seconds, got \""
                  << value << "\"\n";
        return 2;
      }
      options.telemetry_interval_seconds = *interval;
    } else if (flag_value(arg, "--chaos", &value)) {
      options.chaos = parse_chaos_argument(value);
      if (!options.chaos) {
        std::cerr << "shard worker: --chaos expects kill@K or stop@K, got \""
                  << value << "\"\n";
        return 2;
      }
    } else if (arg == "--bundles") {
      options.record_bundles = true;
    } else {
      std::cerr << "shard worker: unknown argument " << arg << "\n";
      return 2;
    }
  }
  if (options.manifest_path.empty() || options.dir.empty() ||
      options.label.empty()) {
    std::cerr << "shard worker: --manifest, --dir and --label are required\n";
    return 2;
  }
  return run_worker(options);
}

WorkerLauncher self_exec_launcher(const std::string& manifest_path,
                                  const std::string& dir, bool record_bundles,
                                  std::size_t shrink_budget,
                                  double telemetry_interval_seconds) {
  const std::string exe = fs::read_symlink("/proc/self/exe").string();
  return [exe, manifest_path, dir, record_bundles, shrink_budget,
          telemetry_interval_seconds](const std::string& label,
                                      const std::vector<std::string>& job_ids) {
    WorkerCommand command;
    command.args = {exe, "--shard-worker", "--manifest=" + manifest_path,
                    "--dir=" + dir, "--label=" + label};
    if (record_bundles) command.args.push_back("--bundles");
    command.args.push_back("--shrink-budget=" + std::to_string(shrink_budget));
    command.args.push_back("--telemetry-interval=" +
                           std::to_string(telemetry_interval_seconds));
    for (const std::string& id : job_ids) {
      command.args.push_back("--job=" + id);
    }
    return command;
  };
}

}  // namespace roboads::shard

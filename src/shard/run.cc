#include "shard/run.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "common/parse.h"
#include "shard/worker.h"

namespace roboads::shard {

namespace fs = std::filesystem;

std::vector<JobOutcome> run_serial(const Manifest& manifest,
                                   const ExecConfig& exec) {
  std::vector<JobOutcome> outcomes;
  outcomes.reserve(manifest.jobs.size());
  for (const ManifestJob& job : manifest.jobs) {
    outcomes.push_back(execute_job(job, exec));
  }
  return outcomes;
}

std::string take_campaign_flags(std::vector<std::string>& args,
                                std::size_t& workers,
                                SupervisedRunConfig& run) {
  std::vector<std::string> rest;
  for (const std::string& arg : args) {
    std::string value;
    if (common::flag_value(arg, "--workers", &value)) {
      const std::optional<unsigned long long> n = common::parse_u64(value);
      if (!n || *n == 0) {
        return "--workers expects a positive integer, got \"" + value + "\"";
      }
      workers = static_cast<std::size_t>(*n);
    } else if (common::flag_value(arg, "--shard-dir", &value)) {
      run.dir = value;
    } else if (arg == "--resume") {
      run.resume = true;
    } else {
      rest.push_back(arg);
    }
  }
  if (workers > 0 && run.dir.empty()) return "--workers needs --shard-dir";
  if ((run.resume || !run.dir.empty()) && workers == 0) {
    return "--shard-dir/--resume need --workers";
  }
  args = std::move(rest);
  return "";
}

SupervisedRun run_supervised(const SupervisedRunConfig& config,
                             const Manifest* fresh) {
  if (!config.resume && fs::exists(config.dir)) {
    for (const fs::directory_entry& entry :
         fs::directory_iterator(config.dir)) {
      if (entry.path().filename().string().rfind("checkpoint-", 0) == 0) {
        throw std::runtime_error(
            config.dir + " already holds checkpoints: pass --resume to "
            "continue that run, or use a fresh directory");
      }
    }
  }
  fs::create_directories(config.dir);
  if (fresh != nullptr &&
      !(config.resume && fs::exists(config.manifest_path))) {
    write_manifest_file(config.manifest_path, *fresh);
  }

  SupervisedRun run;
  run.manifest = read_manifest_file(config.manifest_path);
  run.supervised = supervise(
      run.manifest, config.dir, config.supervisor,
      self_exec_launcher(config.manifest_path, config.dir,
                         config.record_bundles,
                         config.supervisor.telemetry_interval_seconds));
  run.outcomes = load_run_outcomes(config.dir);
  std::sort(
      run.outcomes.begin(), run.outcomes.end(),
      [](const JobOutcome& a, const JobOutcome& b) { return a.id < b.id; });
  run.report = merge_outcomes(run.manifest, run.outcomes);

  run.report_path = config.report_path.empty() ? config.dir + "/report.jsonl"
                                               : config.report_path;
  write_report(run.report_path, run.report);
  return run;
}

}  // namespace roboads::shard

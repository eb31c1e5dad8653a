#include "shard/exec.h"

#include <filesystem>

#include "eval/batch.h"
#include "scenario/compile.h"
#include "scenario/fuzz.h"
#include "scenario/library.h"

namespace roboads::shard {
namespace {

scenario::ScenarioSpec resolve_spec(const ManifestJob& job) {
  if (job.kind == JobKind::kSpec) {
    return scenario::parse(job.spec_text);
  }
  for (scenario::ScenarioSpec& spec : scenario::all_library_specs()) {
    if (spec.name == job.scenario) return std::move(spec);
  }
  throw ManifestError("job \"" + job.id + "\": unknown library scenario \"" +
                      job.scenario + "\"");
}

JobOutcome execute_mission_job(const ManifestJob& job,
                               const ExecConfig& config, JobOutcome out) {
  scenario::ScenarioSpec spec = resolve_spec(job);
  if (job.iterations > 0) spec.iterations = job.iterations;
  out.name = spec.name;

  const std::unique_ptr<eval::Platform> platform =
      scenario::make_platform(spec.platform);

  eval::MissionJob mission;
  mission.name = spec.name;
  mission.make_scenario = [&spec, &platform] {
    return scenario::compile_spec(spec, *platform);
  };
  mission.config.iterations = spec.iterations;
  mission.config.seed = job.seed;
  mission.config.transport_faults =
      scenario::transport_faults_of(spec, *platform);
  // The job id leads the observability label, so trace events and bundle
  // filenames are unique per manifest job and — crucially — identical no
  // matter which worker instance (original, retry, salvage, serial
  // reference) flies the job.
  mission.config.obs_label = job.id + "/" + spec.name + "/s" +
                             std::to_string(job.seed);

  sim::WorkflowConfig workflow;
  workflow.num_threads = 1;  // process-level parallelism only
  workflow.instruments = config.instruments;
  if (config.record_bundles && !config.run_dir.empty()) {
    workflow.recorder.enabled = true;
    workflow.record_out = config.run_dir + "/bundles/";
    std::filesystem::create_directories(config.run_dir + "/bundles");
  }

  const std::vector<eval::MissionJobResult> results =
      eval::run_mission_batch(*platform, {mission}, workflow);
  const eval::MissionJobResult& r = results.front();
  for (const std::string& path : r.bundle_paths) {
    // Run-dir-relative, so a run directory can be moved or merged remotely.
    out.bundle_files.push_back(path.substr(config.run_dir.size() + 1));
  }
  if (r.failed()) {
    out.status = "failed";
    out.failure = r.failure->what;
    out.failure_step = r.failure->step;
    return out;
  }
  out.status = "ok";
  out.sensor_tp = static_cast<std::int64_t>(r.score.sensor.true_positives);
  out.sensor_fp = static_cast<std::int64_t>(r.score.sensor.false_positives);
  out.sensor_tn = static_cast<std::int64_t>(r.score.sensor.true_negatives);
  out.sensor_fn = static_cast<std::int64_t>(r.score.sensor.false_negatives);
  out.actuator_tp =
      static_cast<std::int64_t>(r.score.actuator.true_positives);
  out.actuator_fp =
      static_cast<std::int64_t>(r.score.actuator.false_positives);
  out.actuator_tn =
      static_cast<std::int64_t>(r.score.actuator.true_negatives);
  out.actuator_fn =
      static_cast<std::int64_t>(r.score.actuator.false_negatives);
  for (const eval::DelayRecord& d : r.score.delays) {
    OutcomeDelay delay;
    delay.label = d.label;
    delay.triggered_at = d.triggered_at;
    delay.seconds = d.seconds;
    out.delays.push_back(std::move(delay));
  }
  out.sensor_sequence = r.score.sensor_condition_sequence;
  out.actuator_sequence = r.score.actuator_condition_sequence;
  return out;
}

JobOutcome execute_fuzz_job(const ManifestJob& job, const ExecConfig& config,
                            JobOutcome out) {
  scenario::FuzzConfig fuzz;
  fuzz.seed = job.fuzz_seed;
  fuzz.iterations = job.fuzz_iterations;
  fuzz.max_attacks = job.max_attacks;
  fuzz.platforms = job.platforms;
  fuzz.fault_probability = job.fault_probability;
  if (fuzz.platforms.empty()) {
    throw ManifestError("job \"" + job.id + "\": fuzz job needs platforms");
  }
  const scenario::ScenarioSpec spec =
      scenario::fuzz_campaign(fuzz, job.fuzz_index);
  out.name = spec.name;

  const std::optional<scenario::InvariantViolation> violation =
      scenario::check_campaign(spec, config.instruments);
  if (!violation) {
    out.status = "ok";
    return out;
  }
  OutcomeFinding finding;
  finding.invariant = violation->invariant;
  finding.detail = violation->detail;
  finding.spec_text = scenario::serialize(spec);
  finding.shrunk_text =
      scenario::serialize(scenario::shrink_campaign(spec, *violation));
  out.findings.push_back(std::move(finding));
  out.status = "violation";
  return out;
}

}  // namespace

JobOutcome execute_job(const ManifestJob& job, const ExecConfig& config) {
  JobOutcome out;
  out.id = job.id;
  out.group = job.group;
  out.name = job.scenario;
  try {
    if (job.kind == JobKind::kFuzz) {
      return execute_fuzz_job(job, config, std::move(out));
    }
    return execute_mission_job(job, config, std::move(out));
  } catch (const std::exception& e) {
    // The inner batch already contains mission crashes; reaching here means
    // setup failed (bad spec text, unknown scenario, unwritable bundles).
    JobOutcome failed;
    failed.id = job.id;
    failed.group = job.group;
    failed.name = out.name;
    failed.status = "failed";
    failed.failure = e.what();
    return failed;
  }
}

}  // namespace roboads::shard

#include "shard/exec.h"

#include <filesystem>

#include "eval/scoring.h"
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

void execute_mission_job(const ManifestJob& job, const ExecConfig& config,
                         JobOutcome& out) {
  scenario::ScenarioSpec spec = resolve_spec(job);
  if (job.iterations > 0) spec.iterations = job.iterations;
  spec.seed = job.seed;
  out.name = spec.name;

  scenario::SpecMission mission = scenario::lower_spec(spec);
  mission.config.instruments = config.instruments;
  // The job id leads the observability label, so trace events and bundle
  // filenames are unique per manifest job and — crucially — identical no
  // matter which worker instance (original, retry, salvage, serial
  // reference) flies the job.
  mission.config.obs_label = job.id + "/" + mission.config.obs_label;
  // Each job records into a private recorder, so its bundle ordinals count
  // within the job; a recorder in the worker's instruments is never used.
  std::optional<obs::FlightRecorder> recorder;
  if (config.record_bundles && !config.run_dir.empty()) {
    recorder.emplace(obs::FlightRecorderConfig{.enabled = true});
    std::filesystem::create_directories(config.run_dir + "/bundles");
  }
  mission.config.instruments.recorder = recorder ? &*recorder : nullptr;

  const eval::ContainedRun r = eval::run_contained(
      *mission.platform, mission.scenario, mission.config);
  if (recorder.has_value()) {
    for (const std::string& path : obs::write_bundle_files(
             config.run_dir + "/bundles/", recorder->bundles())) {
      // Run-dir-relative, so a run directory can be moved or merged
      // remotely.
      out.bundle_files.push_back(path.substr(config.run_dir.size() + 1));
    }
  }
  if (r.failed()) {
    out.status = "failed";
    out.failure = r.failure->what;
    out.failure_step = r.failure->step;
    return;
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
}

void execute_fuzz_job(const ManifestJob& job, const ExecConfig& config,
                      JobOutcome& out) {
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
    return;
  }
  OutcomeFinding finding;
  finding.invariant = violation->invariant;
  finding.detail = violation->detail;
  finding.spec_text = scenario::serialize(spec);
  finding.shrunk_text =
      scenario::serialize(scenario::shrink_campaign(spec, *violation));
  out.findings.push_back(std::move(finding));
  out.status = "violation";
}

}  // namespace

JobOutcome execute_job(const ManifestJob& job, const ExecConfig& config) {
  JobOutcome out;
  out.id = job.id;
  out.group = job.group;
  out.name = job.scenario;
  try {
    if (job.kind == JobKind::kFuzz) {
      execute_fuzz_job(job, config, out);
    } else {
      execute_mission_job(job, config, out);
    }
    return out;
  } catch (const std::exception& e) {
    // eval::run_contained already contains mission crashes; reaching here
    // means setup failed (bad spec text, unknown scenario, a spec the
    // compiler rejects, unwritable bundles). The name is as far as the job
    // got resolving it.
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

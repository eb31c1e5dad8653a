#include "eval/scoring.h"

#include <algorithm>
#include <cmath>

namespace roboads::eval {
namespace {

// Newly-true misbehaviors between two ground-truth snapshots.
std::vector<std::string> new_misbehaviors(const attacks::GroundTruth& prev,
                                          const attacks::GroundTruth& now,
                                          const sensors::SensorSuite& suite) {
  std::vector<std::string> out;
  for (std::size_t s : now.corrupted_sensors) {
    if (std::find(prev.corrupted_sensors.begin(),
                  prev.corrupted_sensors.end(),
                  s) == prev.corrupted_sensors.end()) {
      out.push_back("sensor:" + suite.sensor(s).name());
    }
  }
  if (now.actuator_corrupted && !prev.actuator_corrupted) {
    out.push_back("actuator");
  }
  return out;
}

bool detected_misbehavior(const IterationRecord& rec,
                          const sensors::SensorSuite& suite,
                          const std::string& label) {
  if (label == "actuator") return rec.report.decision.actuator_alarm;
  const std::string name = label.substr(std::string("sensor:").size());
  const std::size_t idx = suite.index_of(name);
  const auto& det = rec.report.decision.misbehaving_sensors;
  return std::find(det.begin(), det.end(), idx) != det.end();
}

}  // namespace

std::optional<double> ScenarioScore::mean_delay_seconds() const {
  double acc = 0.0;
  std::size_t n = 0;
  for (const DelayRecord& d : delays) {
    if (d.seconds) {
      acc += *d.seconds;
      ++n;
    }
  }
  if (n == 0) return std::nullopt;
  return acc / static_cast<double>(n);
}

bool ScenarioScore::all_misbehaviors_detected() const {
  return std::all_of(delays.begin(), delays.end(),
                     [](const DelayRecord& d) { return d.seconds.has_value(); });
}

ScenarioScore score_mission(const MissionResult& result,
                            const Platform& platform) {
  const sensors::SensorSuite& suite = platform.suite();
  ScenarioScore score;

  attacks::GroundTruth prev_truth;  // clean before the mission
  std::string prev_sensor_condition = "S0";
  std::string prev_actuator_condition = "A0";
  score.sensor_condition_sequence = "S0";
  score.actuator_condition_sequence = "A0";

  for (const IterationRecord& rec : result.records) {
    const auto& detected = rec.report.decision.misbehaving_sensors;
    const bool actuator_alarm = rec.report.decision.actuator_alarm;

    // --- Confusion counts (paper §V definitions). ---
    if (rec.truth.corrupted_sensors.empty()) {
      if (detected.empty()) {
        ++score.sensor.true_negatives;
      } else {
        ++score.sensor.false_positives;
      }
    } else {
      if (detected.empty()) {
        ++score.sensor.false_negatives;
      } else if (detected == rec.truth.corrupted_sensors) {
        ++score.sensor.true_positives;
      } else {
        ++score.sensor.false_positives;  // alarm with the wrong condition
      }
    }
    if (rec.truth.actuator_corrupted) {
      if (actuator_alarm) {
        ++score.actuator.true_positives;
      } else {
        ++score.actuator.false_negatives;
      }
    } else {
      if (actuator_alarm) {
        ++score.actuator.false_positives;
      } else {
        ++score.actuator.true_negatives;
      }
    }

    // --- Delay bookkeeping on ground-truth transitions. ---
    for (const std::string& label :
         new_misbehaviors(prev_truth, rec.truth, suite)) {
      score.delays.push_back({label, rec.k, std::nullopt});
    }
    for (DelayRecord& d : score.delays) {
      if (!d.seconds && detected_misbehavior(rec, suite, d.label)) {
        d.seconds = static_cast<double>(rec.k - d.triggered_at) * result.dt;
      }
    }
    prev_truth = rec.truth;

    // --- Identified-condition sequences (Table II "Detection Result"). ---
    const std::string sensor_condition = platform.condition_name(detected);
    if (sensor_condition != prev_sensor_condition) {
      score.sensor_condition_sequence += "→" + sensor_condition;
      prev_sensor_condition = sensor_condition;
    }
    const std::string actuator_condition = actuator_alarm ? "A1" : "A0";
    if (actuator_condition != prev_actuator_condition) {
      score.actuator_condition_sequence += "→" + actuator_condition;
      prev_actuator_condition = actuator_condition;
    }
  }
  return score;
}

ContainedRun run_contained(const Platform& platform,
                           const attacks::Scenario& scenario,
                           const MissionConfig& config) {
  ContainedRun run;
  try {
    run.result = run_mission(platform, scenario, config);
    run.score = score_mission(run.result, platform);
  } catch (const MissionError& e) {
    run.failure = MissionFailure{e.step(), e.what()};
  } catch (const std::exception& e) {
    run.failure = MissionFailure{0, e.what()};
  }
  if (run.failed() && run.failure->step > 0 &&
      config.instruments.recorder != nullptr) {
    config.instruments.recorder->trigger(
        obs::BundleTrigger::kMissionFailure,
        static_cast<std::int64_t>(run.failure->step), run.failure->what);
  }
  return run;
}

double sensor_quantification_error(const MissionResult& result,
                                   std::size_t sensor_index,
                                   const Vector& true_anomaly,
                                   std::size_t from_iteration) {
  ROBOADS_CHECK(true_anomaly.norm() > 0.0, "true anomaly must be nonzero");
  Vector mean_est(true_anomaly.size());
  std::size_t n = 0;
  for (const IterationRecord& rec : result.records) {
    if (rec.k < from_iteration) continue;
    const Vector& est = rec.report.sensor_anomaly_by_sensor[sensor_index];
    if (est.empty()) continue;  // sensor was the selected mode's reference
    mean_est += est;
    ++n;
  }
  ROBOADS_CHECK(n > 0, "no iterations with a testing-sensor estimate");
  mean_est /= static_cast<double>(n);
  return (mean_est - true_anomaly).norm() / true_anomaly.norm();
}

double actuator_quantification_error(const MissionResult& result,
                                     const Vector& true_anomaly,
                                     std::size_t from_iteration) {
  ROBOADS_CHECK(true_anomaly.norm() > 0.0, "true anomaly must be nonzero");
  Vector mean_est(true_anomaly.size());
  std::size_t n = 0;
  for (const IterationRecord& rec : result.records) {
    if (rec.k < from_iteration) continue;
    mean_est += rec.report.actuator_anomaly;
    ++n;
  }
  ROBOADS_CHECK(n > 0, "no scored iterations");
  mean_est /= static_cast<double>(n);
  return (mean_est - true_anomaly).norm() / true_anomaly.norm();
}

}  // namespace roboads::eval

// Scoring of mission records against scenario ground truth, using the
// paper's §V definitions:
//
//   true positive  — the system raises an alarm AND correctly identifies
//                    the sensor/actuator misbehaving condition;
//   false positive — any other positive detection result;
//   false negative — no alarm while the robot is misbehaving;
//   true negative  — clean and silent.
//
// Detection delay is "the period between the time when a misbehavior is
// triggered and when the system correctly captures the event", measured per
// ground-truth transition (multi-phase scenarios report one delay per
// newly-corrupted workflow, as Table II does for #8-#11).
#pragma once

#include <optional>
#include <string>

#include "eval/mission.h"
#include "stats/metrics.h"

namespace roboads::eval {

struct DelayRecord {
  std::string label;        // e.g. "sensor:ips" or "actuator"
  std::size_t triggered_at = 0;
  std::optional<double> seconds;  // nullopt: never correctly detected
};

struct ScenarioScore {
  // Sensor-side and actuator-side confusion counts, per iteration.
  stats::ConfusionCounts sensor;
  stats::ConfusionCounts actuator;

  std::vector<DelayRecord> delays;

  // Sequence of distinct identified conditions over the mission, e.g.
  // "S0→S1" / "A0→A1" (Table II's "Detection Result" column).
  std::string sensor_condition_sequence;
  std::string actuator_condition_sequence;

  // Mean over the delays that resolved; nullopt when none were expected.
  std::optional<double> mean_delay_seconds() const;
  bool all_misbehaviors_detected() const;
};

// Scores one mission. `platform` supplies condition naming.
ScenarioScore score_mission(const MissionResult& result,
                            const Platform& platform);

// A mission that aborted instead of finishing: the record a sweep reports
// in place of a crash (docs/ROBUSTNESS.md §4).
struct MissionFailure {
  // 1-based control iteration at which the error fired; 0 = mission setup.
  std::size_t step = 0;
  std::string what;  // the underlying exception's message
};

// One mission flown and scored, or the failure that stopped it.
struct ContainedRun {
  MissionResult result;
  ScenarioScore score;
  // Set when the mission aborted; read `result` and `score` only when not.
  std::optional<MissionFailure> failure;
  bool failed() const { return failure.has_value(); }
};

// run_mission + score_mission, contained: the one mission runner behind
// every sweep (the table benches, shard jobs). A MissionError becomes a
// failure at its step and any other std::exception a failure at step 0;
// neither escapes. A failure at k >= 1 also freezes a "mission_failure"
// bundle of the mission's last window into config.instruments.recorder,
// when set. A setup failure opened no timeline, so it freezes nothing.
ContainedRun run_contained(const Platform& platform,
                           const attacks::Scenario& scenario,
                           const MissionConfig& config);

// Normalized anomaly-quantification error (§V-C: "the normalized average
// error of estimated sensor anomaly vector is 1.91%"): the error of the
// *time-averaged* anomaly estimate against the injected truth,
// ‖mean_k(d̂_k) − d‖ / ‖d‖, over iterations k ≥ from_iteration where an
// estimate exists. Averaging matches the paper's reported per-scenario
// quantification (e.g. "+0.069 m with a standard deviation of ±0.002 m"
// against a +0.07 m bomb). Works on the sensor block of `sensor_index`.
double sensor_quantification_error(const MissionResult& result,
                                   std::size_t sensor_index,
                                   const Vector& true_anomaly,
                                   std::size_t from_iteration);

double actuator_quantification_error(const MissionResult& result,
                                     const Vector& true_anomaly,
                                     std::size_t from_iteration);

}  // namespace roboads::eval

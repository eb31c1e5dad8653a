// End-to-end mission integration: RRT* plan → PID tracking → scenario
// injection → RoboADS detection → paper-style scoring, on both platforms.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "eval/khepera.h"
#include "eval/mission.h"
#include "eval/scoring.h"
#include "eval/tamiya.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "scenario/compile.h"
#include "scenario/library.h"

namespace roboads::eval {
namespace {

MissionConfig quick_config(std::uint64_t seed) {
  MissionConfig cfg;
  cfg.iterations = 200;
  cfg.seed = seed;
  return cfg;
}

TEST(KheperaMission, CleanRunRaisesNoAlarmsAndReachesGoal) {
  KheperaPlatform platform;
  const attacks::Scenario scenario = platform.clean_scenario();
  MissionConfig cfg = quick_config(101);
  cfg.iterations = 300;  // generous horizon; the mission ends at the goal
  const MissionResult result = run_mission(platform, scenario, cfg);
  ASSERT_GE(result.records.size(), 100u);
  ASSERT_LE(result.records.size(), 300u);

  const ScenarioScore score = score_mission(result, platform);
  // Paper §V-C: average FPR < 3%; a clean mission should be nearly silent.
  EXPECT_LT(score.sensor.false_positive_rate(), 0.03);
  EXPECT_LT(score.actuator.false_positive_rate(), 0.03);
  EXPECT_EQ(score.sensor.false_negatives, 0u);
  EXPECT_TRUE(result.goal_reached);
}

TEST(KheperaMission, StateEstimateTracksTruthOnCleanRun) {
  KheperaPlatform platform;
  const MissionResult result =
      run_mission(platform, platform.clean_scenario(), quick_config(7));
  double err_acc = 0.0;
  for (const IterationRecord& rec : result.records) {
    ASSERT_TRUE(rec.report.state_estimate.all_finite());
    if (rec.k < 5) continue;  // allow initial convergence
    const double err = std::hypot(rec.report.state_estimate[0] - rec.x_true[0],
                                  rec.report.state_estimate[1] - rec.x_true[1]);
    // The per-mode innovation keeps only m₂ − q degrees of freedom after
    // input compensation, so transient drift up to several cm is expected;
    // it must stay bounded and small on average.
    EXPECT_LT(err, 0.10) << "k=" << rec.k;
    err_acc += err;
  }
  EXPECT_LT(err_acc / static_cast<double>(result.records.size()), 0.03);
}

TEST(KheperaMission, IpsLogicBombDetectedAsS1) {
  KheperaPlatform platform;
  const attacks::Scenario scenario =
      scenario::compile_spec(scenario::khepera_table2_spec(3), platform);
  const MissionResult result =
      run_mission(platform, scenario, quick_config(202));
  const ScenarioScore score = score_mission(result, platform);

  EXPECT_TRUE(score.all_misbehaviors_detected());
  ASSERT_EQ(score.delays.size(), 1u);
  EXPECT_EQ(score.delays[0].label, "sensor:ips");
  // Paper Table II reports 0.30 s for this scenario; accept within ~1 s.
  EXPECT_LE(*score.delays[0].seconds, 1.0);
  // The identified condition sequence is the paper's S0→1.
  EXPECT_EQ(score.sensor_condition_sequence.rfind("S0→S1", 0), 0u);
  EXPECT_LT(score.sensor.false_negative_rate(), 0.10);
  EXPECT_LT(score.actuator.false_positive_rate(), 0.05);
}

TEST(KheperaMission, WheelLogicBombDetectedAsActuatorMisbehavior) {
  KheperaPlatform platform;
  const attacks::Scenario scenario =
      scenario::compile_spec(scenario::khepera_table2_spec(1), platform);
  const MissionResult result =
      run_mission(platform, scenario, quick_config(303));
  const ScenarioScore score = score_mission(result, platform);

  ASSERT_EQ(score.delays.size(), 1u);
  EXPECT_EQ(score.delays[0].label, "actuator");
  ASSERT_TRUE(score.delays[0].seconds.has_value());
  EXPECT_LE(*score.delays[0].seconds, 1.5);
  EXPECT_EQ(score.actuator_condition_sequence.rfind("A0→A1", 0), 0u);
  // No sensor is corrupted: the sensor side must stay quiet.
  EXPECT_LT(score.sensor.false_positive_rate(), 0.05);
}

TEST(KheperaMission, LidarDosDetectedAsS3) {
  KheperaPlatform platform;
  const attacks::Scenario scenario =
      scenario::compile_spec(scenario::khepera_table2_spec(6), platform);
  const MissionResult result =
      run_mission(platform, scenario, quick_config(404));
  const ScenarioScore score = score_mission(result, platform);
  ASSERT_EQ(score.delays.size(), 1u);
  EXPECT_EQ(score.delays[0].label, "sensor:lidar");
  ASSERT_TRUE(score.delays[0].seconds.has_value());
  EXPECT_LE(*score.delays[0].seconds, 1.0);
}

TEST(KheperaMission, TwoCorruptedSensorsStillIdentified) {
  // Scenario #11: wheel encoder then IPS — two of three sensors corrupted,
  // only LiDAR clean. Detection without majority voting (§V-C).
  KheperaPlatform platform;
  const attacks::Scenario scenario =
      scenario::compile_spec(scenario::khepera_table2_spec(11), platform);
  const MissionResult result =
      run_mission(platform, scenario, quick_config(505));
  const ScenarioScore score = score_mission(result, platform);

  ASSERT_EQ(score.delays.size(), 2u);
  EXPECT_TRUE(score.all_misbehaviors_detected());
  // Final condition: S6 (IPS + wheel encoder).
  const auto& seq = score.sensor_condition_sequence;
  EXPECT_NE(seq.find("S2"), std::string::npos) << seq;
  EXPECT_EQ(seq.substr(seq.size() - 2), "S6") << seq;
}

TEST(KheperaMission, AnomalyQuantificationMatchesInjectedMagnitude) {
  // §V-C: "IPS sensor anomaly vector estimates on the X axis is +0.069 m"
  // for a +0.07 m logic bomb — ~2% normalized error.
  KheperaPlatform platform;
  const attacks::Scenario scenario =
      scenario::compile_spec(scenario::khepera_table2_spec(3), platform);
  const MissionResult result =
      run_mission(platform, scenario, quick_config(606));
  const double err = sensor_quantification_error(
      result, KheperaPlatform::kIps, Vector{0.07, 0.0, 0.0}, 80);
  EXPECT_LT(err, 0.25);
}

TEST(KheperaMission, DeterministicPerSeed) {
  KheperaPlatform platform;
  const scenario::ScenarioSpec spec = scenario::khepera_table2_spec(4);
  const MissionResult a = run_mission(
      platform, scenario::compile_spec(spec, platform), quick_config(99));
  const MissionResult b = run_mission(
      platform, scenario::compile_spec(spec, platform), quick_config(99));
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].x_true, b.records[i].x_true);
    EXPECT_EQ(a.records[i].report.selected_mode,
              b.records[i].report.selected_mode);
  }
}

// A sweep flies its missions one after another through run_contained on one
// shared sink, as the table benches do. Each mission must hand back exactly
// what a lone, uninstrumented run_mission + score_mission produces: the
// shared instruments change what is recorded, never the outcome.
TEST(KheperaMission, BatchRunnerMatchesSerialRuns) {
  KheperaPlatform platform;
  const std::vector<std::size_t> scenarios = {4, 6, 1};
  obs::MetricsRegistry metrics;
  obs::FlightRecorder recorder(obs::FlightRecorderConfig{true, 32, 8});
  obs::Instruments shared;
  shared.metrics = &metrics;
  shared.recorder = &recorder;
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    SCOPED_TRACE("mission " + std::to_string(i));
    const scenario::ScenarioSpec spec =
        scenario::khepera_table2_spec(scenarios[i]);
    MissionConfig serial_config = quick_config(300 + i);
    serial_config.iterations = 120;
    MissionConfig swept_config = serial_config;
    swept_config.instruments = shared;
    swept_config.obs_label = spec.name + "/s" + std::to_string(300 + i);
    labels.push_back(swept_config.obs_label);

    const ContainedRun swept = run_contained(
        platform, scenario::compile_spec(spec, platform), swept_config);
    ASSERT_FALSE(swept.failed());
    const MissionResult serial = run_mission(
        platform, scenario::compile_spec(spec, platform), serial_config);
    ASSERT_EQ(swept.result.records.size(), serial.records.size());
    for (std::size_t k = 0; k < serial.records.size(); ++k) {
      EXPECT_EQ(swept.result.records[k].x_true, serial.records[k].x_true);
      EXPECT_EQ(swept.result.records[k].report.state_estimate,
                serial.records[k].report.state_estimate);
      EXPECT_EQ(swept.result.records[k].report.selected_mode,
                serial.records[k].report.selected_mode);
    }
    EXPECT_EQ(swept.result.goal_reached, serial.goal_reached);

    const ScenarioScore score = score_mission(serial, platform);
    EXPECT_EQ(swept.score.sensor_condition_sequence,
              score.sensor_condition_sequence);
    EXPECT_EQ(swept.score.actuator_condition_sequence,
              score.actuator_condition_sequence);
    const auto counts = [](const stats::ConfusionCounts& c) {
      return std::array<std::size_t, 4>{c.true_positives, c.false_positives,
                                        c.true_negatives, c.false_negatives};
    };
    EXPECT_EQ(counts(swept.score.sensor), counts(score.sensor));
    EXPECT_EQ(counts(swept.score.actuator), counts(score.actuator));
    ASSERT_EQ(swept.score.delays.size(), score.delays.size());
    for (std::size_t d = 0; d < score.delays.size(); ++d) {
      EXPECT_EQ(swept.score.delays[d].seconds, score.delays[d].seconds);
    }
  }
  // The attacked missions froze bundles into the shared recorder, each
  // attributed to its own mission.
  EXPECT_FALSE(recorder.bundles().empty());
  for (const obs::PostmortemBundle& bundle : recorder.bundles()) {
    EXPECT_NE(std::find(labels.begin(), labels.end(),
                        bundle.provenance.label),
              labels.end())
        << bundle.provenance.label;
  }
}

TEST(KheperaMission, LinearBaselineDegradesOverTime) {
  // §V-G: one-time linearization accumulates estimation error and produces
  // false positives the per-iteration relinearization avoids.
  KheperaPlatform platform;
  MissionConfig cfg = quick_config(77);
  cfg.linear_baseline = true;
  const MissionResult baseline =
      run_mission(platform, platform.clean_scenario(), cfg);
  const ScenarioScore baseline_score = score_mission(baseline, platform);

  const MissionResult ours =
      run_mission(platform, platform.clean_scenario(), quick_config(77));
  const ScenarioScore ours_score = score_mission(ours, platform);

  EXPECT_GT(baseline_score.sensor.false_positive_rate(),
            ours_score.sensor.false_positive_rate());
  EXPECT_GT(baseline_score.sensor.false_positive_rate(), 0.10);
}

TEST(TamiyaMission, CleanRunIsQuiet) {
  TamiyaPlatform platform;
  const MissionResult result =
      run_mission(platform, platform.clean_scenario(), quick_config(808));
  const ScenarioScore score = score_mission(result, platform);
  EXPECT_LT(score.sensor.false_positive_rate(), 0.05);
  EXPECT_LT(score.actuator.false_positive_rate(), 0.05);
}

TEST(TamiyaMission, SteeringTakeoverDetected) {
  TamiyaPlatform platform;
  const attacks::Scenario scenario = scenario::compile_spec(
      scenario::tamiya_battery_specs()[1], platform);  // T2
  const MissionResult result =
      run_mission(platform, scenario, quick_config(909));
  const ScenarioScore score = score_mission(result, platform);
  ASSERT_EQ(score.delays.size(), 1u);
  EXPECT_EQ(score.delays[0].label, "actuator");
  ASSERT_TRUE(score.delays[0].seconds.has_value());
  EXPECT_LE(*score.delays[0].seconds, 2.0);
}

TEST(TamiyaMission, IpsSpoofDetected) {
  TamiyaPlatform platform;
  const attacks::Scenario scenario = scenario::compile_spec(
      scenario::tamiya_battery_specs()[2], platform);  // T3
  const MissionResult result =
      run_mission(platform, scenario, quick_config(1010));
  const ScenarioScore score = score_mission(result, platform);
  ASSERT_EQ(score.delays.size(), 1u);
  EXPECT_EQ(score.delays[0].label, "sensor:ips");
  EXPECT_TRUE(score.all_misbehaviors_detected());
}

}  // namespace
}  // namespace roboads::eval

// Platform configuration validation: the shipped Khepera and Tamiya
// configurations must satisfy the structural requirements the detector
// relies on (observability, identifiability), and the scenario batteries
// (scenario/library.h) must be well-formed on them.
#include <gtest/gtest.h>

#include "core/observability.h"
#include "eval/khepera.h"
#include "eval/mission.h"
#include "eval/scoring.h"
#include "eval/tamiya.h"
#include "scenario/compile.h"
#include "scenario/library.h"

namespace roboads::eval {
namespace {

TEST(KheperaPlatform, ShippedModesPassObservabilityChecks) {
  KheperaPlatform platform;
  const auto modes = core::one_reference_per_sensor(platform.suite());
  const auto diags = core::diagnose_modes(
      platform.model(), platform.suite(), modes, platform.initial_state(),
      Vector{0.05, 0.06}, /*throw_on_unobservable=*/true);
  for (const core::ModeDiagnostics& d : diags) {
    EXPECT_TRUE(d.observable) << d.mode_label;
    EXPECT_TRUE(d.input_identifiable) << d.mode_label;
  }
}

TEST(TamiyaPlatform, ShippedModesPassObservabilityChecks) {
  TamiyaPlatform platform;
  const auto diags = core::diagnose_modes(
      platform.model(), platform.suite(), platform.detector_modes(),
      platform.initial_state(), Vector{0.5, 0.1},
      /*throw_on_unobservable=*/true);
  for (const core::ModeDiagnostics& d : diags) {
    EXPECT_TRUE(d.observable) << d.mode_label;
    EXPECT_TRUE(d.input_identifiable) << d.mode_label;
  }
}

TEST(KheperaPlatform, TableTwoScenariosAreWellFormed) {
  KheperaPlatform platform;
  const auto specs = scenario::khepera_table2_specs();
  ASSERT_EQ(specs.size(), 11u);
  for (const scenario::ScenarioSpec& spec : specs) {
    const attacks::Scenario s = scenario::compile_spec(spec, platform);
    EXPECT_FALSE(s.name().empty());
    EXPECT_FALSE(s.description().empty());
    EXPECT_FALSE(s.attachments().empty()) << s.name();
    // Every scenario eventually reaches a misbehaving condition.
    bool misbehaves = false;
    for (std::size_t k = 0; k < 250; ++k) {
      if (!s.truth_at(k, platform.suite()).clean()) {
        misbehaves = true;
        break;
      }
    }
    EXPECT_TRUE(misbehaves) << s.name();
  }
  EXPECT_THROW(scenario::khepera_table2_spec(0), scenario::SpecError);
  EXPECT_THROW(scenario::khepera_table2_spec(12), scenario::SpecError);
}

TEST(KheperaPlatform, ScenarioTruthMatchesTableTwoConditions) {
  KheperaPlatform platform;
  const sensors::SensorSuite& suite = platform.suite();
  const auto table2 = [&platform](std::size_t n) {
    return scenario::compile_spec(scenario::khepera_table2_spec(n), platform);
  };
  // #3 IPS logic bomb: sensor-only, IPS.
  {
    const auto s = table2(3);
    const auto t = s.truth_at(100, suite);
    EXPECT_EQ(t.corrupted_sensors,
              (std::vector<std::size_t>{KheperaPlatform::kIps}));
    EXPECT_FALSE(t.actuator_corrupted);
  }
  // #9: encoder from 60, LiDAR DoS from 120 (S2 → S4).
  {
    const auto s = table2(9);
    EXPECT_EQ(s.truth_at(80, suite).corrupted_sensors,
              (std::vector<std::size_t>{KheperaPlatform::kWheelEncoder}));
    EXPECT_EQ(s.truth_at(150, suite).corrupted_sensors,
              (std::vector<std::size_t>{KheperaPlatform::kWheelEncoder,
                                        KheperaPlatform::kLidar}));
  }
  // #10: LiDAR window closes at 180 (S5 → S1).
  {
    const auto s = table2(10);
    EXPECT_EQ(s.truth_at(150, suite).corrupted_sensors,
              (std::vector<std::size_t>{KheperaPlatform::kIps,
                                        KheperaPlatform::kLidar}));
    EXPECT_EQ(s.truth_at(200, suite).corrupted_sensors,
              (std::vector<std::size_t>{KheperaPlatform::kIps}));
  }
  // #1 actuator-only.
  {
    const auto s = table2(1);
    const auto t = s.truth_at(100, suite);
    EXPECT_TRUE(t.actuator_corrupted);
    EXPECT_TRUE(t.corrupted_sensors.empty());
  }
}

TEST(KheperaPlatform, ExtendedScenariosAreWellFormed) {
  KheperaPlatform platform;
  const auto specs = scenario::khepera_extended_specs();
  ASSERT_EQ(specs.size(), 5u);
  for (const scenario::ScenarioSpec& spec : specs) {
    const attacks::Scenario s = scenario::compile_spec(spec, platform);
    EXPECT_FALSE(s.attachments().empty()) << s.name();
  }
}

TEST(TamiyaPlatform, BatteryIsWellFormed) {
  TamiyaPlatform platform;
  const auto specs = scenario::tamiya_battery_specs();
  ASSERT_EQ(specs.size(), 7u);
  for (const scenario::ScenarioSpec& spec : specs) {
    const attacks::Scenario s = scenario::compile_spec(spec, platform);
    EXPECT_FALSE(s.name().empty());
    EXPECT_FALSE(s.attachments().empty()) << s.name();
  }
}

TEST(Platforms, WorldsContainStartAndGoal) {
  KheperaPlatform khepera;
  EXPECT_TRUE(khepera.world().free(
      {khepera.initial_state()[0], khepera.initial_state()[1]},
      khepera.robot_radius()));
  EXPECT_TRUE(khepera.world().free(khepera.goal(), khepera.robot_radius()));

  TamiyaPlatform tamiya;
  EXPECT_TRUE(tamiya.world().free(
      {tamiya.initial_state()[0], tamiya.initial_state()[1]},
      tamiya.robot_radius()));
  EXPECT_TRUE(tamiya.world().free(tamiya.goal(), tamiya.robot_radius()));
}

TEST(Platforms, SuiteNamesMatchWorkflowNames) {
  // The scenario → workflow plumbing keys on names; a mismatch would make
  // attacks silently miss their targets.
  KheperaPlatform khepera;
  auto sensing = khepera.make_sensing(khepera.clean_scenario());
  for (std::size_t s = 0; s < khepera.suite().count(); ++s) {
    EXPECT_EQ(sensing.workflows()[s]->name(),
              khepera.suite().sensor(s).name());
    EXPECT_EQ(sensing.workflows()[s]->dim(), khepera.suite().sensor(s).dim());
  }
  TamiyaPlatform tamiya;
  auto t_sensing = tamiya.make_sensing(tamiya.clean_scenario());
  for (std::size_t s = 0; s < tamiya.suite().count(); ++s) {
    EXPECT_EQ(t_sensing.workflows()[s]->name(),
              tamiya.suite().sensor(s).name());
  }
}

TEST(ExtendedMissions, StuckAtReplayDetectedAndRecovered) {
  KheperaPlatform platform;
  MissionConfig cfg;
  cfg.iterations = 250;
  cfg.seed = 7100;
  const MissionResult result = run_mission(
      platform,
      scenario::compile_spec(scenario::khepera_extended_specs()[0], platform),
      cfg);
  const ScenarioScore score = score_mission(result, platform);
  // Detected while frozen, condition returns to S0 after release.
  EXPECT_NE(score.sensor_condition_sequence.find("S1"), std::string::npos);
  EXPECT_EQ(score.sensor_condition_sequence.substr(
                score.sensor_condition_sequence.size() - 2),
            "S0");
  EXPECT_LT(score.sensor.false_positive_rate(), 0.05);
}

TEST(ExtendedMissions, CoordinatedAttackEndsAtS6) {
  KheperaPlatform platform;
  MissionConfig cfg;
  cfg.iterations = 250;
  cfg.seed = 7103;
  const MissionResult result = run_mission(
      platform,
      scenario::compile_spec(scenario::khepera_extended_specs()[3], platform),
      cfg);
  const ScenarioScore score = score_mission(result, platform);
  const auto& seq = score.sensor_condition_sequence;
  EXPECT_EQ(seq.substr(seq.size() - 2), "S6") << seq;
  EXPECT_TRUE(score.all_misbehaviors_detected());
}

}  // namespace
}  // namespace roboads::eval

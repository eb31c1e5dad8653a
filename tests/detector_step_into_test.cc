// Stale-state oracle for the in-place detector step (docs/PERFORMANCE.md
// "In-place detector step").
//
// RoboAds::step_into writes into a report that may hold another detector's
// last step, and steps its engine into per-mode slots that every detector
// on the thread shares. Here one report on one thread takes the steps of
// two Khepera detectors with different histories and a Tamiya detector, in
// turn, through selected-mode changes, masked steps (a degraded testing
// group and a prediction-only step), a non-finite reading, the containment
// floor and sensor alarms rising and falling. After every step_into the
// report must equal, field for field and bit for bit (result_diff.h), the
// report a twin detector fed the same inputs returns from step() on a
// thread that has never stepped, so that neither the report nor the
// engine's slots carry anything over.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/roboads.h"
#include "eval/khepera.h"
#include "eval/mission.h"
#include "eval/tamiya.h"
#include "result_diff.h"
#include "scenario/compile.h"
#include "scenario/library.h"

namespace roboads::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// One detector under test and its twin, replaying a recorded mission's
// inputs from record `step` on.
struct Lane {
  std::string name;
  const eval::MissionResult* mission = nullptr;
  std::unique_ptr<RoboAds> detector;
  std::unique_ptr<RoboAds> twin;
  std::size_t step = 0;
  std::size_t mode = 0;  // the lane's last selected mode
  bool alarm = false;    // and sensor alarm
};

// The inputs each lane meets once, at its own round, on top of the
// recorded ones.
enum class Perturbation {
  kNone,
  kMaskTesting,     // the selected mode's first testing sensor missing
  kPredictionOnly,  // every sensor missing
  kNonFinite,       // one reading NaN: the monitor masks its sensor
  kContainment,     // a NaN command: every mode fails supervision
};

Perturbation perturbation_at(std::size_t at) {
  switch (at) {
    case 50: case 90: return Perturbation::kMaskTesting;
    case 51: return Perturbation::kPredictionOnly;
    case 52: return Perturbation::kNonFinite;
    case 53: return Perturbation::kContainment;
    default: return Perturbation::kNone;
  }
}

Lane make_lane(std::string name, const eval::Platform& platform,
               const eval::MissionResult& mission) {
  const eval::DetectorSetup setup(platform, /*linear_baseline=*/false);
  const auto build = [&] {
    return std::make_unique<RoboAds>(
        setup.model(), setup.suite(), platform.process_cov(),
        platform.initial_state(), setup.p0(), platform.detector_config(),
        platform.detector_modes());
  };
  Lane lane;
  lane.name = std::move(name);
  lane.mission = &mission;
  lane.detector = build();
  lane.twin = build();
  return lane;
}

eval::MissionResult fly(const eval::Platform& platform,
                        const scenario::ScenarioSpec& spec,
                        std::uint64_t seed) {
  eval::MissionConfig config;
  config.seed = seed;
  return eval::run_mission(platform, scenario::compile_spec(spec, platform),
                           config);
}

// The twin's by-value step on a thread of its own: its thread_local engine
// result and everything the step builds start fresh.
DetectionReport fresh_step(RoboAds& twin, const Vector& u, const Vector& z,
                           SensorMask mask) {
  DetectionReport out;
  std::thread([&] { out = twin.step(u, z, mask); }).join();
  return out;
}

TEST(DetectorStepInto, ReusedReportEqualsAFreshStepOnATwin) {
  const eval::KheperaPlatform khepera;
  const eval::TamiyaPlatform tamiya;
  const eval::MissionResult k8 =
      fly(khepera, scenario::khepera_table2_spec(8), 308);
  const eval::MissionResult k10 =
      fly(khepera, scenario::khepera_table2_spec(10), 310);
  const eval::MissionResult t1 =
      fly(tamiya, scenario::tamiya_battery_specs().front(), 401);
  std::vector<Lane> lanes;
  lanes.push_back(make_lane("khepera #8", khepera, k8));
  lanes.push_back(make_lane("khepera #10", khepera, k10));
  lanes.push_back(make_lane("tamiya T1", tamiya, t1));
  // Different histories: the second Khepera starts 40 iterations in.
  for (; lanes[1].step < 40; ++lanes[1].step) {
    const eval::IterationRecord& rec = k10.records[lanes[1].step];
    lanes[1].detector->step(rec.u_planned, rec.z, rec.sensor_available);
    lanes[1].twin->step(rec.u_planned, rec.z, rec.sensor_available);
  }
  std::size_t rounds = std::numeric_limits<std::size_t>::max();
  for (const Lane& lane : lanes) {
    rounds = std::min(rounds, lane.mission->records.size() - lane.step);
  }
  ASSERT_GT(rounds, 90u);

  // What the schedule must reach for the oracle to mean anything.
  std::size_t mode_changes = 0, alarm_rises = 0, alarm_falls = 0;
  std::size_t attributions_cleared = 0, degraded_testing = 0;
  std::size_t prediction_only = 0, nonfinite = 0, containment = 0;

  DetectionReport report;  // the one reused report
  bool had_misbehaving = false;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      Lane& lane = lanes[l];
      const eval::IterationRecord& rec = lane.mission->records[lane.step++];
      const sensors::SensorSuite& suite = lane.detector->bank().suite();
      Vector u = rec.u_planned;
      Vector z = rec.z;
      SensorMask mask = rec.sensor_available;
      // Each lane meets the perturbations at its own round, after its own
      // history.
      const Perturbation perturbation = perturbation_at(round + 15 * l);
      switch (perturbation) {
        case Perturbation::kNone:
          break;
        case Perturbation::kMaskTesting: {
          const Mode& mode = lane.detector->modes()[lane.mode];
          mask = SensorMask{};
          if (!mode.testing.empty()) mask.set_missing(mode.testing.front());
          break;
        }
        case Perturbation::kPredictionOnly:
          for (std::size_t i = 0; i < suite.count(); ++i) mask.set_missing(i);
          break;
        case Perturbation::kNonFinite:
          z[suite.offset(suite.count() - 1)] = kNaN;
          break;
        case Perturbation::kContainment:
          u[0] = kNaN;
          break;
      }

      lane.detector->step_into(u, z, mask, report);
      const DetectionReport fresh = fresh_step(*lane.twin, u, z, mask);
      const std::string diff = diff_reports(report, fresh);
      ASSERT_TRUE(diff.empty()) << lane.name << " record " << lane.step - 1
                                << " (round " << round << "): " << diff;

      const NuiseResult& selected = report.selected_result;
      mode_changes += report.selected_mode != lane.mode;
      lane.mode = report.selected_mode;
      alarm_rises += report.decision.sensor_alarm && !lane.alarm;
      alarm_falls += !report.decision.sensor_alarm && lane.alarm;
      lane.alarm = report.decision.sensor_alarm;
      const bool misbehaving = !report.decision.misbehaving_sensors.empty();
      attributions_cleared += had_misbehaving && !misbehaving;
      had_misbehaving = misbehaving;
      degraded_testing += perturbation == Perturbation::kMaskTesting &&
                          selected.degraded && selected.correction_applied &&
                          !selected.active_testing.empty();
      prediction_only += perturbation == Perturbation::kPredictionOnly &&
                         !selected.correction_applied;
      nonfinite += perturbation == Perturbation::kNonFinite &&
                   !report.sensor_available.available(suite.count() - 1);
      containment += perturbation == Perturbation::kContainment &&
                     selected.degraded && selected.active_testing.empty() &&
                     !selected.correction_applied;
    }
  }
  EXPECT_GT(mode_changes, 0u);
  EXPECT_GT(alarm_rises, 0u);
  EXPECT_GT(alarm_falls, 0u);
  EXPECT_GT(attributions_cleared, 0u);
  EXPECT_GT(degraded_testing, 0u);
  EXPECT_EQ(prediction_only, lanes.size());
  EXPECT_EQ(nonfinite, lanes.size());
  EXPECT_EQ(containment, lanes.size());
}

}  // namespace
}  // namespace roboads::core

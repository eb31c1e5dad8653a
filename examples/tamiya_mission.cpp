// Tamiya RC-car mission (§V-D): the same RoboADS pipeline on a robot with a
// distinctive dynamic model — kinematic bicycle steering, pair-reference
// mode set, and the car-flavored attack battery.
//
//   ./build/examples/tamiya_mission [scenario 1..7]   (default: 2,
//                                                      steering takeover)
#include <cstdio>
#include <string>

#include "common/parse.h"
#include "eval/mission.h"
#include "eval/scoring.h"
#include "eval/tamiya.h"
#include "scenario/compile.h"
#include "scenario/library.h"

using namespace roboads;
using namespace roboads::eval;

namespace {

int usage_error(const char* argv0, const std::string& message,
                std::size_t count) {
  std::fprintf(stderr, "%s: %s\nusage: %s [scenario 1..%zu]\n", argv0,
               message.c_str(), argv0, count);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto battery = scenario::tamiya_battery_specs();
  if (argc > 2) {
    return usage_error(argv[0], "too many arguments", battery.size());
  }
  std::size_t index = 2;
  if (argc > 1) {
    const auto parsed = common::parse_u64(argv[1]);
    if (!parsed || *parsed < 1 || *parsed > battery.size()) {
      return usage_error(argv[0],
                         "scenario must be 1.." +
                             std::to_string(battery.size()) + ", got \"" +
                             argv[1] + "\"",
                         battery.size());
    }
    index = static_cast<std::size_t>(*parsed);
  }
  TamiyaPlatform platform;
  const attacks::Scenario scenario =
      scenario::compile_spec(battery[index - 1], platform);
  std::printf("scenario %s\n  %s\n\n", scenario.name().c_str(),
              scenario.description().c_str());

  MissionConfig cfg;
  cfg.iterations = 250;
  cfg.seed = 99;
  const MissionResult result = run_mission(platform, scenario, cfg);
  const ScenarioScore score = score_mission(result, platform);

  std::printf("t[s]   position (x, y)    θ      mode            "
              "sensor-stat  act-stat  alarms\n");
  for (const IterationRecord& rec : result.records) {
    if (rec.k % 20 != 0) continue;
    const auto& d = rec.report.decision;
    std::printf("%5.1f  (%5.2f, %5.2f)  %+5.2f  %-15s %9.1f %9.1f  %s%s\n",
                static_cast<double>(rec.k) * result.dt, rec.x_true[0],
                rec.x_true[1], rec.x_true[2],
                rec.report.selected_mode_label.c_str(), d.sensor_statistic,
                d.actuator_statistic, d.sensor_alarm ? "S" : "-",
                d.actuator_alarm ? "A" : "-");
  }

  std::printf("\nmission %s after %.1f s\n",
              result.goal_reached ? "completed" : "did not reach the goal",
              static_cast<double>(result.records.size()) * result.dt);
  std::printf("identified: %s | %s\n", score.sensor_condition_sequence.c_str(),
              score.actuator_condition_sequence.c_str());
  for (const DelayRecord& d : score.delays) {
    std::printf("  %-16s detected %s\n", d.label.c_str(),
                d.seconds ? (std::to_string(*d.seconds) + " s after trigger")
                              .c_str()
                          : "NEVER");
  }
  return 0;
}

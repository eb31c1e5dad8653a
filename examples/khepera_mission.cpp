// Full Khepera mission under attack: RRT* planning, PID path tracking, a
// Table II attack scenario, live RoboADS detection, and an ASCII rendering
// of the arena with the driven trajectory.
//
//   ./build/examples/khepera_mission [scenario 1..11]
//     scenario: default 4, IPS spoofing
#include <cstdio>
#include <string>
#include <vector>

#include "common/parse.h"
#include "eval/khepera.h"
#include "eval/mission.h"
#include "eval/scoring.h"
#include "scenario/compile.h"
#include "scenario/library.h"

using namespace roboads;
using namespace roboads::eval;

namespace {

void render_arena(const KheperaPlatform& platform,
                  const MissionResult& result) {
  constexpr int kCols = 64;
  constexpr int kRows = 24;
  const double w = platform.world().width();
  const double h = platform.world().height();
  std::vector<std::string> grid(kRows, std::string(kCols, ' '));

  auto plot = [&](double x, double y, char c) {
    const int col = static_cast<int>(x / w * (kCols - 1));
    const int row = (kRows - 1) - static_cast<int>(y / h * (kRows - 1));
    if (col >= 0 && col < kCols && row >= 0 && row < kRows) {
      grid[static_cast<std::size_t>(row)][static_cast<std::size_t>(col)] = c;
    }
  };

  for (const geom::Aabb& o : platform.world().obstacles()) {
    for (double x = o.min.x; x <= o.max.x; x += w / kCols) {
      for (double y = o.min.y; y <= o.max.y; y += h / kRows) {
        plot(x, y, '#');
      }
    }
  }
  for (const IterationRecord& rec : result.records) {
    const bool alarmed = rec.report.decision.sensor_alarm ||
                         rec.report.decision.actuator_alarm;
    plot(rec.x_true[0], rec.x_true[1], alarmed ? '!' : '.');
  }
  plot(platform.initial_state()[0], platform.initial_state()[1], 'S');
  plot(platform.goal().x, platform.goal().y, 'G');

  std::printf("+%s+\n", std::string(kCols, '-').c_str());
  for (const std::string& row : grid) std::printf("|%s|\n", row.c_str());
  std::printf("+%s+\n", std::string(kCols, '-').c_str());
  std::printf("S start, G goal, # obstacle, . clean trajectory, "
              "! alarm raised\n");
}

int usage_error(const char* argv0, const std::string& message) {
  std::fprintf(stderr, "%s: %s\nusage: %s [scenario 1..11]\n",
               argv0, message.c_str(), argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 2) return usage_error(argv[0], "too many arguments");
  std::size_t scenario_number = 4;
  if (argc > 1) {
    const auto parsed = common::parse_u64(argv[1]);
    if (!parsed || *parsed < 1 || *parsed > 11) {
      return usage_error(argv[0], "scenario must be 1..11, got \"" +
                                      std::string(argv[1]) + "\"");
    }
    scenario_number = static_cast<std::size_t>(*parsed);
  }

  KheperaPlatform platform;
  const attacks::Scenario scenario = scenario::compile_spec(
      scenario::khepera_table2_spec(scenario_number), platform);
  std::printf("scenario %s\n  %s\n\n", scenario.name().c_str(),
              scenario.description().c_str());

  MissionConfig cfg;
  cfg.iterations = 250;
  cfg.seed = 2024;
  const MissionResult result = run_mission(platform, scenario, cfg);
  const ScenarioScore score = score_mission(result, platform);

  render_arena(platform, result);

  std::printf("\nmission: %zu iterations (%.1f s), goal %s\n",
              result.records.size(),
              static_cast<double>(result.records.size()) * result.dt,
              result.goal_reached ? "reached" : "NOT reached");
  std::printf("identified conditions: %s | %s\n",
              score.sensor_condition_sequence.c_str(),
              score.actuator_condition_sequence.c_str());
  for (const DelayRecord& d : score.delays) {
    std::printf("  %-16s triggered at %.1f s, detected %s\n", d.label.c_str(),
                static_cast<double>(d.triggered_at) * result.dt,
                d.seconds ? (std::to_string(*d.seconds) + " s later").c_str()
                          : "NEVER");
  }
  std::printf("sensor FPR/FNR: %.2f%% / %.2f%%, actuator FPR/FNR: "
              "%.2f%% / %.2f%%\n",
              100.0 * score.sensor.false_positive_rate(),
              100.0 * score.sensor.false_negative_rate(),
              100.0 * score.actuator.false_positive_rate(),
              100.0 * score.actuator.false_negative_rate());
  return 0;
}

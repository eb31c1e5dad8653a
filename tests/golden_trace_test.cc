// Golden-trace regression: seeded missions are serialized through the trace
// I/O layer and compared field-by-field against checked-in CSVs, with
// per-field-class tolerances. Any refactor of the NUISE/engine numerics
// that shifts the outputs beyond formatting noise fails here loudly instead
// of silently bending the paper's figures. Two missions are pinned:
//   - the Fig.-6/Scenario-8 Khepera run (differential drive), and
//   - the T3 IPS-spoofing Tamiya run (kinematic bicycle), so both dynamic
//     models and both platform sensor stacks are covered.
//
// Regenerate after an *intentional* numeric change with:
//   GOLDEN_REGEN=1 ./build/tests/golden_trace_test
// and review the diff of tests/data/golden_*.csv like code.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "eval/khepera.h"
#include "eval/mission.h"
#include "eval/tamiya.h"
#include "eval/trace_io.h"
#include "scenario/compile.h"
#include "scenario/library.h"

namespace roboads::eval {
namespace {

#ifndef ROBOADS_GOLDEN_DIR
#error "ROBOADS_GOLDEN_DIR must point at tests/data"
#endif

// The recorded Khepera run: scenario #8 (IPS logic bomb ~4 s + wheel-
// controller logic bomb ~10 s), seed 88, 20 s — exactly the Fig. 6
// reproduction.
std::string khepera_trace() {
  KheperaPlatform platform;
  MissionConfig cfg;
  cfg.iterations = 200;
  cfg.seed = 88;
  const MissionResult mission = run_mission(
      platform,
      scenario::compile_spec(scenario::khepera_table2_spec(8), platform), cfg);
  std::ostringstream os;
  write_trace_csv(os, mission, platform);
  return os.str();
}

// The recorded Tamiya run: T3 IPS spoofing (fake positioning base shifts Y
// by -0.15 m), seed 19, 18 s — the bicycle-dynamics counterpart.
std::string tamiya_trace() {
  TamiyaPlatform platform;
  MissionConfig cfg;
  cfg.iterations = 180;
  cfg.seed = 19;
  const MissionResult mission = run_mission(
      platform,
      scenario::compile_spec(scenario::tamiya_battery_specs()[2], platform),
      cfg);
  std::ostringstream os;
  write_trace_csv(os, mission, platform);
  return os.str();
}

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> out;
  std::stringstream ss(line);
  std::string field;
  while (std::getline(ss, field, ',')) out.push_back(field);
  return out;
}

// Per-field tolerance classes, keyed on the header name. Integer-valued
// fields (mode indices, alarm flags, ground-truth masks) must match
// exactly; χ² statistics amplify estimate shifts, so they get the loosest
// band; everything else (states, commands, anomaly estimates) sits at the
// trace's own formatting resolution.
struct Tolerance {
  double abs = 0.0;
  double rel = 0.0;
};

Tolerance tolerance_for(const std::string& column) {
  auto has_prefix = [&](const char* p) { return column.rfind(p, 0) == 0; };
  if (column == "selected_mode" || column == "sensor_alarm" ||
      column == "act_alarm" || column == "truth_sensors" ||
      column == "truth_actuator" || column == "collided" || column == "t") {
    return {0.0, 0.0};
  }
  if (column == "sensor_stat" || column == "act_stat") {
    return {1e-3, 1e-3};
  }
  if (column == "sensor_thresh" || column == "act_thresh") {
    return {1e-9, 1e-9};
  }
  // x_true_*, u_planned_*, u_executed_*, x_hat_*, ds_*, da_*.
  (void)has_prefix;
  return {2e-5, 1e-3};
}

// Compares `current` to the checked-in golden at `path`, or rewrites the
// golden when GOLDEN_REGEN is set.
void check_against_golden(const std::string& current, const std::string& path,
                          std::size_t min_rows) {
  if (std::getenv("GOLDEN_REGEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << current;
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream golden_file(path);
  ASSERT_TRUE(golden_file.good())
      << "missing golden file " << path
      << " — run with GOLDEN_REGEN=1 to create it";

  std::istringstream current_stream(current);
  std::string golden_line, current_line;

  // '#'-prefixed lines are schema/version comments (eval/trace_io.h), not
  // data: skip them on both sides so comment wording can evolve freely.
  const auto next_data_line = [](std::istream& is, std::string& line) {
    while (std::getline(is, line)) {
      if (line.empty() || line[0] != '#') return true;
    }
    return false;
  };

  // Header must match exactly: a column-layout change is a breaking change
  // to the trace format, not numeric drift.
  ASSERT_TRUE(next_data_line(golden_file, golden_line));
  ASSERT_TRUE(next_data_line(current_stream, current_line));
  ASSERT_EQ(golden_line, current_line) << "trace column layout changed";
  const std::vector<std::string> columns = split_csv(golden_line);

  std::size_t row = 1;
  while (next_data_line(golden_file, golden_line)) {
    ASSERT_TRUE(next_data_line(current_stream, current_line))
        << "trace truncated at row " << row;
    const std::vector<std::string> golden = split_csv(golden_line);
    const std::vector<std::string> got = split_csv(current_line);
    ASSERT_EQ(golden.size(), columns.size()) << "malformed golden row " << row;
    ASSERT_EQ(got.size(), columns.size()) << "malformed trace row " << row;
    for (std::size_t c = 0; c < columns.size(); ++c) {
      const Tolerance tol = tolerance_for(columns[c]);
      const double want = std::stod(golden[c]);
      const double have = std::stod(got[c]);
      const double bound =
          tol.abs + tol.rel * std::max(std::abs(want), std::abs(have));
      EXPECT_LE(std::abs(have - want), bound)
          << "row " << row << " column '" << columns[c] << "': golden "
          << golden[c] << " vs current " << got[c];
    }
    ++row;
  }
  EXPECT_FALSE(next_data_line(current_stream, current_line))
      << "trace grew past the golden file at row " << row;
  EXPECT_GE(row, min_rows) << "golden mission ended suspiciously early";
}

TEST(GoldenTrace, Scenario8MatchesCheckedInGolden) {
  check_against_golden(khepera_trace(),
                       ROBOADS_GOLDEN_DIR "/golden_scenario8.csv", 150u);
}

TEST(GoldenTrace, TamiyaIpsSpoofMatchesCheckedInGolden) {
  check_against_golden(tamiya_trace(),
                       ROBOADS_GOLDEN_DIR "/golden_tamiya_t3.csv", 120u);
}

}  // namespace
}  // namespace roboads::eval

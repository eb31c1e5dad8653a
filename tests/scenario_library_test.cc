// Golden outcomes of the built-in scenario library: each of the 23 library
// specs (Table II #1..#11, extended X1..X5, Tamiya T1..T7) is flown at its
// legacy bench seed for 250 iterations and pinned by the 64-bit FNV-1a hash
// of its full trace CSV (every column of every iteration) plus its scored
// outcome (condition sequences, confusion counts, detection delays). The
// library is the only definition of these scenarios, so this file is what
// keeps the bench tables and paper numbers built on them meaning the same
// thing.
//
// Regenerate after an *intentional* change with:
//   GOLDEN_REGEN=1 ./build/tests/scenario_library_test
// and review the diff of tests/data/library_outcomes.txt like code.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/trace_io.h"
#include "scenario/compile.h"
#include "scenario/library.h"

namespace roboads::scenario {
namespace {

#ifndef ROBOADS_GOLDEN_DIR
#error "ROBOADS_GOLDEN_DIR must point at tests/data"
#endif

constexpr const char* kGoldenPath = ROBOADS_GOLDEN_DIR "/library_outcomes.txt";

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string counts(const stats::ConfusionCounts& c) {
  return std::to_string(c.true_positives) + "/" +
         std::to_string(c.false_positives) + "/" +
         std::to_string(c.true_negatives) + "/" +
         std::to_string(c.false_negatives);
}

// One golden line, tab-separated: name, seed, trace hash, sensor and
// actuator condition sequences, sensor and actuator tp/fp/tn/fn, and the
// delays as label@trigger=seconds (exact %.17g) or label@trigger=miss.
std::string outcome_line(ScenarioSpec spec, std::uint64_t seed) {
  spec.seed = seed;
  spec.iterations = 250;
  const eval::ContainedRun run = fly_spec(spec);
  // A failed mission fails the test (and writes no golden) rather than
  // pinning an empty trace.
  if (run.failed()) {
    throw std::runtime_error(spec.name + ": mission failed at step " +
                             std::to_string(run.failure->step) + ": " +
                             run.failure->what);
  }
  std::ostringstream csv;
  eval::write_trace_csv(csv, run.result, *make_platform(spec.platform));

  char hash[17];
  std::snprintf(hash, sizeof hash, "%016" PRIx64, fnv1a64(csv.str()));
  std::string line = spec.name + '\t' + std::to_string(seed) + '\t' + hash +
                     '\t' + run.score.sensor_condition_sequence + '\t' +
                     run.score.actuator_condition_sequence + '\t' +
                     counts(run.score.sensor) + '\t' +
                     counts(run.score.actuator) + '\t';
  for (std::size_t i = 0; i < run.score.delays.size(); ++i) {
    const eval::DelayRecord& d = run.score.delays[i];
    char seconds[32] = "miss";
    if (d.seconds) std::snprintf(seconds, sizeof seconds, "%.17g", *d.seconds);
    if (i > 0) line += ';';
    line += d.label + '@' + std::to_string(d.triggered_at) + '=' + seconds;
  }
  return line;
}

// The golden file's lines: a column header, then one line per spec.
std::vector<std::string> library_outcomes() {
  std::vector<std::string> lines = {
      "name\tseed\tfnv1a64(trace csv)\tsensor sequence\tactuator sequence\t"
      "sensor tp/fp/tn/fn\tactuator tp/fp/tn/fn\tdelays"};
  // Legacy bench seeds: bench/table2_khepera_scenarios (1000 + n),
  // bench/extended_scenarios (7100 + i), bench/tamiya_scenarios (9000 + i).
  for (std::size_t n = 1; n <= 11; ++n) {
    lines.push_back(outcome_line(khepera_table2_spec(n), 1000 + n));
  }
  const std::vector<ScenarioSpec> extended = khepera_extended_specs();
  for (std::size_t i = 0; i < extended.size(); ++i) {
    lines.push_back(outcome_line(extended[i], 7100 + i));
  }
  const std::vector<ScenarioSpec> tamiya = tamiya_battery_specs();
  for (std::size_t i = 0; i < tamiya.size(); ++i) {
    lines.push_back(outcome_line(tamiya[i], 9000 + i));
  }
  return lines;
}

TEST(ScenarioLibrary, OutcomesMatchCheckedInGolden) {
  const std::vector<std::string> current = library_outcomes();
  ASSERT_EQ(current.size(), 1u + 23u);

  if (std::getenv("GOLDEN_REGEN") != nullptr) {
    std::ofstream out(kGoldenPath);
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
    for (const std::string& line : current) out << line << '\n';
    GTEST_SKIP() << "regenerated " << kGoldenPath;
  }

  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in.good()) << "missing golden file " << kGoldenPath
                         << " — run with GOLDEN_REGEN=1 to create it";
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) golden.push_back(line);
  ASSERT_EQ(golden.size(), current.size());
  for (std::size_t i = 0; i < current.size(); ++i) {
    EXPECT_EQ(current[i], golden[i]);
  }
}

}  // namespace
}  // namespace roboads::scenario

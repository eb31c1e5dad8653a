// Trace-sink tests (src/obs/trace.h): the golden JSONL schema pin for an
// instrumented Khepera scenario-8 mission, serial-vs-parallel trace
// determinism, the documented "iteration" field layout, and the CSV
// flattening rules.
//
// The golden comparison pins the *schema* — line count, event ordering, key
// order, value kinds, vector lengths — not the numeric payloads, which are
// already regression-pinned (with tolerances) by golden_trace_test. After an
// intentional schema change regenerate with:
//   GOLDEN_REGEN=1 ./build/tests/obs_trace_test
// and review the diff of tests/data/golden_obs_trace.jsonl like code.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "eval/khepera.h"
#include "eval/mission.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "scenario/compile.h"
#include "scenario/library.h"

namespace roboads::obs {
namespace {

#ifndef ROBOADS_GOLDEN_DIR
#error "ROBOADS_GOLDEN_DIR must point at tests/data"
#endif

// The pinned run: Khepera scenario #8 (the Fig.-6 mission), seed 88,
// shortened to keep the golden reviewable while still crossing the first
// injected-misbehavior window.
eval::MissionConfig golden_mission_config(Instruments instruments) {
  eval::MissionConfig cfg;
  cfg.iterations = 60;
  cfg.seed = 88;
  cfg.instruments = instruments;
  cfg.obs_label = "golden/s88";
  return cfg;
}

std::string run_golden_mission_jsonl() {
  eval::KheperaPlatform platform;
  Observability obs(ObsConfig{/*metrics=*/true, /*trace=*/true, "", "", ""});
  eval::MissionConfig cfg = golden_mission_config(obs.instruments());
  eval::run_mission(
      platform,
      scenario::compile_spec(scenario::khepera_table2_spec(8), platform), cfg);
  std::ostringstream os;
  obs.trace().write_jsonl(os);
  return os.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

// Reads one JSON string starting at s[i] == '"'; leaves i past the closing
// quote. Escapes are unwrapped just enough to find the real terminator.
std::string read_json_string(const std::string& s, std::size_t& i) {
  std::string out;
  ++i;  // opening quote
  while (i < s.size() && s[i] != '"') {
    if (s[i] == '\\' && i + 1 < s.size()) ++i;
    out += s[i++];
  }
  ++i;  // closing quote
  return out;
}

// Reduces one JSONL line to its schema shape: the ordered key list with each
// value replaced by its kind tag. The "event" and "label" values are kept
// literally (event sequencing and mission attribution are part of the
// schema); vectors keep their length (the per-mode vector width is fixed by
// the detector configuration); "null" counts as a number slot, since the
// writer emits null exactly where a numeric field is non-finite.
std::string line_shape(const std::string& line) {
  if (line.empty() || line.front() != '{' || line.back() != '}') {
    return "<malformed: " + line + ">";
  }
  std::string shape;
  std::size_t i = 1;
  while (i < line.size() && line[i] != '}') {
    if (line[i] == ',') {
      ++i;
      continue;
    }
    const std::string key = read_json_string(line, i);
    ++i;  // ':'
    std::string tag;
    const char c = line[i];
    if (c == '"') {
      const std::string value = read_json_string(line, i);
      tag = (key == "event" || key == "label") ? "\"" + value + "\"" : "str";
    } else if (c == '[') {
      int depth = 0;
      std::size_t commas = 0;
      bool empty = true;
      do {
        if (line[i] == '[') {
          ++depth;
        } else if (line[i] == ']') {
          --depth;
        } else {
          empty = false;
          if (line[i] == ',' && depth == 1) ++commas;
        }
        ++i;
      } while (depth > 0 && i < line.size());
      tag = "vec" + std::to_string(empty ? 0 : commas + 1);
    } else if (c == 't' || c == 'f') {
      tag = "bool";
      while (i < line.size() && line[i] != ',' && line[i] != '}') ++i;
    } else {  // number, or null standing in for a non-finite number
      tag = "num";
      while (i < line.size() && line[i] != ',' && line[i] != '}') ++i;
    }
    if (!shape.empty()) shape += ' ';
    shape += key + "=" + tag;
  }
  return shape;
}

TEST(GoldenObsTrace, KheperaScenario8SchemaMatchesGolden) {
  const std::string current = run_golden_mission_jsonl();
  const std::string path = ROBOADS_GOLDEN_DIR "/golden_obs_trace.jsonl";

  // Structural validation first: every line must parse as flat JSON.
  {
    std::istringstream is(current);
    EXPECT_GE(validate_jsonl(is), 62u);  // schema + start + 60 iters + end
  }

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
  std::stringstream golden_text;
  golden_text << golden_file.rdbuf();

  const std::vector<std::string> golden = split_lines(golden_text.str());
  const std::vector<std::string> got = split_lines(current);
  ASSERT_EQ(golden.size(), got.size()) << "event count changed";
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(line_shape(golden[i]), line_shape(got[i]))
        << "event schema changed at JSONL line " << (i + 1);
  }
}

TEST(ObsTrace, RepeatedRunsEmitIdenticalJsonl) {
  // The trace carries no wall-clock or address-dependent field, so the
  // JSONL of a fixed mission must be byte-identical from run to run (the
  // determinism contract in docs/CONCURRENCY.md, extended to obs).
  EXPECT_EQ(run_golden_mission_jsonl(), run_golden_mission_jsonl());
}

TEST(ObsTrace, IterationEventsCarryTheDocumentedFields) {
  eval::KheperaPlatform platform;
  Observability obs(ObsConfig{/*metrics=*/false, /*trace=*/true, "", "", ""});
  eval::MissionConfig cfg = golden_mission_config(obs.instruments());
  cfg.iterations = 5;
  eval::run_mission(
      platform,
      scenario::compile_spec(scenario::khepera_table2_spec(8), platform), cfg);

  const std::vector<TraceEvent> events = obs.trace().events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().type, "mission_start");
  EXPECT_EQ(events.back().type, "mission_end");

  const char* const kExpected[] = {
      "selected_mode",  "selected_label",     "mode_weights",
      "log_likelihoods", "innovation_norms",  "sensor_chi2",
      "sensor_threshold", "sensor_alarm",     "actuator_chi2",
      "actuator_threshold", "actuator_alarm", "mode_health",
      "quarantined",    "availability",       "misbehaving",
      "containment_floor"};
  std::size_t iterations = 0;
  for (const TraceEvent& ev : events) {
    if (ev.type != "iteration") continue;
    ++iterations;
    EXPECT_EQ(ev.label, "golden/s88");
    ASSERT_EQ(ev.fields.size(), std::size(kExpected));
    for (std::size_t f = 0; f < ev.fields.size(); ++f) {
      EXPECT_EQ(ev.fields[f].first, kExpected[f]);
    }
  }
  EXPECT_EQ(iterations, 5u);
}

TEST(ObsTrace, CsvFlattensVectorsAndSkipsLifecycleEvents) {
  TraceSink sink;
  sink.emit(TraceEvent("mission_start", "lab", 0)
                .add("note", std::string("ignored by csv")));
  sink.emit(TraceEvent("iteration", "lab", 1)
                .add("score", 1.5)
                .add("weights", std::vector<double>{0.25, 0.75})
                .add("alarm", true));
  sink.emit(TraceEvent("iteration", "lab", 2)
                .add("score", std::nan(""))
                .add("weights", std::vector<double>{1.0, 0.0})
                .add("alarm", false));
  sink.emit(TraceEvent("mission_end", "lab", 2));

  std::ostringstream os;
  sink.write_csv(os);
  const std::vector<std::string> lines = split_lines(os.str());
  ASSERT_EQ(lines.size(), 3u);  // header + two iteration rows
  EXPECT_EQ(lines[0], "k,score,weights_0,weights_1,alarm");
  EXPECT_EQ(lines[1], "1,1.5,0.25,0.75,1");
  EXPECT_EQ(lines[2], "2,nan,1,0,0");
}

TEST(ObsTrace, ValidateJsonlRejectsMalformedLines) {
  std::istringstream ok("{\"event\":\"x\",\"k\":1}\n{\"a\":[1,null,2]}\n");
  EXPECT_EQ(validate_jsonl(ok), 2u);
  std::istringstream bad("{\"event\":\"x\",\"k\":}\n");
  EXPECT_THROW(validate_jsonl(bad), roboads::CheckError);
}

}  // namespace
}  // namespace roboads::obs

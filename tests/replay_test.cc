// Deterministic replay (eval/replay.h): a postmortem bundle — live,
// file-round-tripped, or both — re-runs through a freshly built detector
// bit-identically, re-fires its incident, cross-checks against the pinned
// golden mission trace, and refuses to replay under tampered provenance.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "eval/khepera.h"
#include "eval/mission.h"
#include "eval/replay.h"
#include "scenario/compile.h"
#include "scenario/library.h"

namespace roboads::eval {
namespace {

// The golden mission: scenario #8, seed 88, 200 iterations — the exact
// configuration pinned by tests/data/golden_scenario8.csv.
struct GoldenMission {
  KheperaPlatform platform;
  obs::FlightRecorder recorder{obs::FlightRecorderConfig{true, 64, 8}};
  MissionResult result;

  GoldenMission() {
    MissionConfig cfg;
    cfg.iterations = 200;
    cfg.seed = 88;
    cfg.instruments.recorder = &recorder;
    cfg.obs_label = "golden/s88";
    result = run_mission(
        platform,
        scenario::compile_spec(scenario::khepera_table2_spec(8), platform),
        cfg);
  }
};

GoldenMission& golden_mission() {
  static GoldenMission* mission = new GoldenMission();
  return *mission;
}

TEST(Replay, LiveBundlesReplayBitIdenticallyAndRefire) {
  GoldenMission& m = golden_mission();
  ASSERT_FALSE(m.recorder.bundles().empty())
      << "scenario #8 must freeze at least one incident";
  for (const obs::PostmortemBundle& bundle : m.recorder.bundles()) {
    const ReplayResult replay = replay_bundle(bundle);
    EXPECT_TRUE(replay.identical())
        << bundle.trigger << " at k=" << bundle.trigger_k << ": "
        << replay.mismatches.size() << " mismatch(es), first: "
        << (replay.mismatches.empty() ? std::string()
                                      : replay.mismatches.front().field + " — " +
                                            replay.mismatches.front().detail);
    // The replayed detector must reach the same verdict on its own: the
    // incident re-fires at the same iteration with the same trigger.
    bool refired = false;
    for (const obs::PostmortemBundle& rb : replay.bundles) {
      refired |= rb.trigger == bundle.trigger && rb.trigger_k == bundle.trigger_k;
    }
    EXPECT_TRUE(refired) << bundle.trigger << " at k=" << bundle.trigger_k;
  }
}

TEST(Replay, SerializedBundleRoundTripsThenReplaysIdentically) {
  GoldenMission& m = golden_mission();
  ASSERT_FALSE(m.recorder.bundles().empty());
  const obs::PostmortemBundle& live = m.recorder.bundles().front();
  std::stringstream ss;
  obs::write_bundle(ss, live);
  const obs::PostmortemBundle back = obs::read_bundle(ss);
  const ReplayResult replay = replay_bundle(back);
  EXPECT_TRUE(replay.identical())
      << replay.mismatches.size() << " mismatch(es) after JSONL round-trip";
  ASSERT_EQ(replay.records.size(), back.records.size());
}

TEST(Replay, MatchesGoldenMissionTrace) {
  // Cross-check the replayed decisions against tests/data/golden_scenario8.csv:
  // row k-1 of the golden trace holds iteration k. The CSV carries ~6-digit
  // floats, so only the exact-valued columns are compared.
  GoldenMission& m = golden_mission();
  ASSERT_FALSE(m.recorder.bundles().empty());

  std::ifstream golden(ROBOADS_GOLDEN_DIR "/golden_scenario8.csv");
  ASSERT_TRUE(golden.good());
  std::string line;
  std::getline(golden, line);  // "# roboads-mission-trace v2"
  std::getline(golden, line);  // column header
  std::vector<std::string> columns;
  {
    std::istringstream is(line);
    std::string cell;
    while (std::getline(is, cell, ',')) columns.push_back(cell);
  }
  std::size_t mode_col = columns.size();
  std::size_t sensor_col = columns.size();
  std::size_t act_col = columns.size();
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == "selected_mode") mode_col = i;
    if (columns[i] == "sensor_alarm") sensor_col = i;
    if (columns[i] == "act_alarm") act_col = i;
  }
  ASSERT_LT(mode_col, columns.size());
  ASSERT_LT(sensor_col, columns.size());
  ASSERT_LT(act_col, columns.size());

  std::vector<std::vector<std::string>> rows;
  while (std::getline(golden, line)) {
    if (line.empty()) continue;
    std::vector<std::string> cells;
    std::istringstream is(line);
    std::string cell;
    while (std::getline(is, cell, ',')) cells.push_back(cell);
    rows.push_back(std::move(cells));
  }
  ASSERT_EQ(rows.size(), 200u);

  std::size_t compared = 0;
  for (const obs::PostmortemBundle& bundle : m.recorder.bundles()) {
    const ReplayResult replay = replay_bundle(bundle);
    ASSERT_TRUE(replay.identical());
    for (const obs::FlightRecord& rec : replay.records) {
      ASSERT_GE(rec.k, 1);
      ASSERT_LE(static_cast<std::size_t>(rec.k), rows.size());
      const std::vector<std::string>& row = rows[rec.k - 1];
      EXPECT_EQ(std::to_string(rec.selected_mode), row[mode_col])
          << "selected_mode at k=" << rec.k;
      EXPECT_EQ(rec.sensor_alarm ? "1" : "0", row[sensor_col])
          << "sensor_alarm at k=" << rec.k;
      EXPECT_EQ(rec.actuator_alarm ? "1" : "0", row[act_col])
          << "act_alarm at k=" << rec.k;
      ++compared;
    }
  }
  EXPECT_GT(compared, 40u);
}

TEST(Replay, UnknownPlatformThrows) {
  EXPECT_THROW(make_platform("not-a-platform"), CheckError);
}

TEST(Replay, TamperedProvenanceIsRejected) {
  GoldenMission& m = golden_mission();
  ASSERT_FALSE(m.recorder.bundles().empty());
  obs::PostmortemBundle tampered = m.recorder.bundles().front();
  tampered.provenance.modes = "ref:bogus";
  EXPECT_THROW(replay_bundle(tampered), CheckError);

  obs::PostmortemBundle wrong_dims = m.recorder.bundles().front();
  wrong_dims.provenance.sensor_dims.back() += 1;
  EXPECT_THROW(replay_bundle(wrong_dims), CheckError);

  obs::PostmortemBundle no_snapshot = m.recorder.bundles().front();
  no_snapshot.records.front().pre_step.state.clear();
  EXPECT_THROW(replay_bundle(no_snapshot), CheckError);
}

// A record that does not fit the provenance is refused before it steps,
// with a CheckError naming its k: a cut reading vector would otherwise fail
// deep in the NUISE step, and a short all-'1' availability (or one with
// another character) would step as complete and read as a divergence.
TEST(Replay, MalformedRecordsAreRefusedByIteration) {
  GoldenMission& m = golden_mission();
  ASSERT_FALSE(m.recorder.bundles().empty());
  const obs::PostmortemBundle& bundle = m.recorder.bundles().front();
  const std::size_t at = bundle.records.size() / 2;
  const std::string named = "record k=" + std::to_string(bundle.records[at].k);
  const std::vector<std::pair<const char*, void (*)(obs::FlightRecord&)>>
      mutants = {
          {"z cut to 2 values", [](obs::FlightRecord& r) { r.z.resize(2); }},
          {"u cut to 1 value", [](obs::FlightRecord& r) { r.u.resize(1); }},
          {"availability \"1\"",
           [](obs::FlightRecord& r) { r.availability = "1"; }},
          {"availability \"1x1\"",
           [](obs::FlightRecord& r) { r.availability = "1x1"; }},
      };
  for (const auto& [name, mutate] : mutants) {
    obs::PostmortemBundle bad = bundle;
    mutate(bad.records[at]);
    try {
      replay_bundle(bad);
      ADD_FAILURE() << name << ": replayed without a CheckError";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(named), std::string::npos)
          << name << ": " << e.what();
    }
  }
}

TEST(Replay, ExplainRendersIncidentAndVerdict) {
  GoldenMission& m = golden_mission();
  ASSERT_FALSE(m.recorder.bundles().empty());
  const obs::PostmortemBundle& bundle = m.recorder.bundles().front();
  const std::string plain = explain_bundle(bundle);
  EXPECT_NE(plain.find(bundle.trigger), std::string::npos);
  EXPECT_NE(plain.find("khepera"), std::string::npos);
  EXPECT_EQ(plain.find("VERIFIED"), std::string::npos);

  const ReplayResult replay = replay_bundle(bundle);
  const std::string verified = explain_bundle(bundle, &replay);
  EXPECT_NE(verified.find("VERIFIED"), std::string::npos);
  EXPECT_NE(verified.find("incident re-fired"), std::string::npos);
}

}  // namespace
}  // namespace roboads::eval

// Flight recorder and postmortem bundles (obs/flight_recorder.h):
//   - ring-buffer wraparound and window ordering,
//   - all three live trigger paths (decision alarm, health quarantine,
//     a contained mission failure) freezing bundles with the right
//     provenance,
//   - the serialized schema pinned by a checked-in golden file
//     (GOLDEN_REGEN=1 rewrites it after an intentional format change),
//   - exact write/read round-trips including NaN payloads,
//   - run-wide bundle ordinals that keep repeated (scenario, seed) missions
//     under one Observability from overwriting each other's files.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "attacks/scenario.h"
#include "eval/khepera.h"
#include "eval/mission.h"
#include "eval/scoring.h"
#include "obs/flight_recorder.h"
#include "obs/obs.h"
#include "scenario/compile.h"
#include "scenario/library.h"

namespace roboads::obs {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

bool bits_equal(double a, double b) {
  std::uint64_t ua = 0;
  std::uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

// Hand-built two-record bundle with dyadic values (exact in decimal) and
// deliberate NaNs, so the golden file is stable across platforms and the
// round-trip checks exercise the null path.
PostmortemBundle fixture_bundle() {
  PostmortemBundle b;
  b.trigger = "sensor_alarm";
  b.trigger_k = 7;
  b.detail = "sensor chi2 12 > 9 (misbehaving=01)";
  BundleProvenance& p = b.provenance;
  p.label = "fixture/s1/j0";
  p.platform = "khepera";
  p.scenario = "#fixture";
  p.description = "hand-built schema fixture";
  p.seed = 1;
  p.iterations = 8;
  p.dt = 0.1;
  p.linear_baseline = false;
  p.likelihood_floor = 0.0009765625;  // 2^-10, exact
  p.health_enabled = true;
  p.sensor_alpha = 0.005;
  p.actuator_alpha = 0.05;
  p.sensor_window = 2;
  p.sensor_criteria = 2;
  p.actuator_window = 6;
  p.actuator_criteria = 3;
  p.modes = "ref:a;ref:b";
  p.sensors = "a;b";
  p.sensor_dims = {1, 2};
  p.state_dim = 3;
  p.input_dim = 2;
  for (std::int64_t k = 6; k <= 7; ++k) {
    FlightRecord r;
    r.k = k;
    if (k == 6) {
      r.pre_step.state = {0.5, -0.25, 1.0};
      r.pre_step.state_cov = {0.0001, 0.0, 0.0, 0.0, 0.0001,
                              0.0,    0.0, 0.0, 0.0001};
      r.pre_step.weights = {0.5, 0.5};
      r.pre_step.health = {0, 3, 0, 0, 0, 3, 0, 0};
      r.pre_step.decision = {2, 0, 1, 1, 0, 6, 2, 0, 0, 0, 0, 0, 0,
                             2, 0, 0, 0, 0, 2, 0, 1, 0, 1};
      r.pre_step.iteration = 5;
    }
    r.u = {0.05, -0.0625};
    r.z = {1.5, 0.25, kNaN};
    r.availability = "11";
    r.selected_mode = 1;
    r.mode_weights = {0.125, 0.875};
    r.log_likelihoods = {-3.5, kNaN};
    r.innovation_norms = {0.0078125, kNaN};
    r.sensor_chi2 = 12.0;
    r.sensor_threshold = 9.0;
    r.sensor_alarm = k == 7;
    r.actuator_chi2 = 1.5;
    r.actuator_threshold = 6.0;
    r.actuator_alarm = false;
    r.per_sensor_chi2 = {kNaN, 12.0};
    r.per_sensor_threshold = {kNaN, 9.0};
    r.misbehaving = k == 7 ? "01" : "00";
    r.sensor_anomaly = {kNaN, 0.0703125, -0.015625};
    r.actuator_anomaly = {0.001953125, -0.00390625};
    r.mode_health = "HH";
    r.quarantined = 0;
    r.containment = false;
    r.truth_valid = true;
    r.truth_sensors = "01";
    r.truth_actuator = false;
    b.records.push_back(std::move(r));
  }
  return b;
}

TEST(FlightRecorder, RingWrapsAndWindowStaysOldestToNewest) {
  FlightRecorder rec(FlightRecorderConfig{true, 4, 8});
  rec.begin_mission(BundleProvenance{});
  for (std::int64_t k = 1; k <= 10; ++k) {
    FlightRecord& slot = rec.begin_record();
    slot.k = k;
  }
  EXPECT_EQ(rec.size(), 4u);
  const std::vector<const FlightRecord*> window = rec.window();
  ASSERT_EQ(window.size(), 4u);
  for (std::size_t i = 0; i < window.size(); ++i) {
    EXPECT_EQ(window[i]->k, static_cast<std::int64_t>(7 + i));
  }
  // A partial refill after begin_mission starts a fresh timeline.
  rec.begin_mission(BundleProvenance{});
  EXPECT_EQ(rec.size(), 0u);
  rec.begin_record().k = 42;
  ASSERT_EQ(rec.window().size(), 1u);
  EXPECT_EQ(rec.window()[0]->k, 42);
}

TEST(FlightRecorder, TriggerFreezesWindowAndHonorsMaxBundles) {
  FlightRecorder rec(FlightRecorderConfig{true, 3, 2});
  rec.begin_mission(BundleProvenance{});
  for (std::int64_t k = 1; k <= 5; ++k) rec.begin_record().k = k;
  rec.trigger(BundleTrigger::kSensorAlarm, 5, "first");
  rec.begin_record().k = 6;
  rec.trigger(BundleTrigger::kQuarantine, 6, "second");
  rec.trigger(BundleTrigger::kActuatorAlarm, 6, "dropped");
  ASSERT_EQ(rec.bundles().size(), 2u);
  EXPECT_EQ(rec.bundles_dropped(), 1u);
  const PostmortemBundle& first = rec.bundles()[0];
  EXPECT_EQ(first.trigger, "sensor_alarm");
  EXPECT_EQ(first.trigger_k, 5);
  ASSERT_EQ(first.records.size(), 3u);
  EXPECT_EQ(first.records.front().k, 3);
  EXPECT_EQ(first.records.back().k, 5);
  EXPECT_EQ(rec.bundles()[1].trigger, "quarantine");
  // The cap is per mission: a new mission re-arms it and keeps the held
  // bundles.
  rec.begin_mission(BundleProvenance{});
  rec.begin_record().k = 1;
  rec.trigger(BundleTrigger::kSensorAlarm, 1, "next mission");
  ASSERT_EQ(rec.bundles().size(), 3u);
  EXPECT_EQ(rec.bundles_dropped(), 1u);
  EXPECT_EQ(rec.bundles()[0].detail, "first");
  EXPECT_EQ(rec.bundles()[2].detail, "next mission");
  ASSERT_EQ(rec.bundles()[2].records.size(), 1u);
  // take_bundles drains and re-arms.
  EXPECT_EQ(rec.take_bundles().size(), 3u);
  EXPECT_TRUE(rec.bundles().empty());
}

TEST(FlightRecorder, AnnotateTruthPatchesRingAndFrozenBundles) {
  FlightRecorder rec(FlightRecorderConfig{true, 4, 4});
  rec.begin_mission(BundleProvenance{});
  FlightRecord& slot = rec.begin_record();
  slot.k = 9;
  slot.truth_valid = false;
  // The trigger fires inside the detector step, before the mission runner
  // stamps ground truth for k — the patch must reach the frozen copy.
  rec.trigger(BundleTrigger::kSensorAlarm, 9, "alarm");
  rec.annotate_truth(9, "010", true);
  ASSERT_EQ(rec.bundles().size(), 1u);
  const FlightRecord& frozen = rec.bundles()[0].records.back();
  EXPECT_TRUE(frozen.truth_valid);
  EXPECT_EQ(frozen.truth_sensors, "010");
  EXPECT_TRUE(frozen.truth_actuator);
  EXPECT_TRUE(rec.window().back()->truth_valid);
  // Stale k is ignored.
  rec.begin_record().k = 10;
  rec.annotate_truth(9, "111", false);
  EXPECT_FALSE(rec.window().back()->truth_valid);
  // A shared recorder patches only the current mission's bundles.
  rec.begin_record().k = 11;
  rec.trigger(BundleTrigger::kSensorAlarm, 11, "never annotated");
  rec.begin_mission(BundleProvenance{});
  rec.begin_record().k = 11;
  rec.annotate_truth(11, "001", false);
  ASSERT_EQ(rec.bundles().size(), 2u);
  EXPECT_FALSE(rec.bundles()[1].records.back().truth_valid);
  EXPECT_TRUE(rec.window().back()->truth_valid);
}

#ifndef ROBOADS_GOLDEN_DIR
#error "ROBOADS_GOLDEN_DIR must point at tests/data"
#endif

TEST(BundleSchema, MatchesCheckedInGolden) {
  std::ostringstream os;
  write_bundle(os, fixture_bundle());
  const std::string current = os.str();
  const std::string path = ROBOADS_GOLDEN_DIR "/golden_bundle.jsonl";
  if (std::getenv("GOLDEN_REGEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << current;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream golden(path);
  ASSERT_TRUE(golden.good())
      << "missing " << path << " — run with GOLDEN_REGEN=1 to create it";
  std::ostringstream want;
  want << golden.rdbuf();
  EXPECT_EQ(current, want.str())
      << "bundle schema drifted — bump PostmortemBundle::kSchemaVersion and "
         "regenerate intentionally";
}

TEST(BundleSchema, RoundTripsExactlyIncludingNaN) {
  const PostmortemBundle bundle = fixture_bundle();
  std::stringstream ss;
  write_bundle(ss, bundle);
  const PostmortemBundle back = read_bundle(ss);

  EXPECT_EQ(back.trigger, bundle.trigger);
  EXPECT_EQ(back.trigger_k, bundle.trigger_k);
  EXPECT_EQ(back.detail, bundle.detail);
  const BundleProvenance& p = bundle.provenance;
  const BundleProvenance& q = back.provenance;
  EXPECT_EQ(q.label, p.label);
  EXPECT_EQ(q.platform, p.platform);
  EXPECT_EQ(q.scenario, p.scenario);
  EXPECT_EQ(q.description, p.description);
  EXPECT_EQ(q.seed, p.seed);
  EXPECT_EQ(q.iterations, p.iterations);
  EXPECT_TRUE(bits_equal(q.dt, p.dt));
  EXPECT_EQ(q.linear_baseline, p.linear_baseline);
  EXPECT_TRUE(bits_equal(q.likelihood_floor, p.likelihood_floor));
  EXPECT_EQ(q.health_enabled, p.health_enabled);
  EXPECT_TRUE(bits_equal(q.sensor_alpha, p.sensor_alpha));
  EXPECT_TRUE(bits_equal(q.actuator_alpha, p.actuator_alpha));
  EXPECT_EQ(q.sensor_window, p.sensor_window);
  EXPECT_EQ(q.sensor_criteria, p.sensor_criteria);
  EXPECT_EQ(q.actuator_window, p.actuator_window);
  EXPECT_EQ(q.actuator_criteria, p.actuator_criteria);
  EXPECT_EQ(q.modes, p.modes);
  EXPECT_EQ(q.sensors, p.sensors);
  EXPECT_EQ(q.sensor_dims, p.sensor_dims);
  EXPECT_EQ(q.state_dim, p.state_dim);
  EXPECT_EQ(q.input_dim, p.input_dim);

  ASSERT_EQ(back.records.size(), bundle.records.size());
  for (std::size_t i = 0; i < bundle.records.size(); ++i) {
    const FlightRecord& a = bundle.records[i];
    const FlightRecord& b = back.records[i];
    EXPECT_EQ(b.k, a.k);
    const auto expect_doubles = [&](const std::vector<double>& want,
                                    const std::vector<double>& got,
                                    const char* field) {
      ASSERT_EQ(got.size(), want.size()) << field << " record " << i;
      for (std::size_t j = 0; j < want.size(); ++j) {
        EXPECT_TRUE(bits_equal(got[j], want[j]))
            << field << "[" << j << "] record " << i << ": " << want[j]
            << " vs " << got[j];
      }
    };
    expect_doubles(a.u, b.u, "u");
    expect_doubles(a.z, b.z, "z");
    EXPECT_EQ(b.availability, a.availability);
    EXPECT_EQ(b.selected_mode, a.selected_mode);
    expect_doubles(a.mode_weights, b.mode_weights, "mode_weights");
    expect_doubles(a.log_likelihoods, b.log_likelihoods, "log_likelihoods");
    expect_doubles(a.innovation_norms, b.innovation_norms,
                   "innovation_norms");
    EXPECT_TRUE(bits_equal(b.sensor_chi2, a.sensor_chi2));
    EXPECT_TRUE(bits_equal(b.sensor_threshold, a.sensor_threshold));
    EXPECT_EQ(b.sensor_alarm, a.sensor_alarm);
    EXPECT_TRUE(bits_equal(b.actuator_chi2, a.actuator_chi2));
    EXPECT_TRUE(bits_equal(b.actuator_threshold, a.actuator_threshold));
    EXPECT_EQ(b.actuator_alarm, a.actuator_alarm);
    expect_doubles(a.per_sensor_chi2, b.per_sensor_chi2, "per_sensor_chi2");
    expect_doubles(a.per_sensor_threshold, b.per_sensor_threshold,
                   "per_sensor_threshold");
    EXPECT_EQ(b.misbehaving, a.misbehaving);
    expect_doubles(a.sensor_anomaly, b.sensor_anomaly, "sensor_anomaly");
    expect_doubles(a.actuator_anomaly, b.actuator_anomaly,
                   "actuator_anomaly");
    EXPECT_EQ(b.mode_health, a.mode_health);
    EXPECT_EQ(b.quarantined, a.quarantined);
    EXPECT_EQ(b.containment, a.containment);
    EXPECT_EQ(b.truth_valid, a.truth_valid);
    EXPECT_EQ(b.truth_sensors, a.truth_sensors);
    EXPECT_EQ(b.truth_actuator, a.truth_actuator);
  }
  // Only the first record's warm-start snapshot is serialized.
  const DetectorStateSnapshot& snap = bundle.records.front().pre_step;
  const DetectorStateSnapshot& got = back.records.front().pre_step;
  for (std::size_t j = 0; j < snap.state.size(); ++j) {
    EXPECT_TRUE(bits_equal(got.state[j], snap.state[j]));
  }
  EXPECT_EQ(got.state_cov.size(), snap.state_cov.size());
  EXPECT_EQ(got.weights.size(), snap.weights.size());
  EXPECT_EQ(got.health, snap.health);
  EXPECT_EQ(got.decision, snap.decision);
  EXPECT_EQ(got.iteration, snap.iteration);
  EXPECT_TRUE(back.records.back().pre_step.state.empty());
}

TEST(BundleSchema, FilenameIsSanitizedAndDeterministic) {
  const PostmortemBundle bundle = fixture_bundle();
  EXPECT_EQ(bundle_filename(bundle, 0),
            "fixture_s1_j0-b0-sensor_alarm-k7.jsonl");
  EXPECT_EQ(bundle_filename(bundle, 3),
            "fixture_s1_j0-b3-sensor_alarm-k7.jsonl");
}

// --- Live trigger paths through the mission runners. ---

eval::MissionConfig recorded_config(FlightRecorder& rec, std::size_t iters,
                                    std::uint64_t seed) {
  eval::MissionConfig cfg;
  cfg.iterations = iters;
  cfg.seed = seed;
  cfg.instruments.recorder = &rec;
  cfg.obs_label = "t/s" + std::to_string(seed);
  return cfg;
}

TEST(FlightRecorderLive, DecisionAlarmsFreezeBundles) {
  // Scenario #8: IPS bomb from 4 s raises the sensor alarm, the wheel
  // controller bomb from 10 s the actuator alarm.
  eval::KheperaPlatform platform;
  FlightRecorder rec(FlightRecorderConfig{true, 48, 8});
  const eval::MissionResult result = eval::run_mission(
      platform,
      scenario::compile_spec(scenario::khepera_table2_spec(8), platform),
      recorded_config(rec, 130, 5150));
  ASSERT_FALSE(result.records.empty());
  bool saw_sensor = false;
  bool saw_actuator = false;
  for (const PostmortemBundle& b : rec.bundles()) {
    if (b.trigger == "sensor_alarm") saw_sensor = true;
    if (b.trigger == "actuator_alarm") saw_actuator = true;
    EXPECT_EQ(b.provenance.platform, "khepera");
    EXPECT_EQ(b.provenance.seed, 5150);
    EXPECT_EQ(b.provenance.label, "t/s5150");
    ASSERT_FALSE(b.records.empty());
    EXPECT_EQ(b.records.back().k, b.trigger_k);
    // Rising-edge trigger: the frozen record is the first alarmed one.
    EXPECT_TRUE(b.records.back().sensor_alarm ||
                b.records.back().actuator_alarm);
    // The trigger record's ground truth was patched in after the step.
    EXPECT_TRUE(b.records.back().truth_valid);
  }
  EXPECT_TRUE(saw_sensor);
  EXPECT_TRUE(saw_actuator);
}

TEST(FlightRecorderLive, QuarantineFreezesBundle) {
  eval::KheperaPlatform platform;
  const attacks::Scenario base = platform.clean_scenario();
  std::vector<attacks::Attachment> attachments = base.attachments();
  attachments.push_back(
      {attacks::InjectionPoint::kSensorOutput, "wheel_encoder",
       std::make_shared<attacks::BiasInjector>(attacks::Window{60, 66},
                                               Vector{1e160, 1e160, 0.0})});
  const attacks::Scenario scenario("numeric overload",
                                   "finite-huge wheel-encoder bias",
                                   std::move(attachments));
  FlightRecorder rec(FlightRecorderConfig{true, 32, 8});
  eval::run_mission(platform, scenario, recorded_config(rec, 80, 7));
  bool saw_quarantine = false;
  for (const PostmortemBundle& b : rec.bundles()) {
    if (b.trigger != "quarantine") continue;
    saw_quarantine = true;
    EXPECT_GE(b.trigger_k, 60);
    EXPECT_GT(b.records.back().quarantined, 0);
  }
  EXPECT_TRUE(saw_quarantine);
}

class ThrowingInjector final : public attacks::Injector {
 public:
  explicit ThrowingInjector(attacks::Window w) : Injector(w) {}
  std::string describe() const override { return "throws mid-mission"; }

 protected:
  void corrupt(std::size_t, Vector&) override {
    throw std::runtime_error("actuation driver fault");
  }
};

attacks::Scenario throwing_scenario(const eval::KheperaPlatform& platform,
                                    std::size_t at) {
  const attacks::Scenario base = platform.clean_scenario();
  std::vector<attacks::Attachment> attachments = base.attachments();
  attachments.push_back(
      {attacks::InjectionPoint::kActuatorCommand, "",
       std::make_shared<ThrowingInjector>(attacks::Window{at, at + 1})});
  return attacks::Scenario("throwing actuation", "driver throws",
                           std::move(attachments));
}

TEST(FlightRecorderLive, MissionFailureFreezesBundle) {
  eval::KheperaPlatform platform;
  FlightRecorder rec(FlightRecorderConfig{true, 16, 4});
  eval::MissionConfig cfg = recorded_config(rec, 60, 3);
  cfg.obs_label = "crash/s3";
  const eval::ContainedRun run =
      eval::run_contained(platform, throwing_scenario(platform, 30), cfg);
  ASSERT_TRUE(run.failed());
  EXPECT_EQ(run.failure->step, 30u);
  EXPECT_NE(run.failure->what.find("actuation driver fault"),
            std::string::npos);
  ASSERT_EQ(rec.bundles().size(), 1u);
  const PostmortemBundle& b = rec.bundles()[0];
  EXPECT_EQ(b.trigger, "mission_failure");
  EXPECT_EQ(b.trigger_k, 30);
  // The failing iteration never completed, so the window ends at k-1.
  EXPECT_EQ(b.records.back().k, 29);
  EXPECT_EQ(b.provenance.label, "crash/s3");
}

TEST(FlightRecorderLive, RepeatedMissionsUnderOneObservabilityGetOwnFiles) {
  // The same (scenario, seed) flown twice — e.g. the same attack under two
  // detector overrides — shares its label, yet each bundle must land in
  // its own file: one Observability numbers bundles across the whole run.
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "roboads_repeated")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ObsConfig config;
  config.record = true;
  config.record_window = 24;
  config.record_out = dir + "/";
  Observability observability(config);

  eval::KheperaPlatform platform;
  for (int flight = 0; flight < 2; ++flight) {
    const attacks::Scenario scenario =
        scenario::compile_spec(scenario::khepera_table2_spec(8), platform);
    eval::MissionConfig cfg;
    cfg.iterations = 60;
    cfg.seed = 11;
    cfg.instruments = observability.instruments();
    cfg.obs_label = scenario.name() + "/s11";
    ASSERT_FALSE(eval::run_contained(platform, scenario, cfg).failed());
  }
  observability.finish();

  const std::vector<PostmortemBundle>& bundles =
      observability.recorder().bundles();
  ASSERT_GE(bundles.size(), 2u);
  EXPECT_EQ(bundles.size() % 2, 0u);  // both flights froze the same set
  const std::size_t half = bundles.size() / 2;
  EXPECT_EQ(bundles[0].provenance.label, bundles[half].provenance.label);
  EXPECT_EQ(bundles[0].trigger_k, bundles[half].trigger_k);
  const std::vector<std::string>& paths = observability.bundle_paths();
  ASSERT_EQ(paths.size(), bundles.size());
  EXPECT_NE(paths[0], paths[half]);
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".jsonl") ++files;
  }
  EXPECT_EQ(files, bundles.size());
}

}  // namespace
}  // namespace roboads::obs

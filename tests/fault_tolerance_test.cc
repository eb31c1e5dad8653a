// Fault-tolerant detection runtime: degraded-mode NUISE under sensor
// availability masks, numerical health supervision / quarantine, and
// failure containment in the mission runner (docs/ROBUSTNESS.md).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/engine.h"
#include "core/health.h"
#include "core/roboads.h"
#include "dynamics/diff_drive.h"
#include "eval/khepera.h"
#include "eval/scoring.h"
#include "matrix/decomp.h"
#include "random/rng.h"
#include "sensors/standard_sensors.h"
#include "scenario/compile.h"
#include "scenario/library.h"

namespace roboads::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

using dyn::DiffDrive;
using sensors::SensorSuite;

struct Rig {
  DiffDrive model{{.axle_length = 0.089, .dt = 0.1}};
  SensorSuite suite{{
      sensors::make_wheel_odometry(3, 0.01, 0.02),
      sensors::make_ips(3, 0.005, 0.01),
      sensors::make_lidar_nav(3, 2.0, 0.03, 0.03),
  }};
  Matrix q = Matrix::diagonal(Vector{2.5e-7, 2.5e-7, 1e-6});
  Rng rng{4242};

  Vector simulate_step(Vector& x_true, const Vector& u) {
    GaussianSampler proc(q);
    x_true = model.step(x_true, u) + proc.sample(rng);
    Vector z = suite.measure(suite.all(), x_true);
    for (std::size_t i = 0; i < suite.count(); ++i) {
      GaussianSampler meas(suite.sensor(i).noise_covariance());
      const Vector noise = meas.sample(rng);
      for (std::size_t j = 0; j < noise.size(); ++j)
        z[suite.offset(i) + j] += noise[j];
    }
    return z;
  }
};

// --- Health state machine. ---

TEST(ModeHealthMachine, CleanRepairFatalTransitions) {
  HealthConfig cfg;
  cfg.quarantine_steps = 3;
  cfg.recover_after = 2;
  ModeHealth h;
  EXPECT_EQ(h.state, ModeHealthState::kHealthy);

  h.on_repaired(cfg);
  EXPECT_EQ(h.state, ModeHealthState::kDegraded);
  EXPECT_EQ(h.repairs, 1u);

  h.on_clean(cfg);
  EXPECT_EQ(h.state, ModeHealthState::kDegraded);  // 1 < recover_after
  h.on_clean(cfg);
  EXPECT_EQ(h.state, ModeHealthState::kHealthy);

  h.on_fatal(cfg);
  EXPECT_TRUE(h.quarantined());
  EXPECT_EQ(h.quarantine_count, 1u);
  h.on_fatal(cfg);  // repeated failure while quarantined counts once
  EXPECT_EQ(h.quarantine_count, 1u);

  // A fatal mid-cooldown resets the streak.
  h.on_clean(cfg);
  h.on_clean(cfg);
  h.on_fatal(cfg);
  for (int i = 0; i < 2; ++i) h.on_clean(cfg);
  EXPECT_TRUE(h.quarantined());
  h.on_clean(cfg);  // 3rd consecutive clean step → reinstated, still wary
  EXPECT_EQ(h.state, ModeHealthState::kDegraded);
  h.on_clean(cfg);
  h.on_clean(cfg);
  EXPECT_EQ(h.state, ModeHealthState::kHealthy);
  EXPECT_EQ(to_string(ModeHealthState::kQuarantined),
            std::string("quarantined"));
}

// --- Covariance repair. ---

TEST(RepairCovariance, LeavesHealthyMatricesBitIdentical) {
  HealthConfig cfg;
  Matrix cov{{2.0, 0.3, 0.0}, {0.3, 1.0, -0.2}, {0.0, -0.2, 0.5}};
  const Matrix before = cov;
  EXPECT_FALSE(repair_covariance(cov, cfg));
  EXPECT_EQ(cov, before);  // untouched, not merely close
}

TEST(RepairCovariance, ClampsNegativeEigenvalueDrift) {
  HealthConfig cfg;
  // Symmetric with eigenvalues {2, -0.5}: genuine drift, must be repaired.
  Matrix cov{{0.75, 1.25}, {1.25, 0.75}};
  EXPECT_TRUE(repair_covariance(cov, cfg));
  const SymmetricEigen eig = eigen_symmetric(cov);
  for (std::size_t i = 0; i < eig.eigenvalues.size(); ++i) {
    EXPECT_GE(eig.eigenvalues[i], 0.0);
  }
  // The healthy eigenvalue survives.
  EXPECT_NEAR(eig.eigenvalues[0], 2.0, 1e-9);
  EXPECT_TRUE(cov.is_symmetric(1e-12));
}

TEST(RepairCovariance, ToleratesTinyNegativeNoiseWithoutRewrite) {
  HealthConfig cfg;
  // -1e-14 relative drift: ordinary floating-point noise, left alone so
  // healthy runs stay bit-identical.
  Matrix cov{{1.0, 0.0}, {0.0, -1e-14}};
  const Matrix before = cov;
  EXPECT_FALSE(repair_covariance(cov, cfg));
  EXPECT_EQ(cov, before);
}

// --- supervise_result. ---

TEST(SuperviseResult, NonFiniteStateIsFatal) {
  Rig rig;
  const Mode mode = one_reference_per_sensor(rig.suite)[1];
  NuiseResult r;
  r.state = Vector{kNaN, 0.0, 0.0};
  r.state_cov = Matrix::identity(3);
  const SupervisionOutcome out =
      supervise_result(r, mode, rig.suite, HealthConfig{});
  EXPECT_TRUE(out.fatal);
  EXPECT_FALSE(out.detail.empty());
}

TEST(SuperviseResult, NonFiniteTestingBlockIsStrippedNotFatal) {
  Rig rig;
  // ref:ips — testing {wheel_encoder (3), lidar (4)}, stacked d̂ˢ dim 7.
  const Mode mode = one_reference_per_sensor(rig.suite)[1];
  NuiseResult r;
  r.state = Vector(3);
  r.state_cov = Matrix::identity(3) * 1e-4;
  r.actuator_anomaly = Vector(2);
  r.actuator_anomaly_cov = Matrix::identity(2);
  r.sensor_anomaly = Vector(7);
  r.sensor_anomaly[1] = kNaN;  // wheel block poisoned
  r.sensor_anomaly[5] = 0.25;  // lidar block fine
  r.sensor_anomaly_cov = Matrix::identity(7);

  const SupervisionOutcome out =
      supervise_result(r, mode, rig.suite, HealthConfig{});
  EXPECT_FALSE(out.fatal);
  EXPECT_TRUE(out.repaired);
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.active_testing, (std::vector<std::size_t>{2}));
  ASSERT_EQ(r.sensor_anomaly.size(), 4u);  // only the lidar block remains
  EXPECT_DOUBLE_EQ(r.sensor_anomaly[2], 0.25);
  EXPECT_TRUE(r.sensor_anomaly_cov.all_finite());
  EXPECT_EQ(r.sensor_anomaly_cov.rows(), 4u);
}

TEST(SuperviseResult, DisabledSupervisionIsANoOp) {
  Rig rig;
  const Mode mode = one_reference_per_sensor(rig.suite)[0];
  NuiseResult r;
  r.state = Vector{kNaN, 0.0, 0.0};
  HealthConfig cfg;
  cfg.enabled = false;
  const SupervisionOutcome out = supervise_result(r, mode, rig.suite, cfg);
  EXPECT_FALSE(out.fatal);
  EXPECT_FALSE(out.repaired);
}

// --- Degraded-mode NUISE. ---

// A mask whose sensors were each marked missing and then delivered again,
// as a session frame's is, steps as the complete one.
TEST(DegradedNuise, AllAvailableMaskIsBitIdenticalToUnmasked) {
  Rig rig;
  const Mode mode = one_reference_per_sensor(rig.suite)[1];
  const Nuise nuise(rig.model, rig.suite, mode, rig.q);
  Vector x_true{0.5, 0.8, 0.1};
  const Vector x_prev = x_true;
  const Matrix p_prev = Matrix::identity(3) * 1e-4;
  const Vector u{0.08, 0.05};
  const Vector z = rig.simulate_step(x_true, u);

  SensorMask arrived;
  for (std::size_t i = 0; i < 3; ++i) arrived.set_missing(i);
  EXPECT_FALSE(arrived.complete());
  for (std::size_t i = 0; i < 3; ++i) arrived.set_available(i);
  EXPECT_TRUE(arrived.complete());
  EXPECT_EQ(arrived, SensorMask{});

  const NuiseResult plain = nuise.step(x_prev, p_prev, u, z);
  const NuiseResult r = nuise.step(x_prev, p_prev, u, z, arrived);
  EXPECT_EQ(r.state, plain.state);
  EXPECT_EQ(r.state_cov, plain.state_cov);
  EXPECT_EQ(r.sensor_anomaly, plain.sensor_anomaly);
  EXPECT_EQ(r.log_likelihood, plain.log_likelihood);
  EXPECT_FALSE(r.degraded);
  EXPECT_TRUE(r.likelihood_informative);
}

TEST(DegradedNuise, MissingTestingSensorShrinksAnomalyOnly) {
  Rig rig;
  const Mode mode = one_reference_per_sensor(rig.suite)[1];  // ref:ips
  const Nuise nuise(rig.model, rig.suite, mode, rig.q);
  Vector x_true{0.5, 0.8, 0.1};
  const Vector x_prev = x_true;
  const Matrix p_prev = Matrix::identity(3) * 1e-4;
  const Vector u{0.08, 0.05};
  const Vector z = rig.simulate_step(x_true, u);

  SensorMask mask;
  mask.set_missing(2);  // lidar (testing) missing
  const NuiseResult full = nuise.step(x_prev, p_prev, u, z);
  const NuiseResult masked = nuise.step(x_prev, p_prev, u, z, mask);

  // State, covariance, and likelihood come from the reference group alone —
  // identical with or without the testing sensor.
  EXPECT_EQ(masked.state, full.state);
  EXPECT_EQ(masked.state_cov, full.state_cov);
  EXPECT_EQ(masked.log_likelihood, full.log_likelihood);
  EXPECT_TRUE(masked.correction_applied);
  EXPECT_TRUE(masked.likelihood_informative);
  // d̂ˢ shrinks to the available testing sensors.
  EXPECT_TRUE(masked.degraded);
  EXPECT_EQ(masked.active_testing, (std::vector<std::size_t>{0}));
  EXPECT_EQ(masked.sensor_anomaly.size(), 3u);
  EXPECT_EQ(active_testing_of(mode, masked),
            (std::vector<std::size_t>{0}));
  EXPECT_EQ(active_testing_of(mode, full), mode.testing);
}

TEST(DegradedNuise, PartialReferenceMatchesTheSmallerMode) {
  Rig rig;
  // Two-sensor reference; losing one must reduce to the exact filter over
  // the surviving (reference, testing) subsets — regardless of whether the
  // lost sensor was declared reference or testing in the mode definition.
  const Mode wide{"wide", {0, 1}, {2}};
  const Mode narrow{"narrow", {1}, {0, 2}};
  const Nuise wide_nuise(rig.model, rig.suite, wide, rig.q);
  const Nuise narrow_nuise(rig.model, rig.suite, narrow, rig.q);
  Vector x_true{0.5, 0.8, 0.1};
  const Vector x_prev = x_true;
  const Matrix p_prev = Matrix::identity(3) * 1e-4;
  const Vector u{0.08, 0.05};
  const Vector z = rig.simulate_step(x_true, u);

  SensorMask mask;
  mask.set_missing(0);  // wheel encoder missing: wide loses a reference
                        // member, narrow loses a testing member
  const NuiseResult masked = wide_nuise.step(x_prev, p_prev, u, z, mask);
  const NuiseResult expected = narrow_nuise.step(x_prev, p_prev, u, z, mask);

  EXPECT_EQ(masked.state, expected.state);
  EXPECT_EQ(masked.state_cov, expected.state_cov);
  EXPECT_EQ(masked.sensor_anomaly, expected.sensor_anomaly);
  EXPECT_EQ(masked.log_likelihood, expected.log_likelihood);
  EXPECT_TRUE(masked.degraded);
  EXPECT_TRUE(masked.correction_applied);
}

TEST(DegradedNuise, MissingReferenceGroupRunsPredictionOnly) {
  Rig rig;
  const Mode mode = one_reference_per_sensor(rig.suite)[1];  // ref:ips
  const Nuise nuise(rig.model, rig.suite, mode, rig.q);
  Vector x_true{0.5, 0.8, 0.1};
  const Vector x_prev = x_true;
  const Matrix p_prev = Matrix::identity(3) * 1e-4;
  const Vector u{0.08, 0.05};
  const Vector z = rig.simulate_step(x_true, u);

  SensorMask mask;
  mask.set_missing(1);  // the whole reference group gone
  const NuiseResult r = nuise.step(x_prev, p_prev, u, z, mask);

  EXPECT_FALSE(r.correction_applied);
  EXPECT_FALSE(r.likelihood_informative);
  EXPECT_TRUE(r.degraded);
  // Pure propagation through the kinematics.
  EXPECT_EQ(r.state, rig.model.step(x_prev, u));
  EXPECT_TRUE(r.state_cov.all_finite());
  EXPECT_TRUE(r.state_cov.is_symmetric(1e-12));
  // d̂ᵃ carries no information: zero statistic by construction.
  for (std::size_t i = 0; i < r.actuator_anomaly.size(); ++i) {
    EXPECT_EQ(r.actuator_anomaly[i], 0.0);
  }
  EXPECT_FALSE(r.actuator_identifiable);
  // Available testing sensors are still screened against the prediction.
  EXPECT_EQ(r.active_testing, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(r.sensor_anomaly.size(), 7u);
  EXPECT_TRUE(r.sensor_anomaly.all_finite());
}

// Every availability pattern checks its inputs: a reading vector of the
// wrong size is refused under any mask, prediction-only steps included.
TEST(DegradedNuise, ShortReadingIsRefusedUnderEveryMask) {
  Rig rig;
  const Vector x{0.5, 0.8, 0.1};
  const Matrix p = Matrix::identity(3) * 1e-4;
  const Vector u{0.08, 0.05};
  const Vector short_z{0.5, 0.8};
  for (std::size_t bits = 0; bits < 8; ++bits) {
    SensorMask mask;
    for (std::size_t i = 0; i < 3; ++i) {
      if (((bits >> i) & 1u) != 0) mask.set_missing(i);
    }
    SCOPED_TRACE(testing::Message() << "missing bits " << bits);
    for (const Mode& mode : one_reference_per_sensor(rig.suite)) {
      const Nuise nuise(rig.model, rig.suite, mode, rig.q);
      EXPECT_THROW(nuise.step(x, p, u, short_z, mask), CheckError)
          << mode.label;
    }
    RoboAds detector(rig.model, rig.suite, rig.q, x, p);
    DetectionReport report;
    EXPECT_THROW(detector.step_into(u, short_z, mask, report), CheckError);
  }
}

// A mask naming a sensor the suite does not have is refused before the
// estimator looks up its pattern, and no mask can name one past the bound.
TEST(DegradedNuise, MaskPastTheSuiteIsRefused) {
  Rig rig;
  Vector x{0.5, 0.8, 0.1};
  const Matrix p = Matrix::identity(3) * 1e-4;
  const Vector u{0.08, 0.05};
  const Vector z = rig.simulate_step(x, u);
  for (std::size_t past = 3; past < kMaxSuiteSensors; ++past) {
    SensorMask mask;
    mask.set_missing(past);
    for (const Mode& mode : one_reference_per_sensor(rig.suite)) {
      const Nuise nuise(rig.model, rig.suite, mode, rig.q);
      try {
        nuise.step(x, p, u, z, mask);
        ADD_FAILURE() << mode.label << ": sensor " << past << " accepted";
      } catch (const CheckError& e) {
        EXPECT_NE(std::string(e.what()).find("past the suite"),
                  std::string::npos)
            << e.what();
      }
    }
  }
  SensorMask mask;
  EXPECT_THROW(mask.set_missing(kMaxSuiteSensors), CheckError);
  EXPECT_TRUE(mask.complete());
}

// --- Engine-level quarantine and recovery. ---

TEST(EngineQuarantine, NaNReadingQuarantinesExactlyOneMode) {
  Rig rig;
  Vector x_true{0.5, 0.8, 0.1};
  MultiModeEngine engine(rig.model, rig.suite,
                         one_reference_per_sensor(rig.suite), rig.q, x_true,
                         Matrix::identity(3) * 1e-4);
  const Vector u{0.08, 0.05};

  for (int k = 0; k < 5; ++k) {
    const EngineResult r = engine.step(u, rig.simulate_step(x_true, u));
    EXPECT_EQ(r.quarantined_modes, 0u);
  }

  // Deliberately inject a NaN covariance path: a NaN wheel-encoder reading
  // fed *unmasked* poisons exactly the mode referencing that sensor.
  Vector z = rig.simulate_step(x_true, u);
  z[rig.suite.offset(0)] = kNaN;
  const EngineResult poisoned = engine.step(u, z);

  EXPECT_EQ(poisoned.quarantined_modes, 1u);
  EXPECT_EQ(poisoned.mode_health[0], ModeHealthState::kQuarantined);
  // The other modes lose only their wheel-encoder anomaly block.
  for (std::size_t m : {1u, 2u}) {
    EXPECT_EQ(poisoned.mode_health[m], ModeHealthState::kDegraded);
    EXPECT_TRUE(poisoned.per_mode[m].degraded);
    for (std::size_t t : poisoned.per_mode[m].active_testing) {
      EXPECT_NE(t, 0u);
    }
  }
  // The engine keeps producing estimates from the surviving modes.
  EXPECT_FALSE(poisoned.fallback_previous_estimate);
  EXPECT_NE(poisoned.selected_mode, 0u);
  EXPECT_TRUE(poisoned.selected().state.all_finite());
  EXPECT_TRUE(engine.state().all_finite());
  EXPECT_EQ(poisoned.mode_weights[0], 0.0);

  // Clean readings reinstate the mode after the cooldown (10 clean steps →
  // degraded, 5 more → healthy), and its weight re-enters via the ε floor.
  HealthConfig defaults;
  EngineResult r;
  for (std::size_t k = 0; k < defaults.quarantine_steps; ++k) {
    r = engine.step(u, rig.simulate_step(x_true, u));
  }
  EXPECT_EQ(r.mode_health[0], ModeHealthState::kDegraded);
  EXPECT_EQ(r.quarantined_modes, 0u);
  EXPECT_GT(r.mode_weights[0], 0.0);
  for (std::size_t k = 0; k < defaults.recover_after; ++k) {
    r = engine.step(u, rig.simulate_step(x_true, u));
  }
  for (std::size_t m = 0; m < 3; ++m) {
    EXPECT_EQ(r.mode_health[m], ModeHealthState::kHealthy) << "mode " << m;
  }
}

TEST(EngineQuarantine, AllModesPoisonedFallsBackToPreviousEstimate) {
  Rig rig;
  Vector x_true{0.5, 0.8, 0.1};
  MultiModeEngine engine(rig.model, rig.suite,
                         one_reference_per_sensor(rig.suite), rig.q, x_true,
                         Matrix::identity(3) * 1e-4);
  const Vector u{0.08, 0.05};
  for (int k = 0; k < 3; ++k) engine.step(u, rig.simulate_step(x_true, u));
  const Vector state_before = engine.state();

  // Every reading non-finite: every reference group is poisoned at once.
  Vector z(rig.suite.total_dim());
  for (std::size_t i = 0; i < z.size(); ++i) z[i] = kNaN;
  const EngineResult r = engine.step(u, z);

  EXPECT_TRUE(r.fallback_previous_estimate);
  EXPECT_EQ(engine.state(), state_before);  // last good estimate kept
  // All modes get a fresh (wary) start instead of a permanent lock-out.
  for (std::size_t m = 0; m < 3; ++m) {
    EXPECT_EQ(r.mode_health[m], ModeHealthState::kDegraded);
  }
  // The engine is alive on the next clean iteration.
  const EngineResult next = engine.step(u, rig.simulate_step(x_true, u));
  EXPECT_FALSE(next.fallback_previous_estimate);
  EXPECT_TRUE(next.selected().state.all_finite());
}

TEST(RoboAdsFacade, NonFiniteReadingIsAutoMaskedNotPoisonous) {
  Rig rig;
  Vector x_true{0.5, 0.8, 0.1};
  RoboAds detector(rig.model, rig.suite, rig.q, x_true,
                   Matrix::identity(3) * 1e-4);
  const Vector u{0.08, 0.05};
  for (int k = 0; k < 3; ++k) detector.step(u, rig.simulate_step(x_true, u));

  // The monitor treats a non-finite reading as a transport fault: the
  // sensor is masked out for the iteration, so no mode ever sees the NaN
  // and nothing needs quarantining.
  Vector z = rig.simulate_step(x_true, u);
  z[rig.suite.offset(0) + 1] = kNaN;
  const DetectionReport report = detector.step(u, z);
  EXPECT_FALSE(report.sensor_available.available(0));
  EXPECT_TRUE(report.sensor_available.available(1));
  EXPECT_TRUE(report.sensor_available.available(2));
  EXPECT_EQ(report.quarantined_modes, 0u);
  EXPECT_TRUE(report.state_estimate.all_finite());
  // wheel-encoder anomaly cannot be attributed this iteration.
  EXPECT_TRUE(report.sensor_anomaly_by_sensor[0].empty());
}

// A mask naming a sensor past the suite is refused before the step writes
// anything: the non-finite LiDAR block is not marked missing in it, and the
// report keeps the availability it held.
TEST(RoboAdsFacade, WrongSizeMaskIsRefusedBeforeTheReportIsWritten) {
  Rig rig;
  Vector x_true{0.5, 0.8, 0.1};
  RoboAds detector(rig.model, rig.suite, rig.q, x_true,
                   Matrix::identity(3) * 1e-4);
  const Vector u{0.08, 0.05};
  DetectionReport report;
  SensorMask held;
  held.set_missing(1);
  detector.step_into(u, rig.simulate_step(x_true, u), held, report);
  ASSERT_EQ(report.sensor_available, held);

  Vector z = rig.simulate_step(x_true, u);
  z[rig.suite.offset(2)] = kNaN;
  SensorMask past;
  past.set_missing(3);  // the suite has three sensors
  try {
    detector.step_into(u, z, past, report);
    ADD_FAILURE() << "a mask naming sensor 3 was accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "availability mask names a sensor past the suite"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(report.sensor_available, held);
}

}  // namespace
}  // namespace roboads::core

// --- Mission-level fault tolerance and containment. ---

namespace roboads::eval {
namespace {

TEST(FaultTolerantMission, TenPercentDropStillDetectsTableIIAttack) {
  KheperaPlatform platform;
  MissionConfig cfg;
  cfg.iterations = 200;
  cfg.seed = 202;
  cfg.transport_faults =
      sim::TransportFaultConfig::single({"lidar", 0.10}, 4242);
  const attacks::Scenario scenario =
      scenario::compile_spec(scenario::khepera_table2_spec(3), platform);
  const MissionResult result = run_mission(platform, scenario, cfg);

  ASSERT_GE(result.records.size(), 100u);
  EXPECT_GT(result.frames_dropped, 5u);
  // Availability made it into the records.
  std::size_t outages = 0;
  for (const IterationRecord& rec : result.records) {
    if (!rec.sensor_available.available(platform.suite().index_of("lidar"))) {
      ++outages;
    }
    EXPECT_TRUE(rec.report.state_estimate.all_finite());
  }
  EXPECT_EQ(outages, result.frames_dropped);

  // The IPS logic bomb is still caught and attributed.
  const ScenarioScore score = score_mission(result, platform);
  ASSERT_EQ(score.delays.size(), 1u);
  EXPECT_EQ(score.delays[0].label, "sensor:ips");
  ASSERT_TRUE(score.delays[0].seconds.has_value());
  EXPECT_LE(*score.delays[0].seconds, 2.0);
}

TEST(FaultTolerantMission, CleanMissionWithDropStaysMostlyQuiet) {
  KheperaPlatform platform;
  MissionConfig cfg;
  cfg.iterations = 200;
  cfg.seed = 77;
  cfg.transport_faults =
      sim::TransportFaultConfig::single({"ips", 0.10}, 99);
  const MissionResult result =
      run_mission(platform, platform.clean_scenario(), cfg);
  ASSERT_FALSE(result.records.empty());
  const ScenarioScore score = score_mission(result, platform);
  // Benign outages must not read as attacks.
  EXPECT_LT(score.sensor.false_positive_rate(), 0.10);
  EXPECT_LT(score.actuator.false_positive_rate(), 0.10);
}

TEST(ContainedRun, SetupFailureBecomesARecordNotACrash) {
  KheperaPlatform platform;
  // Recording on: a setup failure opened no mission timeline, so it must
  // not freeze a bundle (there is nothing of this mission to replay).
  obs::FlightRecorder recorder(obs::FlightRecorderConfig{true, 16, 4});

  MissionConfig bad;
  bad.iterations = 50;
  bad.seed = 11;
  bad.instruments.recorder = &recorder;
  core::RoboAdsConfig bad_cfg = platform.detector_config();
  bad_cfg.engine.likelihood_floor = 0.9;  // > 1/M: rejected at setup
  bad.detector_override = bad_cfg;
  const ContainedRun failed =
      run_contained(platform, platform.clean_scenario(), bad);
  ASSERT_TRUE(failed.failed());
  EXPECT_EQ(failed.failure->step, 0u);  // setup, not mid-mission
  EXPECT_NE(failed.failure->what.find("likelihood floor"), std::string::npos);
  EXPECT_TRUE(recorder.bundles().empty());

  // A good mission flown next to it is unaffected.
  MissionConfig good;
  good.iterations = 50;
  good.seed = 12;
  const ContainedRun fine =
      run_contained(platform, platform.clean_scenario(), good);
  EXPECT_FALSE(fine.failed());
  EXPECT_FALSE(fine.result.records.empty());
}

TEST(MissionError, CarriesTheFailingStep) {
  const MissionError err(42, "boom");
  EXPECT_EQ(err.step(), 42u);
  EXPECT_STREQ(err.what(), "boom");
}

}  // namespace
}  // namespace roboads::eval

// Determinism/equivalence harness for the multi-mode engine: repeated runs
// of the per-mode NUISE bank (core/engine.cc), on the default and on the
// complete mode set, must be bit-identical — state, covariance, weights,
// selected mode, and per-mode anomaly estimates — and so must every
// spelling of "all sensors available" with health supervision on.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/engine.h"
#include "dynamics/diff_drive.h"
#include "random/rng.h"
#include "sensors/standard_sensors.h"

namespace roboads::core {
namespace {

using dyn::DiffDrive;
using sensors::SensorSuite;

// Bit-level equality: memcmp on the raw doubles, so even a -0.0 vs +0.0 or
// NaN-payload difference — invisible to operator== — fails the harness.
::testing::AssertionResult bits_equal(double a, double b) {
  if (std::memcmp(&a, &b, sizeof(double)) == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ at the bit level";
}

::testing::AssertionResult bits_equal(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    auto r = bits_equal(a[i], b[i]);
    if (!r) return r << " (component " << i << ")";
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult bits_equal(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      auto r = bits_equal(a(i, j), b(i, j));
      if (!r) return r << " (entry " << i << "," << j << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

// The standard 3-sensor suite of engine_test.cc.
struct Rig {
  DiffDrive model{{.axle_length = 0.089, .dt = 0.1}};
  SensorSuite suite{{
      sensors::make_wheel_odometry(3, 0.01, 0.02),
      sensors::make_ips(3, 0.005, 0.01),
      sensors::make_lidar_nav(3, 2.0, 0.03, 0.03),
  }};
  Matrix q = Matrix::diagonal(Vector{2.5e-7, 2.5e-7, 1e-6});
  Vector x0{0.5, 0.5, 0.2};
  Matrix p0 = Matrix::identity(3) * 1e-4;
};

struct StepInput {
  Vector u;
  Vector z;
};

// A 200-step attacked mission recorded once: IPS bias from k=60, an
// additional wheel-odometry bias from k=140 — the mode selection changes
// mid-run, so the trace exercises selector switches, not just steady state.
std::vector<StepInput> attacked_mission(Rig& rig, std::size_t steps = 200) {
  Rng rng(4242);
  GaussianSampler proc(rig.q);
  Vector x_true = rig.x0;
  std::vector<StepInput> trace;
  trace.reserve(steps);
  for (std::size_t k = 1; k <= steps; ++k) {
    const Vector u{0.05, 0.055};
    x_true = rig.model.step(x_true, u) + proc.sample(rng);
    Vector z = rig.suite.measure(rig.suite.all(), x_true);
    for (std::size_t i = 0; i < rig.suite.count(); ++i) {
      GaussianSampler meas(rig.suite.sensor(i).noise_covariance());
      const Vector noise = meas.sample(rng);
      for (std::size_t j = 0; j < noise.size(); ++j) {
        z[rig.suite.offset(i) + j] += noise[j];
      }
    }
    if (k >= 60) z[3] += 0.2;    // IPS x spoof
    if (k >= 140) z[0] += 0.15;  // wheel-odometry x bomb
    trace.push_back({u, z});
  }
  return trace;
}

// Runs the full trace through a fresh engine and returns every step's
// result. `mask_mode` selects how each step is issued:
// 0 = the plain 2-argument step, 1 = masked step with an empty mask, 2 =
// masked step with an all-true mask — all three are contractually the same
// code path and must be bit-identical.
std::vector<EngineResult> run_trace(Rig& rig, const std::vector<Mode>& modes,
                                    const std::vector<StepInput>& trace,
                                    int mask_mode = 0,
                                    bool health_enabled = true) {
  EngineConfig cfg;
  cfg.health.enabled = health_enabled;
  MultiModeEngine engine(rig.model, rig.suite, modes, rig.q, rig.x0, rig.p0,
                         cfg);
  std::vector<EngineResult> results;
  results.reserve(trace.size());
  for (const StepInput& in : trace) {
    switch (mask_mode) {
      case 1:
        results.push_back(engine.step(in.u, in.z, SensorMask{}));
        break;
      case 2:
        results.push_back(
            engine.step(in.u, in.z, SensorMask(rig.suite.count(), true)));
        break;
      default:
        results.push_back(engine.step(in.u, in.z));
    }
  }
  return results;
}

void expect_identical(const std::vector<EngineResult>& a,
                      const std::vector<EngineResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    SCOPED_TRACE("step " + std::to_string(k + 1));
    EXPECT_EQ(a[k].selected_mode, b[k].selected_mode);
    EXPECT_TRUE(bits_equal(Vector(a[k].mode_weights),
                           Vector(b[k].mode_weights)));
    ASSERT_EQ(a[k].per_mode.size(), b[k].per_mode.size());
    for (std::size_t m = 0; m < a[k].per_mode.size(); ++m) {
      SCOPED_TRACE("mode " + std::to_string(m));
      const NuiseResult& ra = a[k].per_mode[m];
      const NuiseResult& rb = b[k].per_mode[m];
      EXPECT_TRUE(bits_equal(ra.state, rb.state));
      EXPECT_TRUE(bits_equal(ra.state_cov, rb.state_cov));
      EXPECT_TRUE(bits_equal(ra.actuator_anomaly, rb.actuator_anomaly));
      EXPECT_TRUE(bits_equal(ra.sensor_anomaly, rb.sensor_anomaly));
      EXPECT_TRUE(bits_equal(ra.innovation, rb.innovation));
      EXPECT_TRUE(bits_equal(ra.log_likelihood, rb.log_likelihood));
    }
  }
}

TEST(EngineParallel, RepeatedRunsAreBitIdentical) {
  Rig rig;
  const std::vector<Mode> modes = one_reference_per_sensor(rig.suite);
  const std::vector<StepInput> trace = attacked_mission(rig);
  expect_identical(run_trace(rig, modes, trace), run_trace(rig, modes, trace));
}

// The 7-mode complete set (2³ − 1) is the configuration the perf bench
// steps (BM_EngineStepCompleteModeSet); prove determinism there too.
TEST(EngineParallel, CompleteModeSetRunsAreBitIdentical) {
  Rig rig;
  const std::vector<Mode> modes = complete_mode_set(rig.suite);
  ASSERT_EQ(modes.size(), 7u);
  const std::vector<StepInput> trace = attacked_mission(rig, 120);
  expect_identical(run_trace(rig, modes, trace), run_trace(rig, modes, trace));
}

// The fault-tolerant runtime's no-fault contract: with every sensor
// available (however that is spelled) and health supervision enabled —
// the default — outputs are bit-identical to the plain unsupervised run.
// Supervision is pure reads on healthy results; the masked entry points
// route trivial masks to the exact legacy path.
TEST(EngineParallel, MaskedAllAvailableAndSupervisionAreBitIdentical) {
  Rig rig;
  const std::vector<Mode> modes = one_reference_per_sensor(rig.suite);
  const std::vector<StepInput> trace = attacked_mission(rig);

  const std::vector<EngineResult> plain_unsupervised =
      run_trace(rig, modes, trace, /*mask_mode=*/0,
                /*health_enabled=*/false);
  for (int mask_mode : {0, 1, 2}) {
    SCOPED_TRACE("mask_mode = " + std::to_string(mask_mode));
    const std::vector<EngineResult> supervised =
        run_trace(rig, modes, trace, mask_mode, /*health_enabled=*/true);
    expect_identical(plain_unsupervised, supervised);
    // And the supervised run reports every mode healthy throughout.
    for (const EngineResult& r : supervised) {
      EXPECT_EQ(r.quarantined_modes, 0u);
      for (ModeHealthState s : r.mode_health) {
        EXPECT_EQ(s, ModeHealthState::kHealthy);
      }
    }
  }
}

// The selector must end the attacked trace distrusting both corrupted
// sensors — guards against a harness that would pass trivially on a trace
// the engine never reacts to.
TEST(EngineParallel, TraceActuallyExercisesModeSwitches) {
  Rig rig;
  const std::vector<Mode> modes = one_reference_per_sensor(rig.suite);
  const std::vector<StepInput> trace = attacked_mission(rig);
  const std::vector<EngineResult> results = run_trace(rig, modes, trace);
  EXPECT_EQ(results.front().selected_mode, results[40].selected_mode);
  EXPECT_EQ(results.back().selected_mode, 2u);  // ref:lidar — only clean one
}

}  // namespace
}  // namespace roboads::core

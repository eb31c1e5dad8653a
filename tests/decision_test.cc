// Decision maker unit tests: χ² thresholds, sliding windows, per-sensor
// attribution (Algorithm 1 lines 10-25).
#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <thread>
#include <vector>

#include "core/decision.h"
#include "dynamics/diff_drive.h"
#include "sensors/standard_sensors.h"
#include "stats/chi_square.h"

namespace roboads::core {
namespace {

sensors::SensorSuite make_suite() {
  return sensors::SensorSuite({
      sensors::make_wheel_odometry(3, 0.01, 0.02),
      sensors::make_ips(3, 0.005, 0.01),
      sensors::make_lidar_nav(3, 2.0, 0.03, 0.03),
  });
}

Mode ips_reference_mode() { return Mode{"ref:ips", {1}, {0, 2}}; }

// Builds a NuiseResult with chosen anomaly magnitudes and identity-scaled
// covariances so the χ² statistics are exactly the squared norms.
NuiseResult synthetic_result(const Vector& sensor_anomaly,
                             const Vector& actuator_anomaly) {
  NuiseResult r;
  r.sensor_anomaly = sensor_anomaly;
  r.sensor_anomaly_cov = Matrix::identity(sensor_anomaly.size());
  r.actuator_anomaly = actuator_anomaly;
  r.actuator_anomaly_cov = Matrix::identity(actuator_anomaly.size());
  r.state = Vector(3);
  r.state_cov = Matrix::identity(3);
  return r;
}

TEST(DecisionMaker, RejectsInvalidConfig) {
  const sensors::SensorSuite suite = make_suite();
  DecisionConfig cfg;
  cfg.sensor_alpha = 0.0;
  EXPECT_THROW(DecisionMaker(suite, cfg), CheckError);
  cfg = DecisionConfig{};
  cfg.actuator_window = {2, 3};  // c > w
  EXPECT_THROW(DecisionMaker(suite, cfg), CheckError);
  cfg = DecisionConfig{};
  cfg.sensor_window = {0, 0};
  EXPECT_THROW(DecisionMaker(suite, cfg), CheckError);
}

TEST(DecisionMaker, NoAlarmOnSmallAnomalies) {
  const sensors::SensorSuite suite = make_suite();
  DecisionMaker dm(suite, DecisionConfig{});
  const Decision d = dm.evaluate(ips_reference_mode(),
                                 synthetic_result(Vector(7), Vector(2)));
  EXPECT_FALSE(d.sensor_test_positive);
  EXPECT_FALSE(d.sensor_alarm);
  EXPECT_FALSE(d.actuator_test_positive);
  EXPECT_FALSE(d.actuator_alarm);
  EXPECT_TRUE(d.misbehaving_sensors.empty());
}

TEST(DecisionMaker, StatisticsMatchChiSquareForm) {
  const sensors::SensorSuite suite = make_suite();
  DecisionMaker dm(suite, DecisionConfig{});
  Vector ds(7);
  ds[0] = 3.0;  // statistic = 9 with identity covariance
  Vector da{1.0, 2.0};
  const Decision d =
      dm.evaluate(ips_reference_mode(), synthetic_result(ds, da));
  EXPECT_NEAR(d.sensor_statistic, 9.0, 1e-12);
  EXPECT_NEAR(d.sensor_threshold, stats::chi_square_threshold(0.005, 7),
              1e-9);
  EXPECT_NEAR(d.actuator_statistic, 5.0, 1e-12);
  EXPECT_NEAR(d.actuator_threshold, stats::chi_square_threshold(0.05, 2),
              1e-9);
}

TEST(DecisionMaker, SlidingWindowDelaysSensorAlarm) {
  const sensors::SensorSuite suite = make_suite();
  DecisionConfig cfg;
  cfg.sensor_window = {2, 2};  // paper's sensor c/w = 2/2
  DecisionMaker dm(suite, cfg);

  Vector ds(7);
  ds[0] = 10.0;  // far above any threshold
  // First positive: test fires, alarm not yet (needs 2 of last 2).
  Decision d1 = dm.evaluate(ips_reference_mode(),
                            synthetic_result(ds, Vector(2)));
  EXPECT_TRUE(d1.sensor_test_positive);
  EXPECT_FALSE(d1.sensor_alarm);
  // Second consecutive positive: alarm.
  Decision d2 = dm.evaluate(ips_reference_mode(),
                            synthetic_result(ds, Vector(2)));
  EXPECT_TRUE(d2.sensor_alarm);
}

TEST(DecisionMaker, TransientPositiveSuppressed) {
  const sensors::SensorSuite suite = make_suite();
  DecisionConfig cfg;
  cfg.sensor_window = {2, 2};
  DecisionMaker dm(suite, cfg);

  Vector big(7);
  big[0] = 10.0;
  // Single bump followed by clean iterations never raises the alarm —
  // exactly the transient-fault tolerance the window exists for (§IV-D).
  Decision d = dm.evaluate(ips_reference_mode(),
                           synthetic_result(big, Vector(2)));
  EXPECT_FALSE(d.sensor_alarm);
  for (int i = 0; i < 5; ++i) {
    d = dm.evaluate(ips_reference_mode(),
                    synthetic_result(Vector(7), Vector(2)));
    EXPECT_FALSE(d.sensor_alarm);
  }
}

TEST(DecisionMaker, ActuatorWindowThreeOfSix) {
  const sensors::SensorSuite suite = make_suite();
  DecisionMaker dm(suite, DecisionConfig{});  // actuator c/w = 3/6

  Vector da{5.0, 5.0};
  Decision d;
  // Two positives: no alarm yet.
  for (int i = 0; i < 2; ++i) {
    d = dm.evaluate(ips_reference_mode(), synthetic_result(Vector(7), da));
    EXPECT_FALSE(d.actuator_alarm) << "iteration " << i;
  }
  // Third positive within the window: alarm fires.
  d = dm.evaluate(ips_reference_mode(), synthetic_result(Vector(7), da));
  EXPECT_TRUE(d.actuator_alarm);
  // Positives age out after six clean iterations.
  for (int i = 0; i < 6; ++i)
    d = dm.evaluate(ips_reference_mode(),
                    synthetic_result(Vector(7), Vector(2)));
  EXPECT_FALSE(d.actuator_alarm);
}

TEST(DecisionMaker, AttributesTheRightSensor) {
  const sensors::SensorSuite suite = make_suite();
  DecisionMaker dm(suite, DecisionConfig{});

  // Large anomaly confined to the LiDAR block (testing layout: odometry
  // occupies 0..2, lidar 3..6 in the ref:ips mode).
  Vector ds(7);
  ds[4] = 8.0;
  Decision d;
  for (int i = 0; i < 3; ++i)
    d = dm.evaluate(ips_reference_mode(), synthetic_result(ds, Vector(2)));
  ASSERT_TRUE(d.sensor_alarm);
  ASSERT_EQ(d.misbehaving_sensors.size(), 1u);
  EXPECT_EQ(d.misbehaving_sensors[0], 2u);  // suite index of lidar

  // Verdicts cover both testing sensors with correct indices.
  ASSERT_EQ(d.sensor_verdicts.size(), 2u);
  EXPECT_EQ(d.sensor_verdicts[0].sensor_index, 0u);
  EXPECT_FALSE(d.sensor_verdicts[0].misbehaving);
  EXPECT_EQ(d.sensor_verdicts[1].sensor_index, 2u);
  EXPECT_TRUE(d.sensor_verdicts[1].misbehaving);
  EXPECT_EQ(d.sensor_verdicts[1].anomaly_estimate.size(), 4u);
}

TEST(DecisionMaker, AttributesMultipleSensors) {
  const sensors::SensorSuite suite = make_suite();
  DecisionMaker dm(suite, DecisionConfig{});
  Vector ds(7);
  ds[0] = 8.0;  // odometry
  ds[4] = 8.0;  // lidar
  Decision d;
  for (int i = 0; i < 3; ++i)
    d = dm.evaluate(ips_reference_mode(), synthetic_result(ds, Vector(2)));
  ASSERT_TRUE(d.sensor_alarm);
  EXPECT_EQ(d.misbehaving_sensors, (std::vector<std::size_t>{0, 2}));
}

TEST(DecisionMaker, ResetClearsWindows) {
  const sensors::SensorSuite suite = make_suite();
  DecisionConfig cfg;
  cfg.sensor_window = {2, 2};
  DecisionMaker dm(suite, cfg);
  Vector ds(7);
  ds[0] = 10.0;
  dm.evaluate(ips_reference_mode(), synthetic_result(ds, Vector(2)));
  dm.reset();
  // After reset a single positive is again insufficient.
  const Decision d = dm.evaluate(ips_reference_mode(),
                                 synthetic_result(ds, Vector(2)));
  EXPECT_FALSE(d.sensor_alarm);
}

// Reference implementation of the sliding window with the exact semantics of
// the original deque version: push, trim to `window`, count positives.
bool deque_window_met(std::deque<bool>& history, bool positive,
                      const SlidingWindowConfig& cfg) {
  history.push_back(positive);
  while (history.size() > cfg.window) history.pop_front();
  std::size_t count = 0;
  for (bool b : history) count += b ? 1 : 0;
  return count >= cfg.criteria;
}

TEST(SlidingWindow, RingBufferMatchesDequeSemantics) {
  // Every (w, c) pair over a deterministic pseudo-random outcome sequence:
  // the ring buffer must agree with the grow-then-trim deque at every push.
  for (std::size_t w = 1; w <= 8; ++w) {
    for (std::size_t c = 1; c <= w; ++c) {
      const SlidingWindowConfig cfg{w, c};
      SlidingWindow ring(cfg);
      std::deque<bool> deque_history;
      unsigned state = static_cast<unsigned>(w * 131 + c);
      for (int i = 0; i < 200; ++i) {
        state = state * 1664525u + 1013904223u;
        const bool positive = (state >> 16) % 3 == 0;
        EXPECT_EQ(ring.push(positive),
                  deque_window_met(deque_history, positive, cfg))
            << "w=" << w << " c=" << c << " i=" << i;
      }
      ring.clear();
      // After clear, pre-history counts as all-negative again.
      EXPECT_EQ(ring.push(true), c == 1);
    }
  }
}

// Solves C x = v with partial-pivot Gaussian elimination in long double and
// returns v^T x — the extended-precision reference for the χ² statistic.
double long_double_quadratic(const Matrix& c, const Vector& v) {
  const std::size_t n = v.size();
  std::vector<std::vector<long double>> a(n, std::vector<long double>(n + 1));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a[i][j] = c(i, j);
    a[i][n] = v[i];
  }
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t piv = k;
    for (std::size_t i = k + 1; i < n; ++i) {
      if (std::abs(static_cast<double>(a[i][k])) >
          std::abs(static_cast<double>(a[piv][k]))) {
        piv = i;
      }
    }
    std::swap(a[k], a[piv]);
    for (std::size_t i = k + 1; i < n; ++i) {
      const long double f = a[i][k] / a[k][k];
      for (std::size_t j = k; j <= n; ++j) a[i][j] -= f * a[k][j];
    }
  }
  std::vector<long double> x(n);
  for (std::size_t i = n; i-- > 0;) {
    long double acc = a[i][n];
    for (std::size_t j = i + 1; j < n; ++j) acc -= a[i][j] * x[j];
    x[i] = acc / a[i][i];
  }
  long double stat = 0.0;
  for (std::size_t i = 0; i < n; ++i) stat += x[i] * v[i];
  return static_cast<double>(stat);
}

// Regression for the explicit-inverse instability: with a near-singular
// anomaly covariance, quadratic_form(inverse_spd(C), v) could go negative or
// blow up from the catastrophic cancellation in the materialized inverse.
// The factor-solve path (||L^{-1}v||²) is non-negative by construction and
// must track an extended-precision reference.
TEST(DecisionMaker, NearSingularCovarianceStaysFiniteAndAccurate) {
  const sensors::SensorSuite suite = make_suite();
  DecisionMaker dm(suite, DecisionConfig{});
  const Mode mode{"ref:ips+lidar", {1, 2}, {0}};  // testing stack: 3-dof

  // C = u u^T + 1e-6 I: eigenvalues {||u||² + 1e-6, 1e-6, 1e-6}, condition
  // number ~1.4e7.
  const Vector u{1.0, 2.0, 3.0};
  Matrix cov = Matrix::outer(u, u);
  for (std::size_t i = 0; i < 3; ++i) cov(i, i) += 1e-6;
  const Vector anomaly{0.1, -0.2, 0.3};

  NuiseResult r;
  r.sensor_anomaly = anomaly;
  r.sensor_anomaly_cov = cov;
  r.actuator_anomaly = Vector{1e-4, -2e-4};
  Matrix act_cov = Matrix::outer(Vector{1.0, 1.0}, Vector{1.0, 1.0});
  act_cov(0, 0) += 1e-6;
  act_cov(1, 1) += 1e-6;
  r.actuator_anomaly_cov = act_cov;
  r.state = Vector(3);
  r.state_cov = Matrix::identity(3);

  const Decision d = dm.evaluate(mode, r);

  ASSERT_TRUE(std::isfinite(d.sensor_statistic));
  EXPECT_GE(d.sensor_statistic, 0.0);
  const double sensor_ref = long_double_quadratic(cov, anomaly);
  EXPECT_NEAR(d.sensor_statistic, sensor_ref, 1e-9 * sensor_ref);

  ASSERT_TRUE(std::isfinite(d.actuator_statistic));
  EXPECT_GE(d.actuator_statistic, 0.0);
  const double act_ref = long_double_quadratic(act_cov, r.actuator_anomaly);
  EXPECT_NEAR(d.actuator_statistic, act_ref, 1e-9 * std::abs(act_ref));

  // The per-sensor verdict reuses the same factor-solve path.
  ASSERT_EQ(d.sensor_verdicts.size(), 1u);
  EXPECT_GE(d.sensor_verdicts[0].statistic, 0.0);
  EXPECT_TRUE(std::isfinite(d.sensor_verdicts[0].statistic));

  // Past the factor's trust cutoff the eigen fallback takes over: the
  // statistic must stay finite and non-negative even on an (effectively)
  // exactly singular covariance, where the materialized explicit inverse
  // used to produce ±1e14-scale garbage.
  dm.reset();
  Matrix singular = Matrix::outer(u, u);
  for (std::size_t i = 0; i < 3; ++i) singular(i, i) += 1e-14;
  r.sensor_anomaly_cov = singular;
  const Decision d2 = dm.evaluate(mode, r);
  ASSERT_TRUE(std::isfinite(d2.sensor_statistic));
  EXPECT_GE(d2.sensor_statistic, 0.0);
}

// Thresholds served from the construction-time cache must be the exact
// Newton-solved quantiles.
TEST(DecisionMaker, CachedThresholdsMatchDirectSolve) {
  const sensors::SensorSuite suite = make_suite();
  DecisionMaker dm(suite, DecisionConfig{});
  Vector ds(7);
  const Decision d = dm.evaluate(ips_reference_mode(),
                                 synthetic_result(ds, Vector(2)));
  EXPECT_EQ(d.sensor_threshold, stats::chi_square_threshold(0.005, 7));
  EXPECT_EQ(d.actuator_threshold, stats::chi_square_threshold(0.05, 2));
}

// Fleet shards build detectors on several threads at once, all reading and
// filling the process-wide χ² memo behind the threshold tables; every
// thread must still get the exact direct solves (run under TSan by
// ./ci.sh tsan).
TEST(DecisionMaker, ConcurrentConstructionGetsExactThresholds) {
  const sensors::SensorSuite suite = make_suite();
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 50;
  // Fresh α values (not used elsewhere in this binary) so the threads race
  // on first insertion, not only on lookups.
  const double alphas[] = {0.0123, 0.0456, 0.0789, 0.0321};
  std::vector<std::vector<Decision>> decisions(kThreads);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        DecisionConfig cfg;
        cfg.sensor_alpha = alphas[(t + i) % 4];
        cfg.actuator_alpha = alphas[(t + i + 1) % 4];
        DecisionMaker dm(suite, cfg);
        decisions[t].push_back(dm.evaluate(
            ips_reference_mode(), synthetic_result(Vector(7), Vector(2))));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      const Decision& d = decisions[t][i];
      EXPECT_EQ(d.sensor_threshold,
                stats::chi_square_threshold(alphas[(t + i) % 4], 7));
      EXPECT_EQ(d.actuator_threshold,
                stats::chi_square_threshold(alphas[(t + i + 1) % 4], 2));
      ASSERT_EQ(d.sensor_verdicts.size(), 2u);  // odometry (3), LiDAR (4)
      EXPECT_EQ(d.sensor_verdicts[0].threshold,
                stats::chi_square_threshold(alphas[(t + i) % 4], 3));
      EXPECT_EQ(d.sensor_verdicts[1].threshold,
                stats::chi_square_threshold(alphas[(t + i) % 4], 4));
    }
  }
}

// The c/w parameter space of Fig. 7 must behave monotonically: a stricter
// criteria never alarms earlier than a looser one.
class WindowProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(WindowProperty, AlarmRequiresExactlyCriteriaPositives) {
  const auto [w, c] = GetParam();
  if (c > w) GTEST_SKIP();
  const sensors::SensorSuite suite = make_suite();
  DecisionConfig cfg;
  cfg.sensor_window = {w, c};
  DecisionMaker dm(suite, cfg);

  Vector ds(7);
  ds[0] = 10.0;
  std::size_t first_alarm = 0;
  for (std::size_t i = 1; i <= w + 2; ++i) {
    const Decision d = dm.evaluate(ips_reference_mode(),
                                   synthetic_result(ds, Vector(2)));
    if (d.sensor_alarm) {
      first_alarm = i;
      break;
    }
  }
  // With every iteration positive, the alarm fires exactly at iteration c.
  EXPECT_EQ(first_alarm, c);
}

INSTANTIATE_TEST_SUITE_P(
    WindowGrid, WindowProperty,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 4, 6),
                       ::testing::Values<std::size_t>(1, 2, 3, 4, 6)));

}  // namespace
}  // namespace roboads::core

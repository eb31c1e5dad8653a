#include "core/decision.h"

#include "matrix/decomp.h"
#include "stats/chi_square.h"

namespace roboads::core {

DecisionMaker::DecisionMaker(const sensors::SensorSuite& suite,
                             DecisionConfig config)
    : suite_(suite), config_(config) {
  ROBOADS_CHECK(config_.sensor_alpha > 0.0 && config_.sensor_alpha < 1.0,
                "sensor alpha must lie in (0,1)");
  ROBOADS_CHECK(config_.actuator_alpha > 0.0 && config_.actuator_alpha < 1.0,
                "actuator alpha must lie in (0,1)");
  auto check_window = [](const SlidingWindowConfig& w) {
    ROBOADS_CHECK(w.window >= 1 && w.criteria >= 1 && w.criteria <= w.window,
                  "sliding window requires 1 <= c <= w");
  };
  check_window(config_.sensor_window);
  check_window(config_.actuator_window);

  sensor_history_ = SlidingWindow(config_.sensor_window);
  actuator_history_ = SlidingWindow(config_.actuator_window);
  per_sensor_history_.assign(suite.count(),
                             SlidingWindow(config_.sensor_window));

  // The stacked sensor statistic has at most total_dim() degrees of freedom
  // and the actuator statistic no more than that either (the anomaly is
  // identified through the sensor stack), so precompute both quantile tables
  // over that range; dof 0 is never tested and stays 0. The process-wide
  // memo solves each (α, dof) quantile once for every detector built.
  const std::size_t max_dof = suite.total_dim();
  sensor_thresholds_.assign(max_dof + 1, 0.0);
  actuator_thresholds_.assign(max_dof + 1, 0.0);
  for (std::size_t dof = 1; dof <= max_dof; ++dof) {
    sensor_thresholds_[dof] =
        stats::chi_square_threshold_memo(config_.sensor_alpha, dof);
    actuator_thresholds_[dof] =
        stats::chi_square_threshold_memo(config_.actuator_alpha, dof);
  }
}

void DecisionMaker::reset() {
  sensor_history_.clear();
  actuator_history_.clear();
  for (auto& h : per_sensor_history_) h.clear();
}

void DecisionMaker::save_windows(std::vector<std::int64_t>& out) const {
  out.clear();
  sensor_history_.save(out);
  actuator_history_.save(out);
  for (const SlidingWindow& h : per_sensor_history_) h.save(out);
}

void DecisionMaker::restore_windows(const std::vector<std::int64_t>& in) {
  std::size_t at = sensor_history_.restore(in, 0);
  at = actuator_history_.restore(in, at);
  for (SlidingWindow& h : per_sensor_history_) at = h.restore(in, at);
  ROBOADS_CHECK_EQ(at, in.size(),
                   "decision-window snapshot has trailing data");
}

double DecisionMaker::threshold_for(const std::vector<double>& cache,
                                    double alpha, std::size_t dof) {
  if (dof < cache.size()) return cache[dof];
  return stats::chi_square_threshold(alpha, dof);
}

Decision DecisionMaker::evaluate(const Mode& mode, const NuiseResult& result) {
  Decision d;

  // --- Aggregate sensor test (line 10). ---
  if (!result.sensor_anomaly.empty()) {
    const std::size_t dof = result.sensor_anomaly.size();
    const SpdFactor cov(result.sensor_anomaly_cov);
    d.sensor_statistic = cov.quadratic_form(result.sensor_anomaly);
    d.sensor_threshold = threshold_for(sensor_thresholds_,
                                       config_.sensor_alpha, dof);
    d.sensor_test_positive = d.sensor_statistic > d.sensor_threshold;
  }
  d.sensor_alarm = sensor_history_.push(d.sensor_test_positive);

  // --- Aggregate actuator test (line 11). ---
  {
    const std::size_t dof = result.actuator_anomaly.size();
    const SpdFactor cov(result.actuator_anomaly_cov);
    d.actuator_statistic = cov.quadratic_form(result.actuator_anomaly);
    d.actuator_threshold = threshold_for(actuator_thresholds_,
                                         config_.actuator_alpha, dof);
    d.actuator_test_positive = d.actuator_statistic > d.actuator_threshold;
  }
  d.actuator_alarm = actuator_history_.push(d.actuator_test_positive);
  d.actuator_anomaly = result.actuator_anomaly;

  // --- Per-sensor attribution (lines 12-19). ---
  // The per-sensor χ² outcome is tracked every iteration through the same
  // sliding-window mechanism as the aggregate test, so that the attributed
  // sensor set is as debounced as the alarm itself; a sensor is *confirmed*
  // only while the aggregate alarm holds. On a degraded step (sensor
  // outage, sim/faults.h) only the testing sensors actually stacked into
  // d̂ˢ are attributed — unavailable sensors carry no fresh evidence.
  const std::vector<std::size_t>& testing = active_testing_of(mode, result);
  ROBOADS_CHECK_EQ(result.sensor_anomaly.size(), stacked_dim(suite_, testing),
                   "stacked sensor anomaly does not match the testing group");
  std::vector<bool> tested(suite_.count(), false);
  std::size_t at = 0;
  for (std::size_t t : testing) {
    const std::size_t dim = suite_.sensor(t).dim();
    SensorVerdict v;
    v.sensor_index = t;
    v.anomaly_estimate = result.sensor_anomaly.segment(at, dim);
    const SpdFactor block(result.sensor_anomaly_cov.block(at, at, dim, dim));
    v.statistic = block.quadratic_form(v.anomaly_estimate);
    v.threshold = threshold_for(sensor_thresholds_, config_.sensor_alpha, dim);
    const bool positive = v.statistic > v.threshold;
    const bool windowed = per_sensor_history_[t].push(positive);
    v.misbehaving = d.sensor_alarm && windowed;
    if (v.misbehaving) d.misbehaving_sensors.push_back(t);
    d.sensor_verdicts.push_back(std::move(v));
    tested[t] = true;
    at += dim;
  }
  // Sensors without a fresh test this iteration — the mode's reference
  // group and any unavailable testing sensor — still age their windows so
  // stale positives from before a mode switch (or an outage) decay.
  for (std::size_t s = 0; s < suite_.count(); ++s) {
    if (!tested[s]) {
      per_sensor_history_[s].push(false);
    }
  }

  return d;
}

}  // namespace roboads::core

#include "core/decision.h"

#include "core/bank.h"
#include "matrix/decomp.h"

namespace roboads::core {

DecisionMaker::DecisionMaker(const sensors::SensorSuite& suite,
                             DecisionConfig config)
    : DecisionMaker(std::make_shared<const EstimatorBank>(suite, config),
                    config) {}

DecisionMaker::DecisionMaker(std::shared_ptr<const EstimatorBank> bank,
                             DecisionConfig config)
    : bank_(std::move(bank)),
      config_(config),
      sensor_history_(config_.sensor_window),
      actuator_history_(config_.actuator_window) {
  ROBOADS_CHECK(bank_ != nullptr, "decision maker needs an estimator bank");
  ROBOADS_CHECK(config_.sensor_alpha == bank_->sensor_alpha() &&
                    config_.actuator_alpha == bank_->actuator_alpha(),
                "decision confidence levels differ from the bank's χ² tables");
  auto check_window = [](const SlidingWindowConfig& w) {
    ROBOADS_CHECK(w.window >= 1 && w.criteria >= 1 && w.criteria <= w.window,
                  "sliding window requires 1 <= c <= w");
  };
  check_window(config_.sensor_window);
  check_window(config_.actuator_window);

  const std::size_t sensors = bank_->suite().count();
  per_sensor_history_.assign(sensors, SlidingWindow(config_.sensor_window));
  tested_.assign(sensors, false);
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

Decision DecisionMaker::evaluate(const Mode& mode, const NuiseResult& result) {
  const sensors::SensorSuite& suite = bank_->suite();
  Decision d;

  // --- Aggregate sensor test (line 10). ---
  if (!result.sensor_anomaly.empty()) {
    const std::size_t dof = result.sensor_anomaly.size();
    const SpdFactor cov(result.sensor_anomaly_cov);
    d.sensor_statistic = cov.quadratic_form(result.sensor_anomaly);
    d.sensor_threshold = bank_->sensor_threshold(dof);
    d.sensor_test_positive = d.sensor_statistic > d.sensor_threshold;
  }
  d.sensor_alarm = sensor_history_.push(d.sensor_test_positive);

  // --- Aggregate actuator test (line 11). ---
  {
    const std::size_t dof = result.actuator_anomaly.size();
    const SpdFactor cov(result.actuator_anomaly_cov);
    d.actuator_statistic = cov.quadratic_form(result.actuator_anomaly);
    d.actuator_threshold = bank_->actuator_threshold(dof);
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
  ROBOADS_CHECK_EQ(result.sensor_anomaly.size(), stacked_dim(suite, testing),
                   "stacked sensor anomaly does not match the testing group");
  std::fill(tested_.begin(), tested_.end(), false);
  d.sensor_verdicts.reserve(testing.size());
  std::size_t at = 0;
  for (std::size_t t : testing) {
    const std::size_t dim = suite.sensor(t).dim();
    SensorVerdict v;
    v.sensor_index = t;
    v.anomaly_estimate = result.sensor_anomaly.segment(at, dim);
    const SpdFactor block(result.sensor_anomaly_cov.block(at, at, dim, dim));
    v.statistic = block.quadratic_form(v.anomaly_estimate);
    v.threshold = bank_->sensor_threshold(dim);
    const bool positive = v.statistic > v.threshold;
    const bool windowed = per_sensor_history_[t].push(positive);
    v.misbehaving = d.sensor_alarm && windowed;
    if (v.misbehaving) d.misbehaving_sensors.push_back(t);
    d.sensor_verdicts.push_back(std::move(v));
    tested_[t] = true;
    at += dim;
  }
  // Sensors without a fresh test this iteration — the mode's reference
  // group and any unavailable testing sensor — still age their windows so
  // stale positives from before a mode switch (or an outage) decay.
  for (std::size_t s = 0; s < suite.count(); ++s) {
    if (!tested_[s]) {
      per_sensor_history_[s].push(false);
    }
  }

  return d;
}

}  // namespace roboads::core

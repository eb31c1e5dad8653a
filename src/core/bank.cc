#include "core/bank.h"

#include "common/check.h"
#include "stats/chi_square.h"

namespace roboads::core {

EstimatorBank::EstimatorBank(const dyn::DynamicModel& model,
                             const sensors::SensorSuite& suite,
                             std::vector<Mode> modes,
                             const Matrix& process_cov,
                             const DecisionConfig& decision)
    : EstimatorBank(suite, decision) {
  modes_ = std::move(modes);
  validate_modes(modes_, suite);
  estimators_.reserve(modes_.size());
  for (const Mode& m : modes_) {
    estimators_.emplace_back(model, suite, m, process_cov);
  }
}

EstimatorBank::EstimatorBank(const sensors::SensorSuite& suite,
                             const DecisionConfig& decision)
    : suite_(&suite),
      sensor_alpha_(decision.sensor_alpha),
      actuator_alpha_(decision.actuator_alpha) {
  ROBOADS_CHECK(sensor_alpha_ > 0.0 && sensor_alpha_ < 1.0,
                "sensor alpha must lie in (0,1)");
  ROBOADS_CHECK(actuator_alpha_ > 0.0 && actuator_alpha_ < 1.0,
                "actuator alpha must lie in (0,1)");
  // The stacked sensor statistic has at most total_dim() degrees of freedom
  // and the actuator statistic no more than that either (the anomaly is
  // identified through the sensor stack), so precompute both quantile tables
  // over that range; dof 0 is never tested and stays 0. The process-wide
  // memo solves each (α, dof) quantile once for every bank built.
  const std::size_t max_dof = suite.total_dim();
  sensor_thresholds_.assign(max_dof + 1, 0.0);
  actuator_thresholds_.assign(max_dof + 1, 0.0);
  for (std::size_t dof = 1; dof <= max_dof; ++dof) {
    sensor_thresholds_[dof] =
        stats::chi_square_threshold_memo(sensor_alpha_, dof);
    actuator_thresholds_[dof] =
        stats::chi_square_threshold_memo(actuator_alpha_, dof);
  }
}

double EstimatorBank::sensor_threshold(std::size_t dof) const {
  if (dof < sensor_thresholds_.size()) return sensor_thresholds_[dof];
  return stats::chi_square_threshold(sensor_alpha_, dof);
}

double EstimatorBank::actuator_threshold(std::size_t dof) const {
  if (dof < actuator_thresholds_.size()) return actuator_thresholds_[dof];
  return stats::chi_square_threshold(actuator_alpha_, dof);
}

}  // namespace roboads::core

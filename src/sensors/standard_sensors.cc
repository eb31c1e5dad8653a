#include "sensors/standard_sensors.h"

#include <algorithm>

namespace roboads::sensors {
namespace {

Matrix diag_cov(const std::vector<double>& stddevs) {
  Vector var(stddevs.size());
  for (std::size_t i = 0; i < stddevs.size(); ++i) {
    ROBOADS_CHECK(stddevs[i] > 0.0, "sensor noise stddev must be positive");
    var[i] = stddevs[i] * stddevs[i];
  }
  return Matrix::diagonal(var);
}

}  // namespace

StateProjectionSensor::StateProjectionSensor(std::string name,
                                             std::size_t state_dim,
                                             std::vector<std::size_t> indices,
                                             std::vector<bool> angle_flags,
                                             Matrix noise_cov)
    : name_(std::move(name)),
      state_dim_(state_dim),
      indices_(std::move(indices)),
      angle_flags_(std::move(angle_flags)),
      noise_cov_(std::move(noise_cov)) {
  ROBOADS_CHECK(!indices_.empty(), "projection sensor needs >=1 component");
  ROBOADS_CHECK_EQ(angle_flags_.size(), indices_.size(),
                   "angle flags size mismatch");
  ROBOADS_CHECK(noise_cov_.rows() == indices_.size() &&
                    noise_cov_.cols() == indices_.size(),
                "noise covariance shape mismatch");
  for (std::size_t idx : indices_)
    ROBOADS_CHECK(idx < state_dim_, "projection index out of state range");
}

void StateProjectionSensor::measure_into(const double* x, double* out) const {
  for (std::size_t i = 0; i < indices_.size(); ++i) out[i] = x[indices_[i]];
}

void StateProjectionSensor::jacobian_into(const double*, double* out) const {
  std::fill(out, out + indices_.size() * state_dim_, 0.0);
  for (std::size_t i = 0; i < indices_.size(); ++i) {
    out[i * state_dim_ + indices_[i]] = 1.0;
  }
}

SensorPtr make_ips(std::size_t state_dim, double pos_stddev,
                   double heading_stddev) {
  return std::make_shared<StateProjectionSensor>(
      "ips", state_dim, std::vector<std::size_t>{0, 1, 2},
      std::vector<bool>{false, false, true},
      diag_cov({pos_stddev, pos_stddev, heading_stddev}));
}

SensorPtr make_wheel_odometry(std::size_t state_dim, double pos_stddev,
                              double heading_stddev) {
  return std::make_shared<StateProjectionSensor>(
      "wheel_encoder", state_dim, std::vector<std::size_t>{0, 1, 2},
      std::vector<bool>{false, false, true},
      diag_cov({pos_stddev, pos_stddev, heading_stddev}));
}

SensorPtr make_imu_ins(double pos_stddev, double heading_stddev,
                       double speed_stddev) {
  return std::make_shared<StateProjectionSensor>(
      "imu", /*state_dim=*/4, std::vector<std::size_t>{0, 1, 2, 3},
      std::vector<bool>{false, false, true, false},
      diag_cov({pos_stddev, pos_stddev, heading_stddev, speed_stddev}));
}

SensorPtr make_imu_ins_pose(std::size_t state_dim, double pos_stddev,
                            double heading_stddev) {
  return std::make_shared<StateProjectionSensor>(
      "imu", state_dim, std::vector<std::size_t>{0, 1, 2},
      std::vector<bool>{false, false, true},
      diag_cov({pos_stddev, pos_stddev, heading_stddev}));
}

LidarNavSensor::LidarNavSensor(std::size_t state_dim, double arena_width,
                               double range_stddev, double heading_stddev)
    : state_dim_(state_dim),
      arena_width_(arena_width),
      noise_cov_(diag_cov(
          {range_stddev, range_stddev, range_stddev, heading_stddev})) {
  ROBOADS_CHECK(state_dim_ >= 3, "LiDAR nav needs (x, y, θ) in the state");
  ROBOADS_CHECK(arena_width_ > 0.0, "arena width must be positive");
}

void LidarNavSensor::measure_into(const double* x, double* out) const {
  out[0] = x[0];
  out[1] = x[1];
  out[2] = arena_width_ - x[0];
  out[3] = x[2];
}

void LidarNavSensor::jacobian_into(const double*, double* out) const {
  std::fill(out, out + 4 * state_dim_, 0.0);
  out[0 * state_dim_ + 0] = 1.0;
  out[1 * state_dim_ + 1] = 1.0;
  out[2 * state_dim_ + 0] = -1.0;
  out[3 * state_dim_ + 2] = 1.0;
}

SensorPtr make_lidar_nav(std::size_t state_dim, double arena_width,
                         double range_stddev, double heading_stddev) {
  return std::make_shared<LidarNavSensor>(state_dim, arena_width,
                                          range_stddev, heading_stddev);
}

}  // namespace roboads::sensors

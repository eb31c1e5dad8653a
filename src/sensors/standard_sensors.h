// The concrete sensor models used on the two evaluation platforms (§V-A,
// §V-D):
//
//   Khepera: IPS (Vicon pose), wheel-encoder odometry pose, LiDAR wall
//            navigation.
//   Tamiya:  IPS, LiDAR wall navigation, IMU inertial-navigation state.
//
// The pose-type workflows output already-processed navigation solutions
// (position/heading), matching the paper's Fig. 6 where wheel-encoder and
// LiDAR anomalies are plotted in pose/wall-distance coordinates.
#pragma once

#include "sensors/sensor_model.h"

namespace roboads::sensors {

// Measures a fixed subset of state components: z = x[indices] + ξ.
// The building block for IPS, odometry, and INS models.
class StateProjectionSensor : public SensorModel {
 public:
  // `angle_flags[i]` marks indices[i] as an angle component.
  StateProjectionSensor(std::string name, std::size_t state_dim,
                        std::vector<std::size_t> indices,
                        std::vector<bool> angle_flags, Matrix noise_cov);

  std::string name() const override { return name_; }
  std::size_t dim() const override { return indices_.size(); }
  std::size_t state_dim() const override { return state_dim_; }

  void measure_into(const double* x, double* out) const override;
  void jacobian_into(const double* x, double* out) const override;
  const Matrix& noise_covariance() const override { return noise_cov_; }
  std::vector<bool> angle_mask() const override { return angle_flags_; }

  // The state components measured, in reading order.
  const std::vector<std::size_t>& indices() const { return indices_; }

 private:
  std::string name_;
  std::size_t state_dim_;
  std::vector<std::size_t> indices_;
  std::vector<bool> angle_flags_;
  Matrix noise_cov_;
};

// Indoor positioning system (Vicon): z = (X, Y, θ).
SensorPtr make_ips(std::size_t state_dim, double pos_stddev,
                   double heading_stddev);

// Wheel-encoder odometry pose: z = (X, Y, θ). Same shape as the IPS but a
// different workflow with its own noise level.
SensorPtr make_wheel_odometry(std::size_t state_dim, double pos_stddev,
                              double heading_stddev);

// IMU inertial navigation (Tamiya): z = (X, Y, θ, v) for the 4-state
// dynamic bicycle.
SensorPtr make_imu_ins(double pos_stddev, double heading_stddev,
                       double speed_stddev);

// IMU inertial navigation pose solution z = (X, Y, θ) for pose-state models
// (the kinematic bicycle).
SensorPtr make_imu_ins_pose(std::size_t state_dim, double pos_stddev,
                            double heading_stddev);

// LiDAR wall-navigation output for a rectangular arena [0,W] x [0,H]:
//   z = (d_west, d_south, d_east, θ) = (X, Y, W − X, θ)
// matching the paper's Fig. 6 plot 3 ("distances to three walls and θ").
class LidarNavSensor : public SensorModel {
 public:
  LidarNavSensor(std::size_t state_dim, double arena_width,
                 double range_stddev, double heading_stddev);

  std::string name() const override { return "lidar"; }
  std::size_t dim() const override { return 4; }
  std::size_t state_dim() const override { return state_dim_; }

  void measure_into(const double* x, double* out) const override;
  void jacobian_into(const double* x, double* out) const override;
  const Matrix& noise_covariance() const override { return noise_cov_; }
  std::vector<bool> angle_mask() const override {
    return {false, false, false, true};
  }

  double arena_width() const { return arena_width_; }

 private:
  std::size_t state_dim_;
  double arena_width_;
  Matrix noise_cov_;
};

SensorPtr make_lidar_nav(std::size_t state_dim, double arena_width,
                         double range_stddev, double heading_stddev);

}  // namespace roboads::sensors

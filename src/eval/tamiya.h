// The Tamiya TT02 RC-car evaluation platform (paper §V-D, Fig. 8): kinematic
// bicycle dynamics with IPS, LiDAR and IMU sensors — "a distinctive dynamic
// model" demonstrating that RoboADS generalizes across robots.
//
// Substitution note (DESIGN.md §2): the IMU workflow outputs its inertial
// navigation solution (x, y, θ, v), as the paper describes ("the IMU
// provides inertial navigation data of the car during movement"), simulated
// as a direct state measurement with the largest noise of the three sensors.
#pragma once

#include "dynamics/bicycle.h"
#include "eval/platform.h"

namespace roboads::eval {

struct TamiyaConfig {
  double arena_width = 8.0;
  double arena_height = 6.0;

  Vector start_state{1.0, 1.0, 0.5};  // (x, y, θ)
  geom::Vec2 goal{6.8, 4.8};

  dyn::KinematicBicycleParams car{.wheelbase = 0.257, .max_speed = 2.0,
                                  .max_steer = 0.60, .dt = 0.1};
  double process_pos_stddev = 2e-3;
  double process_heading_stddev = 4e-3;

  double ips_pos_stddev = 0.005;  // Vicon-grade positioning
  double ips_heading_stddev = 0.01;
  double imu_pos_stddev = 0.04;
  double imu_heading_stddev = 0.02;
  double lidar_range_stddev = 0.04;
  // The 91-beam line fit over 4-8 m walls recovers heading to a few mrad;
  // 0.012 is calibrated against the extraction (see lidar_test calibration).
  double lidar_heading_stddev = 0.012;

  std::size_t lidar_beams = 91;
  double lidar_beam_noise_stddev = 0.015;
  double lidar_max_range = 12.0;
  // Processing noise matching the estimator-side R (see KheperaConfig).
  double lidar_output_range_noise_stddev = 0.038;
  double lidar_output_heading_noise_stddev = 0.011;

  core::RoboAdsConfig detector;
};

class TamiyaPlatform final : public Platform {
 public:
  explicit TamiyaPlatform(TamiyaConfig config = {});

  std::string name() const override { return "tamiya"; }
  const dyn::DynamicModel& model() const override { return model_; }
  const sensors::SensorSuite& suite() const override { return suite_; }
  const sim::World& world() const override { return world_; }
  const Matrix& process_cov() const override { return process_cov_; }
  Vector initial_state() const override { return config_.start_state; }
  geom::Vec2 goal() const override { return config_.goal; }
  core::RoboAdsConfig detector_config() const override {
    return config_.detector;
  }
  double robot_radius() const override { return 0.18; }
  double actuator_significance() const override { return 0.02; }

  sim::SensingStack make_sensing(
      const attacks::Scenario& scenario) const override;
  sim::ActuationWorkflow make_actuation(
      const attacks::Scenario& scenario) const override;
  std::unique_ptr<Controller> make_controller(Rng& rng) const override;

  // Pair-reference modes (each mode tests one sensor): at the Tamiya's
  // speeds a single pose sensor leaves only m₂ − q = 1 innovation degree of
  // freedom per step, which cannot separate a heading-estimate error from a
  // steering anomaly and destabilizes the d̂ᵃ compensation through the
  // tan(δ) nonlinearity. Grouping references per §VI ("a magnetometer can
  // be grouped together with a GPS sensor") restores observability; the
  // tradeoff is that only single-sensor corruption hypotheses are
  // enumerated (§VI: "designers may choose a different mode set").
  std::vector<core::Mode> detector_modes() const override;

  const TamiyaConfig& config() const { return config_; }

  // The RRT* settings every mission plans with.
  planning::RrtStarConfig planner_config() const;

  // Suite indices (fixed order: IPS, LiDAR, IMU).
  static constexpr std::size_t kIps = 0;
  static constexpr std::size_t kLidar = 1;
  static constexpr std::size_t kImu = 2;

 private:
  TamiyaConfig config_;
  sim::World world_;
  dyn::KinematicBicycle model_;
  sensors::SensorSuite suite_;
  Matrix process_cov_;
};

}  // namespace roboads::eval

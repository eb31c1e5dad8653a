// The Khepera III evaluation platform (paper §V-A, Fig. 5): differential
// drive, wheel-encoder odometry + Vicon IPS + LiDAR, and an RRT* + PID
// mission in a walled indoor arena. The eleven attack/failure scenarios of
// Table II are ScenarioSpecs in scenario/library.h.
//
// Substitution note (DESIGN.md §2): the simulated LiDAR sweeps 360° instead
// of the Hokuyo's 240° so that all arena walls stay observable from any
// heading; the paper's wall-distance reduction is otherwise reproduced
// beam-for-beam. Scenario #5's "+100 steps on the left wheel encoder" is
// folded through the differential-odometry geometry into the equivalent
// pose-space corruption (scenario/library.cc), matching how the paper's
// Fig. 6 plots wheel-encoder anomalies in pose coordinates.
#pragma once

#include "dynamics/diff_drive.h"
#include "eval/platform.h"

namespace roboads::eval {

struct KheperaConfig {
  // Arena (paper Fig. 5b: indoor Vicon room).
  double arena_width = 2.0;
  double arena_height = 1.5;

  // Mission.
  Vector start_pose{0.35, 0.30, 0.6};
  geom::Vec2 goal{1.60, 1.20};

  // Dynamics.
  dyn::DiffDriveParams drive{.axle_length = 0.089, .dt = 0.1};
  // Process noise Q (per control iteration).
  double process_pos_stddev = 5e-4;     // [m]
  double process_heading_stddev = 1e-3; // [rad]

  // Sensor noise (estimator-side R; the workflows sample matching noise).
  double ips_pos_stddev = 0.005;
  double ips_heading_stddev = 0.010;
  double odometry_pos_stddev = 0.006;
  double odometry_heading_stddev = 0.012;
  double lidar_range_stddev = 0.020;   // estimator model for the reduction
  double lidar_heading_stddev = 0.020;

  // LiDAR simulation.
  std::size_t lidar_beams = 81;
  double lidar_beam_noise_stddev = 0.008;
  double lidar_max_range = 5.0;
  // Processing noise added to the navigation reading so the workflow's
  // total error budget matches the estimator-side R above (the geometric
  // extraction alone is much cleaner than a real pipeline).
  double lidar_output_noise_stddev = 0.019;

  core::RoboAdsConfig detector;  // paper defaults (§V-F) from DecisionConfig
};

// Non-final: ablation benches derive from it to swap the detector mode set.
class KheperaPlatform : public Platform {
 public:
  explicit KheperaPlatform(KheperaConfig config = {});

  std::string name() const override { return "khepera"; }
  const dyn::DynamicModel& model() const override { return model_; }
  const sensors::SensorSuite& suite() const override { return suite_; }
  const sim::World& world() const override { return world_; }
  const Matrix& process_cov() const override { return process_cov_; }
  Vector initial_state() const override { return config_.start_pose; }
  geom::Vec2 goal() const override { return config_.goal; }
  core::RoboAdsConfig detector_config() const override {
    return config_.detector;
  }

  sim::SensingStack make_sensing(
      const attacks::Scenario& scenario) const override;
  sim::ActuationWorkflow make_actuation(
      const attacks::Scenario& scenario) const override;
  std::unique_ptr<Controller> make_controller(Rng& rng) const override;

  // Table III naming: S0..S6 over {wheel encoder, IPS, LiDAR}.
  std::string condition_name(
      const std::vector<std::size_t>& corrupted) const override;

  const KheperaConfig& config() const { return config_; }

  // The RRT* settings every mission plans with.
  planning::RrtStarConfig planner_config() const;

  // Suite indices (fixed order: wheel encoder, IPS, LiDAR).
  static constexpr std::size_t kWheelEncoder = 0;
  static constexpr std::size_t kIps = 1;
  static constexpr std::size_t kLidar = 2;

 private:
  KheperaConfig config_;
  sim::World world_;
  dyn::DiffDrive model_;
  sensors::SensorSuite suite_;
  Matrix process_cov_;
};

}  // namespace roboads::eval

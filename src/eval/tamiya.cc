#include "eval/tamiya.h"

#include "planning/tracker.h"
#include "sensors/standard_sensors.h"

namespace roboads::eval {
namespace {

using attacks::InjectionPoint;

// Tamiya mission controller: bicycle PID tracker fed by the IPS pose and
// the IMU speed channel.
class TamiyaController final : public Controller {
 public:
  TamiyaController(const TamiyaPlatform& platform, Rng& rng) {
    const TamiyaConfig& cfg = platform.config();
    planning::RrtStar planner(platform.world(), platform.planner_config());
    const geom::Vec2 start{cfg.start_state[0], cfg.start_state[1]};
    auto path = planner.plan(start, cfg.goal, rng);
    ROBOADS_CHECK(path.has_value(), "Tamiya mission planning failed");
    tracker_.emplace(planner.smooth(*path, rng), cfg.car.dt,
                     planning::BicycleTrackerConfig{});
    ips_offset_ = platform.suite().offset(TamiyaPlatform::kIps);
  }

  Vector control(const Vector& z_full) override {
    const Vector pose = z_full.segment(ips_offset_, 3);
    finished_ = tracker_->reached(pose);
    return tracker_->control(pose);
  }

  bool finished() const override { return finished_; }

 private:
  std::optional<planning::BicyclePathTracker> tracker_;
  std::size_t ips_offset_ = 0;
  bool finished_ = false;
};

}  // namespace

TamiyaPlatform::TamiyaPlatform(TamiyaConfig config)
    : config_(std::move(config)),
      world_(config_.arena_width, config_.arena_height,
             {geom::Aabb{{3.2, 2.2}, {4.4, 3.4}}}),
      model_(config_.car),
      suite_({
          sensors::make_ips(3, config_.ips_pos_stddev,
                            config_.ips_heading_stddev),
          sensors::make_lidar_nav(3, config_.arena_width,
                                  config_.lidar_range_stddev,
                                  config_.lidar_heading_stddev),
          sensors::make_imu_ins_pose(3, config_.imu_pos_stddev,
                                     config_.imu_heading_stddev),
      }),
      process_cov_(Matrix::diagonal(Vector{
          config_.process_pos_stddev * config_.process_pos_stddev,
          config_.process_pos_stddev * config_.process_pos_stddev,
          config_.process_heading_stddev *
              config_.process_heading_stddev})) {}

planning::RrtStarConfig TamiyaPlatform::planner_config() const {
  planning::RrtStarConfig rrt_cfg;
  rrt_cfg.step_size = 0.5;
  rrt_cfg.rewire_radius = 1.2;
  rrt_cfg.goal_radius = 0.3;
  rrt_cfg.robot_radius = robot_radius() + 0.30;
  return rrt_cfg;
}

sim::SensingStack TamiyaPlatform::make_sensing(
    const attacks::Scenario& scenario) const {
  sim::LidarConfig lidar_cfg;
  lidar_cfg.fov = 2.0 * M_PI;
  lidar_cfg.beam_count = config_.lidar_beams;
  lidar_cfg.max_range = config_.lidar_max_range;
  lidar_cfg.range_noise_stddev = config_.lidar_beam_noise_stddev;
  sim::ScanProcessorConfig proc_cfg;
  proc_cfg.split_threshold = 0.05;   // longer ranges, noisier returns
  proc_cfg.jump_threshold = 0.6;

  auto ips =
      std::make_shared<sim::DirectSensingWorkflow>(suite_.sensors()[kIps]);
  const double rn = config_.lidar_output_range_noise_stddev;
  auto lidar = std::make_shared<sim::LidarSensingWorkflow>(
      world_, lidar_cfg, proc_cfg, config_.start_state.segment(0, 3),
      Vector{rn, rn, rn, config_.lidar_output_heading_noise_stddev});
  auto imu =
      std::make_shared<sim::DirectSensingWorkflow>(suite_.sensors()[kImu]);

  for (const auto& w :
       {std::static_pointer_cast<sim::SensingWorkflow>(ips),
        std::static_pointer_cast<sim::SensingWorkflow>(lidar),
        std::static_pointer_cast<sim::SensingWorkflow>(imu)}) {
    for (const attacks::InjectorPtr& inj :
         scenario.injectors_for(InjectionPoint::kSensorOutput, w->name())) {
      w->attach_output_injector(inj);
    }
  }
  for (const attacks::InjectorPtr& inj :
       scenario.injectors_for(InjectionPoint::kLidarRawScan, "lidar")) {
    lidar->attach_raw_injector(inj);
  }
  return sim::SensingStack({ips, lidar, imu});
}

sim::ActuationWorkflow TamiyaPlatform::make_actuation(
    const attacks::Scenario& scenario) const {
  sim::ActuationWorkflow actuation("drivetrain");
  for (const attacks::InjectorPtr& inj :
       scenario.injectors_for(InjectionPoint::kActuatorCommand,
                              "drivetrain")) {
    actuation.attach_injector(inj);
  }
  return actuation;
}

std::unique_ptr<Controller> TamiyaPlatform::make_controller(Rng& rng) const {
  return std::make_unique<TamiyaController>(*this, rng);
}

std::vector<core::Mode> TamiyaPlatform::detector_modes() const {
  return {
      core::Mode{"ref:ips+lidar", {kIps, kLidar}, {kImu}},
      core::Mode{"ref:ips+imu", {kIps, kImu}, {kLidar}},
      core::Mode{"ref:lidar+imu", {kLidar, kImu}, {kIps}},
  };
}

}  // namespace roboads::eval

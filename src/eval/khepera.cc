#include "eval/khepera.h"

#include <map>

#include "planning/tracker.h"
#include "sensors/standard_sensors.h"

namespace roboads::eval {
namespace {

using attacks::InjectionPoint;

// Khepera mission controller: RRT* plan tracked by the wheel-speed PID,
// fed by the live IPS reading (§V-A).
class KheperaController final : public Controller {
 public:
  KheperaController(const KheperaPlatform& platform, Rng& rng) {
    const KheperaConfig& cfg = platform.config();
    planning::RrtStar planner(platform.world(), platform.planner_config());
    const geom::Vec2 start{cfg.start_pose[0], cfg.start_pose[1]};
    auto path = planner.plan(start, cfg.goal, rng);
    ROBOADS_CHECK(path.has_value(), "Khepera mission planning failed");
    planning::DiffDriveTrackerConfig tracker_cfg;
    tracker_.emplace(planner.smooth(*path, rng), cfg.drive.dt, tracker_cfg);
    ips_offset_ = platform.suite().offset(KheperaPlatform::kIps);
  }

  Vector control(const Vector& z_full) override {
    const Vector pose = z_full.segment(ips_offset_, 3);
    finished_ = tracker_->reached(pose);
    return tracker_->control(pose);
  }

  bool finished() const override { return finished_; }

 private:
  std::optional<planning::DiffDrivePathTracker> tracker_;
  std::size_t ips_offset_ = 0;
  bool finished_ = false;
};

}  // namespace

KheperaPlatform::KheperaPlatform(KheperaConfig config)
    : config_(std::move(config)),
      world_(config_.arena_width, config_.arena_height,
             {geom::Aabb{{0.85, 0.55}, {1.15, 0.85}}}),
      model_(config_.drive),
      suite_({
          sensors::make_wheel_odometry(3, config_.odometry_pos_stddev,
                                       config_.odometry_heading_stddev),
          sensors::make_ips(3, config_.ips_pos_stddev,
                            config_.ips_heading_stddev),
          sensors::make_lidar_nav(3, config_.arena_width,
                                  config_.lidar_range_stddev,
                                  config_.lidar_heading_stddev),
      }),
      process_cov_(Matrix::diagonal(Vector{
          config_.process_pos_stddev * config_.process_pos_stddev,
          config_.process_pos_stddev * config_.process_pos_stddev,
          config_.process_heading_stddev * config_.process_heading_stddev})) {
}

planning::RrtStarConfig KheperaPlatform::planner_config() const {
  planning::RrtStarConfig rrt_cfg;
  // Plan with clearance beyond the body radius: PID tracking deviates a few
  // centimeters from the planned line.
  rrt_cfg.robot_radius = robot_radius() + 0.14;
  return rrt_cfg;
}

sim::SensingStack KheperaPlatform::make_sensing(
    const attacks::Scenario& scenario) const {
  sim::LidarConfig lidar_cfg;
  lidar_cfg.fov = 2.0 * M_PI;  // 360° substitution, see header note
  lidar_cfg.beam_count = config_.lidar_beams;
  lidar_cfg.max_range = config_.lidar_max_range;
  lidar_cfg.range_noise_stddev = config_.lidar_beam_noise_stddev;

  auto odometry = std::make_shared<sim::DirectSensingWorkflow>(
      suite_.sensors()[kWheelEncoder]);
  auto ips =
      std::make_shared<sim::DirectSensingWorkflow>(suite_.sensors()[kIps]);
  const double on = config_.lidar_output_noise_stddev;
  auto lidar = std::make_shared<sim::LidarSensingWorkflow>(
      world_, lidar_cfg, sim::ScanProcessorConfig{}, config_.start_pose,
      Vector{on, on, on, on});

  for (const auto& w :
       {std::static_pointer_cast<sim::SensingWorkflow>(odometry),
        std::static_pointer_cast<sim::SensingWorkflow>(ips),
        std::static_pointer_cast<sim::SensingWorkflow>(lidar)}) {
    for (const attacks::InjectorPtr& inj :
         scenario.injectors_for(InjectionPoint::kSensorOutput, w->name())) {
      w->attach_output_injector(inj);
    }
  }
  for (const attacks::InjectorPtr& inj :
       scenario.injectors_for(InjectionPoint::kLidarRawScan, "lidar")) {
    lidar->attach_raw_injector(inj);
  }
  return sim::SensingStack({odometry, ips, lidar});
}

sim::ActuationWorkflow KheperaPlatform::make_actuation(
    const attacks::Scenario& scenario) const {
  sim::ActuationWorkflow actuation("wheels");
  for (const attacks::InjectorPtr& inj :
       scenario.injectors_for(InjectionPoint::kActuatorCommand, "wheels")) {
    actuation.attach_injector(inj);
  }
  return actuation;
}

std::unique_ptr<Controller> KheperaPlatform::make_controller(Rng& rng) const {
  return std::make_unique<KheperaController>(*this, rng);
}

std::string KheperaPlatform::condition_name(
    const std::vector<std::size_t>& corrupted) const {
  // Table III over {W=wheel encoder, I=IPS, L=LiDAR}.
  static const std::map<std::vector<std::size_t>, std::string> kNames = {
      {{}, "S0"},
      {{kIps}, "S1"},
      {{kWheelEncoder}, "S2"},
      {{kLidar}, "S3"},
      {{kWheelEncoder, kLidar}, "S4"},
      {{kIps, kLidar}, "S5"},
      {{kWheelEncoder, kIps}, "S6"},
  };
  const auto it = kNames.find(corrupted);
  if (it != kNames.end()) return it->second;
  return "S{all}";  // every sensor flagged — outside Table III's set
}

}  // namespace roboads::eval

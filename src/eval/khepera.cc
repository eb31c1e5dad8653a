#include "eval/khepera.h"

#include <map>

#include "planning/tracker.h"
#include "sensors/standard_sensors.h"

namespace roboads::eval {
namespace {

using attacks::Attachment;
using attacks::BiasInjector;
using attacks::BlockSectorInjector;
using attacks::InjectionPoint;
using attacks::ReplaceInjector;
using attacks::Scenario;
using attacks::Window;

// Attack phase boundaries shared by the Table II scenarios: single-phase
// attacks trigger at 6 s into a 25 s mission; multi-phase scenarios add
// phases at 12 s and stop one at 18 s (mirroring #10's S0→3→5→1 timeline).
constexpr std::size_t kPhase1 = 60;
constexpr std::size_t kPhase2 = 120;
constexpr std::size_t kPhase3 = 180;
constexpr std::size_t kForever = static_cast<std::size_t>(-1);

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

attacks::Scenario KheperaPlatform::clean_scenario() const {
  return Scenario("clean", "no attacks or failures", {});
}

std::vector<attacks::Scenario> KheperaPlatform::extended_scenarios() const {
  std::vector<Scenario> out;
  out.push_back(Scenario(
      "X1 IPS replay (stuck-at)",
      "recorded IPS packets replayed on the bus for 6 s: readings freeze "
      "at the last clean value (sensor/cyber)",
      {{InjectionPoint::kSensorOutput, "ips",
        std::make_shared<attacks::StuckAtInjector>(
            Window{kPhase1, kPhase2})}}));
  out.push_back(Scenario(
      "X2 odometry gain miscalibration",
      "wheel-encoder processing scales distances by 12% (sensor/cyber)",
      {{InjectionPoint::kSensorOutput, "wheel_encoder",
        std::make_shared<attacks::ScaleInjector>(
            Window{kPhase1, kForever}, Vector{1.12, 1.12, 1.0})}}));
  out.push_back(Scenario(
      "X3 IPS heading drift",
      "gyro-style slow drift on the IPS heading channel "
      "(sensor/physical): 5 mrad per iteration",
      {{InjectionPoint::kSensorOutput, "ips",
        std::make_shared<attacks::RampInjector>(Window{kPhase1, kForever},
                                                Vector{0.0, 0.0, 0.005})}}));
  out.push_back(Scenario(
      "X4 coordinated simultaneous attack",
      "IPS and wheel encoder corrupted in the same iteration — the "
      "coordinated multi-workflow attack §II-B calls 'a great challenge' "
      "to launch",
      {{InjectionPoint::kSensorOutput, "ips",
        std::make_shared<BiasInjector>(Window{kPhase1, kForever},
                                       Vector{0.08, 0.0, 0.0})},
       {InjectionPoint::kSensorOutput, "wheel_encoder",
        std::make_shared<attacks::RampInjector>(
            Window{kPhase1, kForever}, Vector{0.001, 0.0, -0.022})}}));
  out.push_back(Scenario(
      "X5 drive gain fault (runaway)",
      "drive stage amplifies both wheel commands 3.5x — a runaway that keeps "
      "steering authority (actuator/hardware failure). Note: common-mode "
      "speed anomalies are structurally harder to see than differential "
      "ones (position carries less per-step information than heading), so "
      "the detectable gain is higher than the wheel-bomb magnitudes",
      {{InjectionPoint::kActuatorCommand, "wheels",
        std::make_shared<attacks::ScaleInjector>(Window{kPhase1, kForever},
                                                 Vector{3.5, 3.5})}}));
  return out;
}

std::vector<attacks::Scenario> KheperaPlatform::table2_scenarios() const {
  std::vector<Scenario> out;
  out.reserve(11);
  for (std::size_t n = 1; n <= 11; ++n) out.push_back(table2_scenario(n));
  return out;
}

attacks::Scenario KheperaPlatform::table2_scenario(std::size_t number) const {
  // ±6000 Khepera speed units = ±0.04 m/s (§V-B).
  const double kBombSpeed = dyn::khepera_units_to_mps(6000.0);
  // "+100 steps on the left wheel encoder": the encoder workflow integrates
  // tick counts into its odometry pose, so a per-reading tick increment is a
  // *growing* pose-space corruption — per iteration, a left-wheel advance of
  // δ ≈ 0.002 m shifts the dead-reckoned pose by δ/2 along the heading and
  // the heading itself by −δ/b ≈ −0.022 rad. (Modeling it as a ramp rather
  // than a constant bias matters: an integrating corruption can never be
  // statically absorbed into the state by the corrupted-reference mode, which
  // is why the paper's S2 identifications stay stable.)
  const Vector kEncoderBombSlope{0.001, 0.0, -0.022};

  switch (number) {
    case 1:
      return Scenario(
          "#1 wheel controller logic bomb",
          "logic bomb in actuator utility lib alters planned commands "
          "(actuator/cyber): -6000 units on vL, +6000 on vR",
          {{InjectionPoint::kActuatorCommand, "wheels",
            std::make_shared<BiasInjector>(
                Window{kPhase1, kForever},
                Vector{-kBombSpeed, kBombSpeed})}});
    case 2:
      return Scenario(
          "#2 wheel jamming",
          "left wheel physically jammed (actuator/physical): vL forced to 0",
          {{InjectionPoint::kActuatorCommand, "wheels",
            std::make_shared<ReplaceInjector>(Window{kPhase1, kForever},
                                              std::vector<bool>{true, false},
                                              Vector{0.0, 0.0})}});
    case 3:
      return Scenario(
          "#3 IPS logic bomb",
          "logic bomb in IPS data processing lib (sensor/cyber): "
          "shift +0.07 m on X",
          {{InjectionPoint::kSensorOutput, "ips",
            std::make_shared<BiasInjector>(Window{kPhase1, kForever},
                                           Vector{0.07, 0.0, 0.0})}});
    case 4:
      return Scenario(
          "#4 IPS spoofing",
          "fake IPS signal overpowers authentic source (sensor/physical): "
          "shift -0.1 m on X",
          {{InjectionPoint::kSensorOutput, "ips",
            std::make_shared<BiasInjector>(Window{kPhase1, kForever},
                                           Vector{-0.1, 0.0, 0.0})}});
    case 5:
      return Scenario(
          "#5 wheel encoder logic bomb",
          "logic bomb in wheel encoder processing lib (sensor/cyber): "
          "+100 steps on the left encoder",
          {{InjectionPoint::kSensorOutput, "wheel_encoder",
            std::make_shared<attacks::RampInjector>(Window{kPhase1, kForever},
                                                    kEncoderBombSlope)}});
    case 6:
      return Scenario(
          "#6 LiDAR DoS",
          "LiDAR wire cut (sensor/physical): 0 m readings in every direction",
          {{InjectionPoint::kLidarRawScan, "lidar",
            std::make_shared<ReplaceInjector>(Window{kPhase1, kForever},
                                              config_.lidar_beams, 0.0)}});
    case 7:
      return Scenario(
          "#7 LiDAR sensor blocking",
          "laser ejection/reception blocked (sensor/physical): a scan "
          "sector reads an obstruction instead of the wall",
          // A flat board ~0.15 m over the scanner's rear window (the
          // west-facing view for this mission's headings; two injector
          // segments compose one physical plane across the scan's ±π
          // wrap): it occludes the true left wall and presents a clean,
          // well-supported line the wall matching accepts instead — "the
          // received distance reading to the left wall is incorrect", the
          // paper's observed symptom.
          {{InjectionPoint::kLidarRawScan, "lidar",
            std::make_shared<attacks::FlatObstructionInjector>(
                Window{kPhase1, kForever}, 62, config_.lidar_beams, 0.15,
                2.0 * M_PI, config_.lidar_beams, M_PI)},
           {InjectionPoint::kLidarRawScan, "lidar",
            std::make_shared<attacks::FlatObstructionInjector>(
                Window{kPhase1, kForever}, 0, 19, 0.15, 2.0 * M_PI,
                config_.lidar_beams, -M_PI)}});
    case 8:
      return Scenario(
          "#8 wheel controller & IPS logic bomb",
          "both wheel commands and IPS readings altered "
          "(sensor & actuator / cyber)",
          {{InjectionPoint::kSensorOutput, "ips",
            std::make_shared<BiasInjector>(Window{40, kForever},
                                           Vector{0.07, 0.0, 0.0})},
           {InjectionPoint::kActuatorCommand, "wheels",
            std::make_shared<BiasInjector>(
                Window{100, kForever}, Vector{-kBombSpeed, kBombSpeed})}});
    case 9:
      return Scenario(
          "#9 LiDAR DoS & wheel encoder logic bomb",
          "encoder readings altered, then LiDAR blocked "
          "(sensor / cyber & physical): S0→2→4",
          {{InjectionPoint::kSensorOutput, "wheel_encoder",
            std::make_shared<attacks::RampInjector>(Window{kPhase1, kForever},
                                                    kEncoderBombSlope)},
           {InjectionPoint::kLidarRawScan, "lidar",
            std::make_shared<ReplaceInjector>(Window{kPhase2, kForever},
                                              config_.lidar_beams, 0.0)}});
    case 10:
      return Scenario(
          "#10 IPS spoofing & LiDAR DoS",
          "LiDAR blocked, IPS spoofed, LiDAR restored "
          "(sensor/physical): S0→3→5→1",
          {{InjectionPoint::kLidarRawScan, "lidar",
            std::make_shared<ReplaceInjector>(Window{kPhase1, kPhase3},
                                              config_.lidar_beams, 0.0)},
           {InjectionPoint::kSensorOutput, "ips",
            std::make_shared<BiasInjector>(Window{kPhase2, kForever},
                                           Vector{0.07, 0.0, 0.0})}});
    case 11:
      return Scenario(
          "#11 IPS & wheel encoder logic bomb",
          "encoder readings altered, then IPS altered (sensor/cyber): "
          "S0→2→6",
          {{InjectionPoint::kSensorOutput, "wheel_encoder",
            std::make_shared<attacks::RampInjector>(Window{kPhase1, kForever},
                                                    kEncoderBombSlope)},
           {InjectionPoint::kSensorOutput, "ips",
            std::make_shared<BiasInjector>(Window{kPhase2, kForever},
                                           Vector{0.1, 0.0, 0.0})}});
    default:
      ROBOADS_CHECK(false, "Table II scenario number must be 1..11");
      return clean_scenario();  // unreachable
  }
}

}  // namespace roboads::eval

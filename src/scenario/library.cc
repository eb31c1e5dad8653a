// The only definition of the built-in attack scenarios. Every mission each
// one flies at its legacy bench seed is pinned by
// tests/data/library_outcomes.txt (tests/scenario_library_test.cc), so an
// edit here that changes a mission fails that golden.
#include "scenario/library.h"

#include <cmath>

#include "dynamics/diff_drive.h"

namespace roboads::scenario {
namespace {

// The Table II trigger timeline: single-phase attacks trigger at 6 s into a
// 25 s mission; multi-phase scenarios add phases at 12 s and stop one at
// 18 s (mirroring #10's S0→3→5→1 timeline).
constexpr std::size_t kPhase1 = 60;
constexpr std::size_t kPhase2 = 120;
constexpr std::size_t kPhase3 = 180;

AttackSpec attack(AttackShape shape, Target target, std::string workflow,
                  std::size_t onset, std::size_t duration,
                  Vector magnitude = {}) {
  AttackSpec a;
  a.shape = shape;
  a.target = target;
  a.workflow = std::move(workflow);
  a.onset = onset;
  a.duration = duration;
  a.magnitude = std::move(magnitude);
  return a;
}

AttackSpec obstruction(std::size_t onset, std::size_t first_beam,
                       std::size_t last_beam, double distance,
                       double center_angle) {
  AttackSpec a;
  a.shape = AttackShape::kFlatObstruction;
  a.target = Target::kLidarRaw;
  a.workflow = "lidar";
  a.onset = onset;
  a.duration = kForever;
  a.first_beam = first_beam;
  a.last_beam = last_beam;
  a.distance = distance;
  a.center_angle = center_angle;
  return a;
}

ScenarioSpec khepera_spec(std::string name, std::string description,
                          std::vector<AttackSpec> attacks) {
  ScenarioSpec spec;
  spec.name = std::move(name);
  spec.description = std::move(description);
  spec.platform = "khepera";
  spec.attacks = std::move(attacks);
  return spec;
}

}  // namespace

ScenarioSpec khepera_table2_spec(std::size_t number) {
  // ±6000 Khepera speed units = ±0.04 m/s (§V-B).
  const double bomb = dyn::khepera_units_to_mps(6000.0);
  // "+100 steps on the left wheel encoder": the encoder workflow integrates
  // tick counts into its odometry pose, so a per-reading tick increment is a
  // *growing* pose-space corruption — per iteration, a left-wheel advance of
  // δ ≈ 0.002 m shifts the dead-reckoned pose by δ/2 along the heading and
  // the heading itself by −δ/b ≈ −0.022 rad. (Modeling it as a ramp rather
  // than a constant bias matters: an integrating corruption can never be
  // statically absorbed into the state by the corrupted-reference mode, which
  // is why the paper's S2 identifications stay stable.)
  const Vector encoder_bomb_slope{0.001, 0.0, -0.022};

  switch (number) {
    case 1:
      return khepera_spec(
          "#1 wheel controller logic bomb",
          "logic bomb in actuator utility lib alters planned commands "
          "(actuator/cyber): -6000 units on vL, +6000 on vR",
          {attack(AttackShape::kBias, Target::kActuator, "wheels", kPhase1,
                  kForever, Vector{-bomb, bomb})});
    case 2: {
      AttackSpec jam = attack(AttackShape::kReplace, Target::kActuator,
                              "wheels", kPhase1, kForever, Vector{0.0, 0.0});
      jam.mask = {true, false};
      return khepera_spec(
          "#2 wheel jamming",
          "left wheel physically jammed (actuator/physical): vL forced to 0",
          {std::move(jam)});
    }
    case 3:
      return khepera_spec(
          "#3 IPS logic bomb",
          "logic bomb in IPS data processing lib (sensor/cyber): "
          "shift +0.07 m on X",
          {attack(AttackShape::kBias, Target::kSensor, "ips", kPhase1,
                  kForever, Vector{0.07, 0.0, 0.0})});
    case 4:
      return khepera_spec(
          "#4 IPS spoofing",
          "fake IPS signal overpowers authentic source (sensor/physical): "
          "shift -0.1 m on X",
          {attack(AttackShape::kBias, Target::kSensor, "ips", kPhase1,
                  kForever, Vector{-0.1, 0.0, 0.0})});
    case 5:
      return khepera_spec(
          "#5 wheel encoder logic bomb",
          "logic bomb in wheel encoder processing lib (sensor/cyber): "
          "+100 steps on the left encoder",
          {attack(AttackShape::kRamp, Target::kSensor, "wheel_encoder",
                  kPhase1, kForever, encoder_bomb_slope)});
    case 6:
      return khepera_spec(
          "#6 LiDAR DoS",
          "LiDAR wire cut (sensor/physical): 0 m readings in every direction",
          {attack(AttackShape::kReplace, Target::kLidarRaw, "lidar", kPhase1,
                  kForever, Vector{0.0})});
    case 7:
      return khepera_spec(
          "#7 LiDAR sensor blocking",
          "laser ejection/reception blocked (sensor/physical): a scan "
          "sector reads an obstruction instead of the wall",
          // A flat board ~0.15 m over the scanner's rear window (the
          // west-facing view for this mission's headings; two segments
          // compose one physical plane across the scan's ±π wrap): it
          // occludes the true left wall and presents a clean, well-supported
          // line the wall matching accepts instead — "the received distance
          // reading to the left wall is incorrect", the paper's observed
          // symptom.
          {obstruction(kPhase1, 62, 81, 0.15, M_PI),
           obstruction(kPhase1, 0, 19, 0.15, -M_PI)});
    case 8:
      return khepera_spec(
          "#8 wheel controller & IPS logic bomb",
          "both wheel commands and IPS readings altered "
          "(sensor & actuator / cyber)",
          {attack(AttackShape::kBias, Target::kSensor, "ips", 40, kForever,
                  Vector{0.07, 0.0, 0.0}),
           attack(AttackShape::kBias, Target::kActuator, "wheels", 100,
                  kForever, Vector{-bomb, bomb})});
    case 9:
      return khepera_spec(
          "#9 LiDAR DoS & wheel encoder logic bomb",
          "encoder readings altered, then LiDAR blocked "
          "(sensor / cyber & physical): S0→2→4",
          {attack(AttackShape::kRamp, Target::kSensor, "wheel_encoder",
                  kPhase1, kForever, encoder_bomb_slope),
           attack(AttackShape::kReplace, Target::kLidarRaw, "lidar", kPhase2,
                  kForever, Vector{0.0})});
    case 10:
      return khepera_spec(
          "#10 IPS spoofing & LiDAR DoS",
          "LiDAR blocked, IPS spoofed, LiDAR restored "
          "(sensor/physical): S0→3→5→1",
          {attack(AttackShape::kReplace, Target::kLidarRaw, "lidar", kPhase1,
                  kPhase3 - kPhase1, Vector{0.0}),
           attack(AttackShape::kBias, Target::kSensor, "ips", kPhase2,
                  kForever, Vector{0.07, 0.0, 0.0})});
    case 11:
      return khepera_spec(
          "#11 IPS & wheel encoder logic bomb",
          "encoder readings altered, then IPS altered (sensor/cyber): "
          "S0→2→6",
          {attack(AttackShape::kRamp, Target::kSensor, "wheel_encoder",
                  kPhase1, kForever, encoder_bomb_slope),
           attack(AttackShape::kBias, Target::kSensor, "ips", kPhase2,
                  kForever, Vector{0.1, 0.0, 0.0})});
    default:
      throw SpecError("Table II scenario number must be 1..11, got " +
                      std::to_string(number));
  }
}

std::vector<ScenarioSpec> khepera_table2_specs() {
  std::vector<ScenarioSpec> out;
  out.reserve(11);
  for (std::size_t n = 1; n <= 11; ++n) out.push_back(khepera_table2_spec(n));
  return out;
}

std::vector<ScenarioSpec> khepera_extended_specs() {
  std::vector<ScenarioSpec> out;
  out.push_back(khepera_spec(
      "X1 IPS replay (stuck-at)",
      "recorded IPS packets replayed on the bus for 6 s: readings freeze "
      "at the last clean value (sensor/cyber)",
      {attack(AttackShape::kFreeze, Target::kSensor, "ips", kPhase1,
              kPhase2 - kPhase1)}));
  out.push_back(khepera_spec(
      "X2 odometry gain miscalibration",
      "wheel-encoder processing scales distances by 12% (sensor/cyber)",
      {attack(AttackShape::kScale, Target::kSensor, "wheel_encoder", kPhase1,
              kForever, Vector{1.12, 1.12, 1.0})}));
  out.push_back(khepera_spec(
      "X3 IPS heading drift",
      "gyro-style slow drift on the IPS heading channel "
      "(sensor/physical): 5 mrad per iteration",
      {attack(AttackShape::kRamp, Target::kSensor, "ips", kPhase1, kForever,
              Vector{0.0, 0.0, 0.005})}));
  out.push_back(khepera_spec(
      "X4 coordinated simultaneous attack",
      "IPS and wheel encoder corrupted in the same iteration — the "
      "coordinated multi-workflow attack §II-B calls 'a great challenge' "
      "to launch",
      {attack(AttackShape::kBias, Target::kSensor, "ips", kPhase1, kForever,
              Vector{0.08, 0.0, 0.0}),
       attack(AttackShape::kRamp, Target::kSensor, "wheel_encoder", kPhase1,
              kForever, Vector{0.001, 0.0, -0.022})}));
  out.push_back(khepera_spec(
      "X5 drive gain fault (runaway)",
      "drive stage amplifies both wheel commands 3.5x — a runaway that keeps "
      "steering authority (actuator/hardware failure). Note: common-mode "
      "speed anomalies are structurally harder to see than differential "
      "ones (position carries less per-step information than heading), so "
      "the detectable gain is higher than the wheel-bomb magnitudes",
      {attack(AttackShape::kScale, Target::kActuator, "wheels", kPhase1,
              kForever, Vector{3.5, 3.5})}));
  return out;
}

std::vector<ScenarioSpec> tamiya_battery_specs() {
  const auto tamiya_spec = [](std::string name, std::string description,
                              std::vector<AttackSpec> attacks) {
    ScenarioSpec spec;
    spec.name = std::move(name);
    spec.description = std::move(description);
    spec.platform = "tamiya";
    spec.attacks = std::move(attacks);
    return spec;
  };

  std::vector<ScenarioSpec> out;
  out.push_back(tamiya_spec(
      "T1 unintended acceleration",
      "drive-by-wire software defect adds +0.4 m/s to the commanded speed "
      "(actuator/cyber, the paper's Toyota example)",
      {attack(AttackShape::kBias, Target::kActuator, "drivetrain", kPhase1,
              kForever, Vector{0.4, 0.0})}));
  out.push_back(tamiya_spec(
      "T2 steering takeover",
      "injected steering command packets (actuator/cyber)",
      {attack(AttackShape::kBias, Target::kActuator, "drivetrain", kPhase1,
              kForever, Vector{0.0, 0.35})}));
  out.push_back(tamiya_spec(
      "T3 IPS spoofing",
      "fake positioning base shifts Y by -0.15 m (sensor/physical)",
      {attack(AttackShape::kBias, Target::kSensor, "ips", kPhase1, kForever,
              Vector{0.0, -0.15, 0.0})}));
  out.push_back(tamiya_spec(
      "T4 IMU drift fault",
      "inertial navigation filter fault biases the pose (sensor/cyber)",
      {attack(AttackShape::kBias, Target::kSensor, "imu", kPhase1, kForever,
              Vector{0.3, 0.2, 0.0})}));
  out.push_back(tamiya_spec(
      "T5 LiDAR DoS",
      "LiDAR connection cut: 0 m in every direction (sensor/physical)",
      {attack(AttackShape::kReplace, Target::kLidarRaw, "lidar", kPhase1,
              kForever, Vector{0.0})}));
  out.push_back(tamiya_spec(
      "T6 IPS spoof & steering takeover",
      "combined sensor and actuator attack (cyber)",
      {attack(AttackShape::kBias, Target::kSensor, "ips", kPhase1, kForever,
              Vector{0.12, 0.0, 0.0}),
       attack(AttackShape::kBias, Target::kActuator, "drivetrain", kPhase2,
              kForever, Vector{0.0, 0.32})}));
  out.push_back(tamiya_spec(
      "T7 IMU fault & unintended acceleration",
      "inertial navigation fault followed by a speed-command defect "
      "(sensor & actuator)",
      {attack(AttackShape::kBias, Target::kSensor, "imu", kPhase1, kForever,
              Vector{0.3, -0.25, 0.0}),
       attack(AttackShape::kBias, Target::kActuator, "drivetrain", kPhase2,
              kForever, Vector{0.4, 0.0})}));
  return out;
}

std::vector<ScenarioSpec> all_library_specs() {
  std::vector<ScenarioSpec> out = khepera_table2_specs();
  for (ScenarioSpec& spec : khepera_extended_specs()) {
    out.push_back(std::move(spec));
  }
  for (ScenarioSpec& spec : tamiya_battery_specs()) {
    out.push_back(std::move(spec));
  }
  return out;
}

}  // namespace roboads::scenario

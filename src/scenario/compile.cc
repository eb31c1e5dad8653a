#include "scenario/compile.h"

#include <algorithm>
#include <cmath>

#include "eval/khepera.h"
#include "eval/scoring.h"
#include "eval/tamiya.h"

namespace roboads::scenario {
namespace {

[[noreturn]] void spec_error(const ScenarioSpec& spec,
                             const std::string& message) {
  throw SpecError("spec \"" + spec.name + "\": " + message);
}

// Dimension of the data vector an attack corrupts.
std::size_t target_dim(const ScenarioSpec& spec, const AttackSpec& attack,
                       const eval::Platform& platform,
                       const PlatformTraits& traits) {
  switch (attack.target) {
    case Target::kSensor: {
      const sensors::SensorSuite& suite = platform.suite();
      for (std::size_t i = 0; i < suite.count(); ++i) {
        if (suite.sensor(i).name() == attack.workflow) {
          return suite.sensor(i).dim();
        }
      }
      spec_error(spec, "unknown sensor workflow \"" + attack.workflow + "\"");
    }
    case Target::kLidarRaw:
      if (traits.lidar_beams == 0) {
        spec_error(spec, "platform has no raw LiDAR scan to attack");
      }
      if (attack.workflow != "lidar") {
        spec_error(spec, "lidar-raw attacks must target workflow \"lidar\"");
      }
      return traits.lidar_beams;
    case Target::kActuator:
      if (attack.workflow != traits.actuator_workflow) {
        spec_error(spec, "unknown actuation workflow \"" + attack.workflow +
                             "\" (platform's is \"" +
                             traits.actuator_workflow + "\")");
      }
      return traits.actuator_dim;
  }
  spec_error(spec, "corrupt attack target");
}

void validate_attack(const ScenarioSpec& spec, const AttackSpec& attack,
                     const eval::Platform& platform,
                     const PlatformTraits& traits) {
  // Window validation first: these are the two edge cases the enum-era
  // injectors mishandled — an onset at or beyond the mission horizon was
  // accepted silently (an attack that never fires but still reads as a
  // scenario), and a zero duration crashed injector construction with a
  // CheckError instead of rejecting the input (tests/scenario_spec_test.cc
  // pins both as SpecErrors).
  if (attack.onset >= spec.iterations) {
    spec_error(spec, "attack onset " + std::to_string(attack.onset) +
                         " is at or beyond the mission horizon of " +
                         std::to_string(spec.iterations) + " iterations");
  }
  if (attack.duration == 0) {
    spec_error(spec, "attack duration must be positive (zero-duration "
                     "attacks would silently never fire)");
  }
  if (attack.duration != kForever &&
      attack.duration > kForever - attack.onset) {
    spec_error(spec, "attack window overflows; use duration \"forever\"");
  }
  const std::size_t dim = target_dim(spec, attack, platform, traits);

  const auto expect_magnitude_dim = [&](const char* what) {
    if (attack.magnitude.size() != dim) {
      spec_error(spec, std::string(what) + " magnitude must have " +
                           std::to_string(dim) + " components for \"" +
                           attack.workflow + "\", got " +
                           std::to_string(attack.magnitude.size()));
    }
  };

  switch (attack.shape) {
    case AttackShape::kBias:
      expect_magnitude_dim("bias");
      break;
    case AttackShape::kRamp:
      expect_magnitude_dim("ramp");
      break;
    case AttackShape::kScale:
      expect_magnitude_dim("scale");
      break;
    case AttackShape::kNoise:
      expect_magnitude_dim("noise");
      for (std::size_t i = 0; i < attack.magnitude.size(); ++i) {
        if (attack.magnitude[i] < 0.0) {
          spec_error(spec, "noise stddevs must be non-negative");
        }
      }
      break;
    case AttackShape::kReplace:
      if (attack.mask.empty()) {
        if (attack.magnitude.size() != 1 && attack.magnitude.size() != dim) {
          spec_error(spec, "maskless replace magnitude must be a single "
                           "broadcast value or one value per component");
        }
      } else {
        if (attack.mask.size() != dim) {
          spec_error(spec, "replace mask must have " + std::to_string(dim) +
                               " entries for \"" + attack.workflow + "\"");
        }
        if (attack.magnitude.size() != dim) {
          spec_error(spec, "masked replace magnitude must have " +
                               std::to_string(dim) + " components");
        }
      }
      break;
    case AttackShape::kFreeze:
      if (!attack.magnitude.empty()) {
        spec_error(spec, "freeze attacks take no magnitude");
      }
      break;
    case AttackShape::kFlatObstruction: {
      if (attack.target != Target::kLidarRaw) {
        spec_error(spec, "flat-obstruction attacks apply to lidar-raw only");
      }
      if (attack.first_beam >= attack.last_beam ||
          attack.last_beam > traits.lidar_beams) {
        spec_error(spec, "invalid obstruction beam sector [" +
                             std::to_string(attack.first_beam) + ", " +
                             std::to_string(attack.last_beam) + ") of " +
                             std::to_string(traits.lidar_beams) + " beams");
      }
      if (attack.distance <= 0.0) {
        spec_error(spec, "obstruction distance must be positive");
      }
      // The flat board must stay in front of every covered beam (mirrors
      // FlatObstructionInjector's geometry check, surfaced as a SpecError).
      const auto beam_angle = [&](std::size_t beam) {
        return (static_cast<double>(beam) /
                    static_cast<double>(traits.lidar_beams - 1) -
                0.5) *
               traits.lidar_fov;
      };
      const double center = attack.center_angle.value_or(
          0.5 * (beam_angle(attack.first_beam) +
                 beam_angle(attack.last_beam - 1)));
      for (std::size_t i = attack.first_beam; i < attack.last_beam; ++i) {
        if (std::abs(beam_angle(i) - center) >= M_PI / 2.0 - 0.03) {
          spec_error(spec, "obstruction sector too wide for a flat board");
        }
      }
      break;
    }
  }
}

// Mirrors TransportFaultModel's constructor checks (plus spec-level window
// sanity) as SpecErrors: a bad faults stanza is bad *input*, and must be
// rejected before the sim layer can trip an internal CheckError on it.
void validate_fault(const ScenarioSpec& spec, const FaultSpec& fault,
                    const eval::Platform& platform) {
  const sensors::SensorSuite& suite = platform.suite();
  bool known = false;
  for (std::size_t i = 0; i < suite.count(); ++i) {
    if (suite.sensor(i).name() == fault.sensor) {
      known = true;
      break;
    }
  }
  if (!known) {
    spec_error(spec, "unknown fault sensor \"" + fault.sensor + "\"");
  }
  if (fault.drop_rate < 0.0 || fault.stale_rate < 0.0 ||
      fault.duplicate_rate < 0.0) {
    spec_error(spec, "fault rates must be non-negative");
  }
  if (fault.drop_rate + fault.stale_rate + fault.duplicate_rate > 1.0) {
    spec_error(spec, "fault rates for \"" + fault.sensor +
                         "\" must sum to at most 1");
  }
  if (fault.freeze_duration > 0 && fault.freeze_at == 0) {
    spec_error(spec, "fault freeze window needs freeze-at >= 1");
  }
  if (fault.freeze_duration > 0 && fault.freeze_at >= spec.iterations) {
    spec_error(spec, "fault freeze-at " + std::to_string(fault.freeze_at) +
                         " is at or beyond the mission horizon of " +
                         std::to_string(spec.iterations) + " iterations");
  }
}

void validate_faults(const ScenarioSpec& spec,
                     const eval::Platform& platform) {
  for (std::size_t i = 0; i < spec.faults.size(); ++i) {
    validate_fault(spec, spec.faults[i], platform);
    for (std::size_t j = 0; j < i; ++j) {
      if (spec.faults[j].sensor == spec.faults[i].sensor) {
        spec_error(spec, "duplicate fault stanza for sensor \"" +
                             spec.faults[i].sensor + "\"");
      }
    }
  }
}

attacks::Window window_of(const AttackSpec& attack) {
  attacks::Window window;
  window.start = attack.onset;
  window.end = attack.duration == kForever ? kForever
                                           : attack.onset + attack.duration;
  return window;
}

attacks::InjectorPtr build_injector(const AttackSpec& attack,
                                    std::size_t dim, double lidar_fov,
                                    std::size_t lidar_beams) {
  const attacks::Window window = window_of(attack);
  switch (attack.shape) {
    case AttackShape::kBias:
      return std::make_shared<attacks::BiasInjector>(window, attack.magnitude);
    case AttackShape::kRamp:
      return std::make_shared<attacks::RampInjector>(window, attack.magnitude);
    case AttackShape::kScale:
      return std::make_shared<attacks::ScaleInjector>(window,
                                                      attack.magnitude);
    case AttackShape::kNoise:
      return std::make_shared<attacks::NoiseInjector>(
          window, attack.magnitude, attack.noise_seed);
    case AttackShape::kFreeze:
      return std::make_shared<attacks::StuckAtInjector>(window);
    case AttackShape::kReplace:
      if (attack.mask.empty()) {
        if (attack.magnitude.size() == 1) {
          return std::make_shared<attacks::ReplaceInjector>(
              window, dim, attack.magnitude[0]);
        }
        return std::make_shared<attacks::ReplaceInjector>(
            window, std::vector<bool>(dim, true), attack.magnitude);
      }
      return std::make_shared<attacks::ReplaceInjector>(window, attack.mask,
                                                        attack.magnitude);
    case AttackShape::kFlatObstruction:
      return std::make_shared<attacks::FlatObstructionInjector>(
          window, attack.first_beam, attack.last_beam, attack.distance,
          lidar_fov, lidar_beams, attack.center_angle);
  }
  throw SpecError("corrupt attack shape");
}

attacks::InjectionPoint point_of(Target target) {
  switch (target) {
    case Target::kSensor: return attacks::InjectionPoint::kSensorOutput;
    case Target::kLidarRaw: return attacks::InjectionPoint::kLidarRawScan;
    case Target::kActuator: return attacks::InjectionPoint::kActuatorCommand;
  }
  throw SpecError("corrupt attack target");
}

// The faults stanza on the bus-layer transport-fault model, for a spec
// compile_spec has validated. Inactive (empty) when the spec has none.
sim::TransportFaultConfig transport_faults_of(const ScenarioSpec& spec) {
  sim::TransportFaultConfig config;
  config.seed = spec.fault_seed;
  config.sensors.reserve(spec.faults.size());
  for (const FaultSpec& f : spec.faults) {
    sim::SensorFaultSpec s;
    s.sensor = f.sensor;
    s.drop_rate = f.drop_rate;
    s.stale_rate = f.stale_rate;
    s.duplicate_rate = f.duplicate_rate;
    s.freeze_at = f.freeze_at;
    s.freeze_duration = f.freeze_duration;
    config.sensors.push_back(std::move(s));
  }
  return config;
}

}  // namespace

std::unique_ptr<eval::Platform> make_platform(const std::string& name) {
  const std::vector<std::string> names = eval::platform_names();
  if (std::find(names.begin(), names.end(), name) == names.end()) {
    throw SpecError("unknown platform \"" + name + "\"");
  }
  return eval::make_platform(name);
}

PlatformTraits platform_traits(const std::string& name) {
  if (name == "khepera") {
    PlatformTraits traits;
    traits.actuator_workflow = "wheels";
    traits.actuator_dim = 2;  // (vL, vR)
    traits.lidar_beams = eval::KheperaConfig{}.lidar_beams;
    traits.lidar_fov = 2.0 * M_PI;
    return traits;
  }
  if (name == "tamiya") {
    PlatformTraits traits;
    traits.actuator_workflow = "drivetrain";
    traits.actuator_dim = 2;  // (speed, steer)
    traits.lidar_beams = eval::TamiyaConfig{}.lidar_beams;
    traits.lidar_fov = 2.0 * M_PI;
    return traits;
  }
  throw SpecError("unknown platform \"" + name + "\"");
}

attacks::Scenario compile_spec(const ScenarioSpec& spec,
                               const eval::Platform& platform,
                               const PlatformTraits& traits) {
  if (spec.iterations == 0) spec_error(spec, "mission needs iterations > 0");
  std::vector<attacks::Attachment> attachments;
  attachments.reserve(spec.attacks.size());
  for (const AttackSpec& attack : spec.attacks) {
    validate_attack(spec, attack, platform, traits);
    const std::size_t dim = target_dim(spec, attack, platform, traits);
    attacks::Attachment attachment;
    attachment.point = point_of(attack.target);
    attachment.workflow = attack.workflow;
    attachment.injector = build_injector(attack, dim, traits.lidar_fov,
                                         traits.lidar_beams);
    attachments.push_back(std::move(attachment));
  }
  validate_faults(spec, platform);
  return attacks::Scenario(spec.name, spec.description,
                           std::move(attachments));
}

attacks::Scenario compile_spec(const ScenarioSpec& spec,
                               const eval::Platform& platform) {
  return compile_spec(spec, platform, platform_traits(spec.platform));
}

void validate_spec(const ScenarioSpec& spec) {
  const std::unique_ptr<eval::Platform> platform =
      make_platform(spec.platform);
  const PlatformTraits traits = platform_traits(spec.platform);
  if (spec.iterations == 0) spec_error(spec, "mission needs iterations > 0");
  for (const AttackSpec& attack : spec.attacks) {
    validate_attack(spec, attack, *platform, traits);
  }
  validate_faults(spec, *platform);
}

SpecMission lower_spec(const ScenarioSpec& spec) {
  std::unique_ptr<eval::Platform> platform = make_platform(spec.platform);
  attacks::Scenario scenario = compile_spec(spec, *platform);
  eval::MissionConfig config;
  config.iterations = spec.iterations;
  config.seed = spec.seed;
  config.transport_faults = transport_faults_of(spec);
  config.obs_label = spec.name + "/s" + std::to_string(spec.seed);
  return {std::move(platform), std::move(scenario), std::move(config)};
}

eval::ContainedRun fly_spec(const ScenarioSpec& spec,
                            const obs::Instruments& instruments) {
  SpecMission mission = lower_spec(spec);
  mission.config.instruments = instruments;
  return eval::run_contained(*mission.platform, mission.scenario,
                             mission.config);
}

bool sensor_detected(const eval::ScenarioScore& score) {
  for (const eval::DelayRecord& d : score.delays) {
    if (d.label != "actuator" && d.seconds) return true;
  }
  return false;
}

bool actuator_detected(const eval::ScenarioScore& score) {
  for (const eval::DelayRecord& d : score.delays) {
    if (d.label == "actuator" && d.seconds) return true;
  }
  return false;
}

}  // namespace roboads::scenario

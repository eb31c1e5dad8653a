#include "scenario/frontier.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "common/check.h"
#include "obs/jsonl.h"

namespace roboads::scenario {

FrontierResult map_frontier(const FrontierAxis& axis,
                            const FrontierConfig& config,
                            const obs::Instruments& instruments) {
  const bool actuator = axis.channel == "actuator";
  return map_frontier_with(
      axis,
      [&](double magnitude) {
        ScenarioSpec spec = axis.make(magnitude);
        spec.iterations = config.iterations;
        spec.seed = config.seed;
        char at[32];
        std::snprintf(at, sizeof at, "%g", magnitude);
        SpecMission mission = lower_spec(spec);
        mission.config.instruments = instruments;
        // Every probe of an axis shares the spec's name and seed: the
        // magnitude tells their trace events and bundles apart.
        mission.config.obs_label += std::string("@") + at;
        const eval::ContainedRun run = eval::run_contained(
            *mission.platform, mission.scenario, mission.config);
        if (run.failed()) {
          throw CheckError("frontier axis \"" + axis.id +
                           "\": probe at magnitude " + at +
                           " failed at step " +
                           std::to_string(run.failure->step) + ": " +
                           run.failure->what);
        }
        FrontierProbe probe;
        probe.magnitude = magnitude;
        probe.detected = actuator ? actuator_detected(run.score)
                                  : sensor_detected(run.score);
        if (probe.detected) {
          for (const eval::DelayRecord& d : run.score.delays) {
            if ((d.label == "actuator") == actuator && d.seconds &&
                (!probe.delay_seconds || *d.seconds < *probe.delay_seconds)) {
              probe.delay_seconds = d.seconds;
            }
          }
        }
        return probe;
      },
      config);
}

FrontierResult map_frontier_with(const FrontierAxis& axis,
                                 const ProbeFn& probe_fn,
                                 const FrontierConfig& config) {
  FrontierResult result;
  result.id = axis.id;
  result.attack_class = axis.attack_class;
  result.platform = axis.platform;
  result.channel = axis.channel;
  result.unit = axis.unit;

  const auto run_probe = [&](double magnitude) {
    result.probes.push_back(probe_fn(magnitude));
    return result.probes.back();
  };

  double lo = axis.lo;
  double hi = axis.hi;
  FrontierProbe at_lo = run_probe(lo);
  FrontierProbe at_hi = run_probe(hi);

  // Repair the bracket when the endpoint expectations miss: a detected lo
  // shrinks downward, an undetected hi grows upward. Whichever endpoint
  // still refuses to flip after the budget marks the axis degenerate.
  for (std::size_t i = 0;
       at_lo.detected && i < config.max_bracket_expansions; ++i) {
    lo *= 0.25;
    at_lo = run_probe(lo);
  }
  for (std::size_t i = 0;
       !at_hi.detected && i < config.max_bracket_expansions; ++i) {
    hi *= 4.0;
    at_hi = run_probe(hi);
  }
  if (at_lo.detected) {
    result.all_detected = true;
    result.caught_min = lo;
    result.delay_at_caught_seconds = at_lo.delay_seconds;
    return result;
  }
  if (!at_hi.detected) {
    result.none_detected = true;
    result.undetected_max = hi;
    return result;
  }

  // Bisect: invariant lo undetected, hi detected.
  std::optional<double> delay_at_hi = at_hi.delay_seconds;
  for (std::size_t step = 0; step < config.bisection_steps; ++step) {
    const double mid = 0.5 * (lo + hi);
    if (mid <= lo || mid >= hi) break;  // magnitudes no longer distinct
    const FrontierProbe at_mid = run_probe(mid);
    if (at_mid.detected) {
      hi = mid;
      delay_at_hi = at_mid.delay_seconds;
    } else {
      lo = mid;
    }
  }
  result.undetected_max = lo;
  result.caught_min = hi;
  result.delay_at_caught_seconds = delay_at_hi;
  return result;
}

namespace {

AttackSpec frontier_attack(AttackShape shape, Target target,
                           std::string workflow, Vector magnitude) {
  AttackSpec a;
  a.shape = shape;
  a.target = target;
  a.workflow = std::move(workflow);
  a.onset = 60;
  a.duration = kForever;
  a.magnitude = std::move(magnitude);
  return a;
}

ScenarioSpec frontier_spec(std::string platform, std::string id,
                           AttackSpec attack) {
  ScenarioSpec spec;
  spec.name = "frontier " + id;
  spec.description = "stealth-frontier probe";
  spec.platform = std::move(platform);
  spec.attacks.push_back(std::move(attack));
  return spec;
}

FrontierAxis sensor_axis(const std::string& platform, std::string id,
                         std::string attack_class, std::string sensor,
                         std::size_t dim, std::size_t component,
                         std::string unit, double lo, double hi) {
  FrontierAxis axis;
  axis.id = std::move(id);
  axis.attack_class = attack_class;
  axis.platform = platform;
  axis.channel = "sensor";
  axis.unit = std::move(unit);
  axis.lo = lo;
  axis.hi = hi;
  const AttackShape shape = attack_class == "bias" ? AttackShape::kBias
                            : attack_class == "ramp" ? AttackShape::kRamp
                                                     : AttackShape::kNoise;
  axis.make = [=](double m) {
    std::vector<double> mag(dim, 0.0);
    mag[component] = m;
    return frontier_spec(platform, axis.id,
                         frontier_attack(shape, Target::kSensor, sensor,
                                         Vector(std::move(mag))));
  };
  return axis;
}

FrontierAxis scale_axis(const std::string& platform, std::string id,
                        Target target, std::string workflow, std::size_t dim,
                        std::string channel, double lo, double hi) {
  FrontierAxis axis;
  axis.id = std::move(id);
  axis.attack_class = "scale";
  axis.platform = platform;
  axis.channel = std::move(channel);
  axis.unit = "gain-excess";  // magnitude m applies gain (1 + m) everywhere
  axis.lo = lo;
  axis.hi = hi;
  axis.make = [=](double m) {
    return frontier_spec(
        platform, axis.id,
        frontier_attack(AttackShape::kScale, target, workflow,
                        Vector(std::vector<double>(dim, 1.0 + m))));
  };
  return axis;
}

FrontierAxis freeze_axis(const std::string& platform, std::string id,
                         std::string sensor, double lo, double hi) {
  FrontierAxis axis;
  axis.id = std::move(id);
  axis.attack_class = "freeze";
  axis.platform = platform;
  axis.channel = "sensor";
  axis.unit = "iterations-held";
  axis.lo = lo;
  axis.hi = hi;
  axis.make = [=](double m) {
    AttackSpec a;
    a.shape = AttackShape::kFreeze;
    a.target = Target::kSensor;
    a.workflow = sensor;
    a.onset = 60;
    a.duration = std::max<std::size_t>(1, static_cast<std::size_t>(m));
    return frontier_spec(platform, axis.id, std::move(a));
  };
  return axis;
}

FrontierAxis actuator_bias_axis(const std::string& platform, std::string id,
                                std::string workflow, std::size_t dim,
                                std::size_t component, std::string unit,
                                double lo, double hi, double mirror) {
  FrontierAxis axis;
  axis.id = std::move(id);
  axis.attack_class = "bias";
  axis.platform = platform;
  axis.channel = "actuator";
  axis.unit = std::move(unit);
  axis.lo = lo;
  axis.hi = hi;
  // `mirror` puts -m on another component (the Table II differential wheel
  // bomb shape); mirror < 0 disables it.
  axis.make = [=](double m) {
    std::vector<double> mag(dim, 0.0);
    mag[component] = m;
    if (mirror >= 0.0 && static_cast<std::size_t>(mirror) != component) {
      mag[static_cast<std::size_t>(mirror)] = -m;
    }
    return frontier_spec(platform, axis.id,
                         frontier_attack(AttackShape::kBias, Target::kActuator,
                                         workflow, Vector(std::move(mag))));
  };
  return axis;
}

}  // namespace

std::vector<FrontierAxis> standard_axes(const std::string& platform) {
  std::vector<FrontierAxis> axes;
  if (platform == "khepera") {
    axes.push_back(sensor_axis(platform, "ips-bias-x", "bias", "ips", 3, 0,
                               "meters", 0.002, 0.2));
    axes.push_back(sensor_axis(platform, "ips-ramp-heading", "ramp", "ips", 3,
                               2, "radians-per-iteration", 1e-4, 0.02));
    axes.push_back(sensor_axis(platform, "ips-noise-x", "noise", "ips", 3, 0,
                               "meters-stddev", 0.002, 0.5));
    axes.push_back(scale_axis(platform, "encoder-scale", Target::kSensor,
                              "wheel_encoder", 3, "sensor", 0.01, 1.0));
    axes.push_back(freeze_axis(platform, "ips-freeze", "ips", 2.0, 120.0));
    axes.push_back(actuator_bias_axis(platform, "wheel-diff-bias", "wheels",
                                      2, 1, "mps", 0.002, 0.08,
                                      /*mirror=*/0.0));
    axes.push_back(scale_axis(platform, "wheel-gain", Target::kActuator,
                              "wheels", 2, "actuator", 0.1, 4.0));
  } else if (platform == "tamiya") {
    axes.push_back(sensor_axis(platform, "ips-bias-y", "bias", "ips", 3, 1,
                               "meters", 0.005, 0.4));
    axes.push_back(sensor_axis(platform, "imu-ramp-x", "ramp", "imu", 3, 0,
                               "meters-per-iteration", 1e-4, 0.05));
    axes.push_back(sensor_axis(platform, "imu-noise-x", "noise", "imu", 3, 0,
                               "meters-stddev", 0.005, 1.0));
    axes.push_back(freeze_axis(platform, "ips-freeze", "ips", 2.0, 120.0));
    axes.push_back(actuator_bias_axis(platform, "speed-bias", "drivetrain", 2,
                                      0, "mps", 0.01, 0.8, /*mirror=*/-1.0));
    axes.push_back(actuator_bias_axis(platform, "steer-bias", "drivetrain", 2,
                                      1, "radians", 0.005, 0.6,
                                      /*mirror=*/-1.0));
  } else {
    throw SpecError("unknown platform \"" + platform + "\"");
  }
  return axes;
}

void write_frontier_jsonl(std::ostream& os,
                          const std::vector<FrontierResult>& results) {
  for (const FrontierResult& r : results) obs::json::write_line(os, r);
}

}  // namespace roboads::scenario

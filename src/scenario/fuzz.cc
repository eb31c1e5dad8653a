#include "scenario/fuzz.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/health.h"
#include "eval/mission.h"
#include "eval/scoring.h"

namespace roboads::scenario {
namespace {

double uniform(std::mt19937_64& engine, double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(engine);
}

std::size_t uniform_index(std::mt19937_64& engine, std::size_t lo,
                          std::size_t hi) {
  return std::uniform_int_distribution<std::size_t>(lo, hi)(engine);
}

bool coin(std::mt19937_64& engine, double p = 0.5) {
  return uniform(engine, 0.0, 1.0) < p;
}

// Sensor magnitude scales are sized to the platforms' pose-like sensors
// (meters / radians): big enough to exercise alarms and quarantine, small
// enough that missions stay numerically ordinary.
Vector random_magnitude(std::mt19937_64& engine, AttackShape shape,
                        std::size_t dim, bool actuator) {
  std::vector<double> mag(dim, 0.0);
  const double span = actuator ? 0.6 : 0.3;
  for (double& m : mag) {
    switch (shape) {
      case AttackShape::kBias:
      case AttackShape::kReplace:
        if (coin(engine, 0.7)) m = uniform(engine, -span, span);
        break;
      case AttackShape::kRamp:
        if (coin(engine, 0.7)) m = uniform(engine, -0.01, 0.01);
        break;
      case AttackShape::kScale:
        m = uniform(engine, 0.5, 1.8);
        break;
      case AttackShape::kNoise:
        if (coin(engine, 0.7)) m = uniform(engine, 0.0, 0.2);
        break;
      case AttackShape::kFreeze:
      case AttackShape::kFlatObstruction:
        break;
    }
  }
  return Vector(std::move(mag));
}

AttackSpec random_attack(std::mt19937_64& engine,
                         const eval::Platform& eval_platform,
                         const PlatformTraits& traits,
                         std::size_t iterations) {
  AttackSpec attack;

  // Target: sensors carry most of the taxonomy, so weight them.
  const double roll = uniform(engine, 0.0, 1.0);
  if (roll < 0.55) {
    attack.target = Target::kSensor;
    const sensors::SensorSuite& suite = eval_platform.suite();
    const std::size_t i = uniform_index(engine, 0, suite.count() - 1);
    attack.workflow = suite.sensor(i).name();
  } else if (roll < 0.75 && traits.lidar_beams > 0) {
    attack.target = Target::kLidarRaw;
    attack.workflow = "lidar";
  } else {
    attack.target = Target::kActuator;
    attack.workflow = traits.actuator_workflow;
  }

  attack.onset = uniform_index(engine, 1, iterations - 1);
  attack.duration =
      coin(engine) ? kForever : uniform_index(engine, 1, iterations);

  const std::size_t dim =
      attack.target == Target::kSensor
          ? eval_platform.suite()
                .sensor(eval_platform.suite().index_of(attack.workflow))
                .dim()
          : (attack.target == Target::kLidarRaw ? traits.lidar_beams
                                                : traits.actuator_dim);

  // Shape: raw LiDAR gets the DoS/obstruction classes, everything else the
  // additive/multiplicative/freeze taxonomy.
  if (attack.target == Target::kLidarRaw) {
    if (coin(engine, 0.4)) {
      attack.shape = AttackShape::kFlatObstruction;
      // Narrow sectors keep the flat-board geometry valid for any position.
      const std::size_t max_width = std::max<std::size_t>(1, dim / 8);
      const std::size_t width = uniform_index(engine, 1, max_width);
      attack.first_beam = uniform_index(engine, 0, dim - width);
      attack.last_beam = attack.first_beam + width;
      attack.distance = uniform(engine, 0.05, 0.5);
    } else {
      attack.shape = AttackShape::kReplace;
      attack.magnitude = Vector{coin(engine) ? 0.0
                                             : uniform(engine, 0.0, 2.0)};
    }
    return attack;
  }

  constexpr AttackShape kShapes[] = {AttackShape::kBias, AttackShape::kRamp,
                                     AttackShape::kFreeze,
                                     AttackShape::kReplace,
                                     AttackShape::kScale, AttackShape::kNoise};
  attack.shape = kShapes[uniform_index(engine, 0, 5)];
  if (attack.shape == AttackShape::kFreeze) return attack;

  attack.magnitude = random_magnitude(engine, attack.shape, dim,
                                      attack.target == Target::kActuator);
  if (attack.shape == AttackShape::kReplace && coin(engine)) {
    std::vector<bool> mask(dim);
    for (std::size_t i = 0; i < dim; ++i) mask[i] = coin(engine);
    attack.mask = std::move(mask);
  }
  if (attack.shape == AttackShape::kNoise) {
    attack.noise_seed = engine();
  }
  return attack;
}

// Transport faults are benign by construction, so the generator keeps rates
// modest: enough traffic disruption to stress the detector's tolerance, not
// enough to starve the mission of readings outright.
FaultSpec random_fault(std::mt19937_64& engine, const std::string& sensor,
                       std::size_t iterations) {
  FaultSpec fault;
  fault.sensor = sensor;
  if (coin(engine, 0.6)) fault.drop_rate = uniform(engine, 0.0, 0.15);
  if (coin(engine, 0.5)) fault.stale_rate = uniform(engine, 0.0, 0.15);
  if (coin(engine, 0.4)) fault.duplicate_rate = uniform(engine, 0.0, 0.1);
  if (coin(engine, 0.3) && iterations > 2) {
    fault.freeze_at = uniform_index(engine, 1, iterations - 1);
    fault.freeze_duration =
        uniform_index(engine, 1, std::max<std::size_t>(1, iterations / 8));
  }
  return fault;
}

bool all_finite(const Vector& v) { return v.all_finite(); }

std::string at_iteration(std::size_t k) {
  return " at iteration " + std::to_string(k);
}

}  // namespace

bool valid_fault_probability(double p) {
  return std::isfinite(p) && p >= 0.0 && p <= 1.0;
}

ScenarioSpec random_campaign(std::mt19937_64& engine,
                             const std::string& platform, std::size_t index,
                             const FuzzConfig& config) {
  const std::unique_ptr<eval::Platform> eval_platform =
      make_platform(platform);
  const PlatformTraits traits = platform_traits(platform);

  ScenarioSpec spec;
  spec.name = "fuzz-" + std::to_string(index);
  spec.description = "randomized campaign (scenario/fuzz.cc)";
  spec.platform = platform;
  spec.iterations = config.iterations;
  spec.seed = engine();
  const std::size_t count =
      uniform_index(engine, 1, std::max<std::size_t>(1, config.max_attacks));
  for (std::size_t i = 0; i < count; ++i) {
    spec.attacks.push_back(
        random_attack(engine, *eval_platform, traits, spec.iterations));
  }
  if (config.fault_probability > 0.0 &&
      coin(engine, config.fault_probability)) {
    const sensors::SensorSuite& suite = eval_platform->suite();
    // One or two distinct sensors, chosen without replacement.
    const std::size_t faulted =
        std::min<std::size_t>(uniform_index(engine, 1, 2), suite.count());
    std::vector<std::size_t> picked;
    while (picked.size() < faulted) {
      const std::size_t i = uniform_index(engine, 0, suite.count() - 1);
      if (std::find(picked.begin(), picked.end(), i) == picked.end()) {
        picked.push_back(i);
      }
    }
    for (std::size_t i : picked) {
      spec.faults.push_back(
          random_fault(engine, suite.sensor(i).name(), spec.iterations));
    }
    spec.fault_seed = engine();
  }
  return spec;
}

ScenarioSpec fuzz_campaign(const FuzzConfig& config, std::size_t index) {
  std::mt19937_64 engine(config.seed * 0x9e3779b97f4a7c15ULL + index);
  return random_campaign(engine,
                         config.platforms[index % config.platforms.size()],
                         index, config);
}

std::optional<InvariantViolation> check_campaign(
    const ScenarioSpec& spec, const obs::Instruments& instruments) {
  const auto fail = [](std::string invariant, std::string detail) {
    return InvariantViolation{std::move(invariant), std::move(detail)};
  };

  // eval::run_mission, not run_contained: the verdict classifies a crash
  // itself and reads every record, scored or not.
  std::unique_ptr<eval::Platform> platform;
  eval::MissionResult result;
  try {
    SpecMission mission = lower_spec(spec);
    platform = std::move(mission.platform);
    mission.config.instruments = instruments;
    result = eval::run_mission(*platform, mission.scenario, mission.config);
  } catch (const SpecError& e) {
    return fail("spec-rejected", e.what());
  } catch (const std::exception& e) {
    return fail("mission-crash", e.what());
  }

  const sensors::SensorSuite& suite = platform->suite();
  for (const eval::IterationRecord& rec : result.records) {
    const core::DetectionReport& report = rec.report;
    const core::Decision& decision = report.decision;

    // NaN escape: every number the planner or a downstream consumer reads
    // must be finite.
    if (!all_finite(rec.x_true) || !all_finite(rec.z) ||
        !all_finite(rec.u_executed)) {
      return fail("nan-escape", "non-finite simulation output" +
                                    at_iteration(rec.k));
    }
    if (!all_finite(report.state_estimate)) {
      return fail("nan-escape",
                  "non-finite state estimate" + at_iteration(rec.k));
    }
    if (!std::isfinite(decision.sensor_statistic) ||
        !std::isfinite(decision.actuator_statistic)) {
      return fail("nan-escape",
                  "non-finite test statistic" + at_iteration(rec.k));
    }

    // Quarantine implies a health event and the counts agree.
    const std::size_t quarantined = static_cast<std::size_t>(std::count(
        report.mode_health.begin(), report.mode_health.end(),
        core::ModeHealthState::kQuarantined));
    if (quarantined != report.quarantined_modes) {
      std::ostringstream os;
      os << "quarantined_modes=" << report.quarantined_modes << " but "
         << quarantined << " modes report kQuarantined" << at_iteration(rec.k);
      return fail("quarantine-health-mismatch", os.str());
    }

    // Attribution consistency: confirmed sensors only under an alarm,
    // sorted/unique/in-range, and each backed by a misbehaving verdict.
    const std::vector<std::size_t>& accused = decision.misbehaving_sensors;
    if (!accused.empty() && !decision.sensor_alarm) {
      return fail("attribution-without-alarm",
                  "misbehaving_sensors non-empty with sensor_alarm=false" +
                      at_iteration(rec.k));
    }
    if (!std::is_sorted(accused.begin(), accused.end()) ||
        std::adjacent_find(accused.begin(), accused.end()) != accused.end()) {
      return fail("attribution-order",
                  "misbehaving_sensors not sorted-unique" +
                      at_iteration(rec.k));
    }
    for (std::size_t index : accused) {
      if (index >= suite.count()) {
        return fail("attribution-range",
                    "misbehaving sensor index " + std::to_string(index) +
                        " out of suite range" + at_iteration(rec.k));
      }
      const bool backed = std::any_of(
          decision.sensor_verdicts.begin(), decision.sensor_verdicts.end(),
          [&](const core::SensorVerdict& v) {
            return v.sensor_index == index && v.misbehaving;
          });
      if (!backed) {
        return fail("attribution-unbacked",
                    "accused sensor " + std::to_string(index) +
                        " has no misbehaving verdict" + at_iteration(rec.k));
      }
    }

    // Compiler cross-check: the truth the mission recorded (from the
    // compiled injectors' windows) must match the truth derived from the
    // spec alone, after applying the mission's own post-processing — the
    // actuator-significance gate and collision folding (eval/mission.cc).
    attacks::GroundTruth expected = spec_truth_at(spec, rec.k, suite);
    if (expected.actuator_corrupted &&
        (rec.u_executed - rec.u_planned).norm_inf() <
            platform->actuator_significance()) {
      expected.actuator_corrupted = false;
    }
    if (rec.collided) expected.actuator_corrupted = true;
    if (!(expected == rec.truth)) {
      return fail("truth-mismatch",
                  "compiled scenario truth diverges from spec truth" +
                      at_iteration(rec.k));
    }
  }
  return std::nullopt;
}

namespace {

// True when `candidate` is valid and still reproduces `violation` (same
// invariant identifier; details like iteration numbers may move).
bool reproduces(const ScenarioSpec& candidate,
                const InvariantViolation& violation,
                const CampaignCheck& check, std::size_t* missions_spent) {
  try {
    validate_spec(candidate);
  } catch (const SpecError&) {
    return false;
  }
  if (missions_spent) ++*missions_spent;
  const std::optional<InvariantViolation> got = check(candidate);
  return got && got->invariant == violation.invariant;
}

}  // namespace

ScenarioSpec shrink_campaign(const ScenarioSpec& spec,
                             const InvariantViolation& violation) {
  return shrink_campaign_with(
      spec, violation,
      [](const ScenarioSpec& s) { return check_campaign(s); }, kShrinkBudget);
}

ScenarioSpec shrink_campaign_with(const ScenarioSpec& spec,
                                  const InvariantViolation& violation,
                                  const CampaignCheck& check,
                                  std::size_t budget,
                                  std::size_t* missions_spent) {
  ScenarioSpec best = spec;
  std::size_t spent = 0;
  const auto in_budget = [&] { return spent < budget; };
  const auto try_candidate = [&](ScenarioSpec candidate) {
    if (!in_budget()) return false;
    if (!reproduces(candidate, violation, check, &spent)) return false;
    best = std::move(candidate);
    return true;
  };

  bool progress = true;
  while (progress && in_budget()) {
    progress = false;

    // 1. Drop whole attacks (largest structural win first).
    for (std::size_t i = best.attacks.size(); i-- > 0 && in_budget();) {
      if (best.attacks.size() <= 1) break;
      ScenarioSpec candidate = best;
      candidate.attacks.erase(candidate.attacks.begin() +
                              static_cast<std::ptrdiff_t>(i));
      progress |= try_candidate(std::move(candidate));
    }

    // 1b. Drop whole fault stanzas — findings that reproduce without the
    // transport layer shrink back to pure attack campaigns.
    for (std::size_t i = best.faults.size(); i-- > 0 && in_budget();) {
      ScenarioSpec candidate = best;
      candidate.faults.erase(candidate.faults.begin() +
                             static_cast<std::ptrdiff_t>(i));
      progress |= try_candidate(std::move(candidate));
    }

    // 2. Halve the mission (respecting every onset).
    while (in_budget() && best.iterations > 2) {
      std::size_t max_onset = 0;
      for (const AttackSpec& a : best.attacks) {
        max_onset = std::max(max_onset, a.onset);
      }
      for (const FaultSpec& f : best.faults) {
        if (f.freeze_duration > 0) max_onset = std::max(max_onset, f.freeze_at);
      }
      const std::size_t shorter =
          std::max(max_onset + 1, best.iterations / 2);
      if (shorter >= best.iterations) break;
      ScenarioSpec candidate = best;
      candidate.iterations = shorter;
      if (!try_candidate(std::move(candidate))) break;
      progress = true;
    }

    // 3. Simplify each attack: forever duration, onset 1, zeroed magnitude
    // components, dropped mask.
    for (std::size_t i = 0; i < best.attacks.size() && in_budget(); ++i) {
      if (best.attacks[i].duration != kForever) {
        ScenarioSpec candidate = best;
        candidate.attacks[i].duration = kForever;
        progress |= try_candidate(std::move(candidate));
      }
      if (best.attacks[i].onset > 1) {
        ScenarioSpec candidate = best;
        candidate.attacks[i].onset = 1;
        progress |= try_candidate(std::move(candidate));
      }
      if (!best.attacks[i].mask.empty()) {
        ScenarioSpec candidate = best;
        candidate.attacks[i].mask.clear();
        progress |= try_candidate(std::move(candidate));
      }
      const double neutral =
          best.attacks[i].shape == AttackShape::kScale ? 1.0 : 0.0;
      for (std::size_t c = 0;
           c < best.attacks[i].magnitude.size() && in_budget(); ++c) {
        if (best.attacks[i].magnitude[c] == neutral) continue;
        ScenarioSpec candidate = best;
        candidate.attacks[i].magnitude[c] = neutral;
        progress |= try_candidate(std::move(candidate));
      }
    }

    // 4. Simplify each surviving fault stanza: zero individual rates, drop
    // the freeze window.
    for (std::size_t i = 0; i < best.faults.size() && in_budget(); ++i) {
      const auto zero_rate = [&](double FaultSpec::*rate) {
        if (best.faults[i].*rate == 0.0) return;
        ScenarioSpec candidate = best;
        candidate.faults[i].*rate = 0.0;
        progress |= try_candidate(std::move(candidate));
      };
      zero_rate(&FaultSpec::drop_rate);
      zero_rate(&FaultSpec::stale_rate);
      zero_rate(&FaultSpec::duplicate_rate);
      if (best.faults[i].freeze_duration > 0) {
        ScenarioSpec candidate = best;
        candidate.faults[i].freeze_at = 0;
        candidate.faults[i].freeze_duration = 0;
        progress |= try_candidate(std::move(candidate));
      }
    }
  }

  if (missions_spent) *missions_spent += spent;
  return best;
}

}  // namespace roboads::scenario

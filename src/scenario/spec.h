// Declarative scenario DSL (docs/SCENARIOS.md).
//
// A ScenarioSpec is data, not code: attack shape × magnitude × onset/duration
// × target workflow × platform, composable into multi-attack campaigns. The
// built-in Table II / Tamiya / extended batteries are specs
// (scenario/library.h) that compile onto the attacks:: injectors
// (scenario/compile.h); tests/data/library_outcomes.txt pins their missions.
// Being data, specs can also be searched (scenario/frontier.h), randomized
// (scenario/fuzz.h), serialized as replayable regression cases
// (tests/data/fuzz_corpus/), and shrunk to minimal reproducers.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "attacks/scenario.h"
#include "matrix/matrix.h"

namespace roboads::scenario {

// Thrown on malformed spec text or an invalid spec (unknown platform or
// workflow, out-of-range onset, zero duration, magnitude dimension
// mismatch). Distinct from CheckError: a SpecError means the *input spec*
// is bad, not that the library hit an internal invariant.
class SpecError : public std::runtime_error {
 public:
  explicit SpecError(const std::string& what) : std::runtime_error(what) {}
};

// The misbehavior taxonomy the DSL spans (paper Table I shapes plus the
// noise-inflation jamming class).
enum class AttackShape {
  kBias,             // constant offset (logic bombs, spoofing)
  kRamp,             // linearly growing offset (slow drift, §V-H evasion)
  kFreeze,           // stuck at the last clean value (replay / stalled bus)
  kReplace,          // fixed-value override (DoS, physical jamming)
  kScale,            // multiplicative gain (miscalibration, runaway drive)
  kNoise,            // additive Gaussian noise (signal-degrading jamming)
  kFlatObstruction,  // flat board over the scanner window (raw LiDAR only)
};

// Where the corruption enters the workflow (mirrors attacks::InjectionPoint).
enum class Target {
  kSensor,    // processed sensor output
  kLidarRaw,  // raw LiDAR range array, before scan processing
  kActuator,  // executed actuator command
};

// Sentinel duration: active from onset until the end of the mission.
inline constexpr std::size_t kForever = static_cast<std::size_t>(-1);

// One attack: a time-windowed corruption of one workflow.
struct AttackSpec {
  AttackShape shape = AttackShape::kBias;
  Target target = Target::kSensor;
  // Sensor name (suite naming), "lidar" for the raw scan, or the platform's
  // actuation workflow name.
  std::string workflow;

  std::size_t onset = 0;           // first active control iteration
  std::size_t duration = kForever; // active iterations (kForever = rest)

  // Shape-dependent payload: bias offset / ramp slope per iteration /
  // replace values / scale gains / noise stddevs. Empty for freeze and
  // flat-obstruction. For replace with an empty mask, a single element is
  // broadcast over the whole target vector (e.g. all-zero LiDAR DoS).
  Vector magnitude;
  // Replace only: which components are overwritten. Empty = all.
  std::vector<bool> mask;
  // Noise only: seed of the injector's private stream.
  std::uint64_t noise_seed = 0;

  // Flat obstruction only (beam indices into the raw scan).
  std::size_t first_beam = 0;
  std::size_t last_beam = 0;
  double distance = 0.0;
  std::optional<double> center_angle;

  // Half-open activity window [onset, onset + duration).
  bool active_at(std::size_t k) const {
    return k >= onset && (duration == kForever || k < onset + duration);
  }
};

// One transport-fault profile on one sensor's feed (maps onto
// sim::SensorFaultSpec): benign link-layer misbehavior — dropped, stale,
// duplicated or frozen readings — composed under whatever attacks the
// campaign carries. Faults never flip ground truth: alarms they provoke are
// false positives by definition, which is exactly what fuzzing under faults
// is probing for.
struct FaultSpec {
  std::string sensor;          // suite naming, e.g. "wheels", "lidar"
  double drop_rate = 0.0;      // P(reading lost this iteration)
  double stale_rate = 0.0;     // P(previous reading re-delivered)
  double duplicate_rate = 0.0; // P(reading delivered twice)
  std::size_t freeze_at = 0;       // first frozen iteration; 0 = never
  std::size_t freeze_duration = 0; // frozen iterations (needs freeze_at >= 1)
};

// A campaign: one mission's worth of attacks on one platform. Self-contained
// and replayable — platform, mission length and seed ride along, so a
// serialized spec is a complete regression case.
struct ScenarioSpec {
  std::string name;
  std::string description;
  std::string platform;       // "khepera" or "tamiya"
  std::size_t iterations = 250;
  std::uint64_t seed = 1;
  std::vector<AttackSpec> attacks;
  std::vector<FaultSpec> faults;
  // Seed of the transport-fault model's private streams; only serialized
  // when faults are present.
  std::uint64_t fault_seed = 0x5EED5EEDu;
};

const char* to_string(AttackShape shape);
const char* to_string(Target target);

// Canonical text form. serialize(parse(serialize(s))) == serialize(s) holds
// byte-for-byte (tests/scenario_spec_test.cc): numbers are emitted with
// round-trip precision and every field in a fixed order.
std::string serialize(const ScenarioSpec& spec);

// Parses the text form; throws SpecError with a line number on malformed
// input. Purely syntactic — semantic validation (platform, workflows,
// windows, dimensions) happens in compile_spec / validate_spec.
ScenarioSpec parse(const std::string& text);

// Spec-level ground truth at iteration k, resolved against the platform's
// sensor suite — computed from the attack windows alone, independently of
// the compiled injectors. The fuzzer cross-checks this against the compiled
// Scenario's truth_at as a compiler invariant (scenario/fuzz.h).
attacks::GroundTruth spec_truth_at(const ScenarioSpec& spec, std::size_t k,
                                   const sensors::SensorSuite& suite);

}  // namespace roboads::scenario

// Lowers ScenarioSpecs onto the attacks:: injectors and the evaluation
// platforms, with full semantic validation (SpecError on any invalid spec —
// unknown platform or workflow, onset beyond the mission horizon, zero
// duration, magnitude dimension mismatch). This is the only way an attack
// scenario is built: the built-in batteries are specs too
// (scenario/library.h).
#pragma once

#include <memory>

#include "eval/platform.h"
#include "eval/scoring.h"
#include "scenario/spec.h"

namespace roboads::scenario {

// What the compiler needs to know about a platform beyond its Platform
// interface: the actuation workflow's name and command dimension, and the
// raw-scan geometry for LiDAR attacks.
struct PlatformTraits {
  std::string actuator_workflow;
  std::size_t actuator_dim = 0;
  std::size_t lidar_beams = 0;  // 0 = platform has no raw-scan target
  double lidar_fov = 0.0;
};

// eval::make_platform, but throws SpecError for a name outside
// eval::platform_names(): here the name is spec input.
std::unique_ptr<eval::Platform> make_platform(const std::string& name);

PlatformTraits platform_traits(const std::string& name);

// Validates `spec` against the platform and compiles it into a Scenario
// with fresh stateful injectors (build one per mission run). Attachments
// follow spec.attacks order.
attacks::Scenario compile_spec(const ScenarioSpec& spec,
                               const eval::Platform& platform,
                               const PlatformTraits& traits);

// The same with platform_traits(spec.platform).
attacks::Scenario compile_spec(const ScenarioSpec& spec,
                               const eval::Platform& platform);

// Validation without constructing injectors; throws SpecError on the first
// problem, returns normally for a compilable spec. Covers the faults stanza
// too (unknown sensors, out-of-range rates, freeze windows without an
// onset), so fault errors surface as SpecErrors before the transport model's
// internal CheckErrors can fire.
void validate_spec(const ScenarioSpec& spec);

// The mission a spec describes, ready to fly:
//   eval::run_contained(*m.platform, m.scenario, m.config).
// The scenario's injectors are stateful: lower the spec again to fly it
// again.
struct SpecMission {
  std::unique_ptr<eval::Platform> platform;  // built from spec.platform
  attacks::Scenario scenario;                // compile_spec on it
  // spec.iterations at spec.seed under the spec's faults stanza (inactive
  // when it has none, so a fault-free mission stays bit-identical to the
  // pre-fault runner), labelled "<name>/s<seed>". Callers add instruments
  // and may prefix the label.
  eval::MissionConfig config;
};

// The only place a spec becomes a mission: shard jobs, the fuzzer's
// campaign check and frontier probes fly what this returns; everyone else
// flies it through fly_spec. Throws SpecError for a spec the compiler
// rejects.
SpecMission lower_spec(const ScenarioSpec& spec);

// lower_spec(spec) flown once through eval::run_contained under
// `instruments`, as `roboads_scenario run`, the library battery benches and
// the tests fly a spec. A mission that fails comes back as
// ContainedRun::failure; a spec the compiler rejects throws SpecError.
eval::ContainedRun fly_spec(const ScenarioSpec& spec,
                            const obs::Instruments& instruments = {});

// True when any non-actuator (resp. actuator) misbehavior was correctly
// detected per the score's delay records: the "caught" predicate of the
// frontier probes, `roboads_scenario run` and bench/evasive_attacks.
bool sensor_detected(const eval::ScenarioScore& score);
bool actuator_detected(const eval::ScenarioScore& score);

}  // namespace roboads::scenario

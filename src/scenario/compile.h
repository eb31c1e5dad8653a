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
#include "sim/faults.h"

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

// The same with platform_traits(spec.platform): the form for running
// missions (the mission needs the same platform instance).
attacks::Scenario compile_spec(const ScenarioSpec& spec,
                               const eval::Platform& platform);

// Convenience: builds the platform from spec.platform, compiles, and
// discards the platform.
attacks::Scenario compile_spec(const ScenarioSpec& spec);

// Validation without constructing injectors; throws SpecError on the first
// problem, returns normally for a compilable spec. Covers the faults stanza
// too (unknown sensors, out-of-range rates, freeze windows without an
// onset), so fault errors surface as SpecErrors before the transport model's
// internal CheckErrors can fire.
void validate_spec(const ScenarioSpec& spec);

// Lowers the spec's faults stanza onto the bus-layer transport-fault model.
// Inactive (empty) config when the spec carries no faults, so the no-fault
// mission path stays bit-identical to pre-fault code. Throws SpecError on an
// invalid stanza.
sim::TransportFaultConfig transport_faults_of(const ScenarioSpec& spec,
                                              const eval::Platform& platform);
sim::TransportFaultConfig transport_faults_of(const ScenarioSpec& spec);

// One compiled-and-flown spec: mission + score on a fresh default platform,
// deterministic per spec.seed.
struct SpecRun {
  std::string name;
  eval::MissionResult result;
  eval::ScenarioScore score;
};

SpecRun run_spec(const ScenarioSpec& spec);

// True when any non-actuator (resp. actuator) misbehavior was correctly
// detected per the score's delay records — the frontier and fuzzer's
// "caught" predicate, shared with bench/evasive_attacks' original logic.
bool sensor_detected(const eval::ScenarioScore& score);
bool actuator_detected(const eval::ScenarioScore& score);

}  // namespace roboads::scenario

// The built-in attack scenarios, defined here and nowhere else: the eleven
// Table II Khepera scenarios, the five extended-taxonomy scenarios, and the
// seven Tamiya §V-D scenarios. Compile one with scenario::compile_spec
// (fresh stateful injectors per call — build one per mission run).
// tests/scenario_library_test.cc pins the mission and score of each at its
// legacy bench seed.
#pragma once

#include <vector>

#include "scenario/spec.h"

namespace roboads::scenario {

// Table II scenario #n (1-based, 1..11); throws SpecError outside the range.
ScenarioSpec khepera_table2_spec(std::size_t number);

std::vector<ScenarioSpec> khepera_table2_specs();   // #1..#11
// Beyond Table II: misbehavior shapes the paper's taxonomy covers but its
// evaluation battery does not exercise — replay (stuck-at), gain
// miscalibration, slow gyro-style drift, and the §II-B "carefully crafted"
// simultaneous coordinated attack on two workflows.
std::vector<ScenarioSpec> khepera_extended_specs(); // X1..X5
// Attack/failure battery analogous to the Khepera's (§V-D: "similar attacks
// and failures on the sensors and actuators of Tamiya").
std::vector<ScenarioSpec> tamiya_battery_specs();   // T1..T7

// The full library, Khepera Table II first, then extended, then Tamiya.
std::vector<ScenarioSpec> all_library_specs();

}  // namespace roboads::scenario

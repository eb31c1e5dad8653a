// Coverage fuzzer for the detection pipeline: randomizes attack campaigns
// over the DSL, flies each one as a contained mission, and checks system
// invariants that must hold for *any* valid spec — not detection quality,
// but structural soundness. Violations are shrunk to minimal replayable
// specs suitable for tests/data/fuzz_corpus/ (docs/SCENARIOS.md describes
// the promotion workflow; ./ci.sh fuzz-smoke runs a time-boxed sweep).
//
// Invariants checked per campaign:
//   - the generated spec compiles (the generator emits only valid specs);
//   - the mission completes — no crash, no MissionError;
//   - no NaN escape: ground truth, readings, state estimates and χ²
//     statistics stay finite every iteration;
//   - quarantine implies a health event: the reported quarantined_modes
//     count equals the number of kQuarantined entries in mode_health;
//   - alarm attribution is consistent: misbehaving_sensors only under an
//     active sensor alarm, sorted, unique, in suite range, and matching the
//     per-sensor verdicts;
//   - compiled ground truth matches the spec: the mission's recorded
//     truth_at equals spec_truth_at for every iteration (compiler
//     cross-check, independent path through the attack windows).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "random/rng.h"
#include "scenario/compile.h"

namespace roboads::scenario {

struct FuzzConfig {
  std::uint64_t seed = 1;
  std::size_t campaigns = 50;       // random campaigns per run
  std::size_t iterations = 120;     // mission length of generated campaigns
  std::size_t max_attacks = 3;      // attacks per campaign, 1..max
  std::vector<std::string> platforms = {"khepera", "tamiya"};
  // P(a campaign carries a faults stanza): transport drop/stale/duplicate/
  // freeze composed under the attacks (ROADMAP "fuzzing under transport
  // faults"). 0 restores attack-only fuzzing.
  double fault_probability = 0.35;
};

// The one check on FuzzConfig::fault_probability: finite and in [0, 1].
// The generator's `uniform < p` coin would silently read NaN as "never" and
// 5 as "always", so every entry point (CLI flags, manifest lines) applies it.
bool valid_fault_probability(double p);

// Missions the shrinker may spend minimizing one finding. A constant, not a
// setting: the budget shapes the shrunk spec, and a fuzz job's outcome must
// be a pure function of its manifest line (shard/exec.h).
inline constexpr std::size_t kShrinkBudget = 120;

// One failed invariant: `invariant` is a stable identifier (e.g.
// "nan-escape", "truth-mismatch"), `detail` the human-readable specifics.
struct InvariantViolation {
  std::string invariant;
  std::string detail;
};

// Deterministic campaign generator: always yields a spec that passes
// validate_spec. `index` names the spec.
ScenarioSpec random_campaign(Mt19937_64& engine,
                             const std::string& platform, std::size_t index,
                             const FuzzConfig& config);

// Campaign `index` of a sweep, and the only place one is generated: engine
// seed `seed·0x9e3779b97f4a7c15 + index`, platform round-robin over
// `config.platforms` (which must be non-empty). A pure function of
// (config, index), so a sweep flies the same specs however its campaigns
// are split across processes.
ScenarioSpec fuzz_campaign(const FuzzConfig& config, std::size_t index);

// Compiles and flies `spec`, checks every invariant above; nullopt = clean.
// `instruments` only records timings/counters (telemetry) — it cannot
// change the verdict.
std::optional<InvariantViolation> check_campaign(
    const ScenarioSpec& spec, const obs::Instruments& instruments = {});

// Greedy shrink: repeatedly tries dropping attacks, shortening the mission,
// zeroing magnitude components and simplifying windows, keeping any
// candidate that still reproduces the same invariant violation. Spends at
// most kShrinkBudget missions; returns `spec` unchanged if nothing smaller
// reproduces.
ScenarioSpec shrink_campaign(const ScenarioSpec& spec,
                             const InvariantViolation& violation);

// The shrink loop with the invariant check injected — unit-testable
// against synthetic violations (tests/scenario_fuzz_test.cc). Candidates
// still must pass validate_spec before `check` is consulted.
using CampaignCheck =
    std::function<std::optional<InvariantViolation>(const ScenarioSpec&)>;
ScenarioSpec shrink_campaign_with(const ScenarioSpec& spec,
                                  const InvariantViolation& violation,
                                  const CampaignCheck& check,
                                  std::size_t budget,
                                  std::size_t* missions_spent = nullptr);

}  // namespace roboads::scenario

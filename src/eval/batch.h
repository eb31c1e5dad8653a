// Batched mission execution: runs independent (scenario, seed) missions
// concurrently and scores them, preserving job order in the output.
//
// This is the parallel substrate behind the Table II / Table IV benches and
// any seed×scenario sweep: every job owns a fresh Scenario (the factory is
// invoked inside the worker, so stateful injectors are never shared), its
// own Rng stream seeded from MissionConfig::seed, and its own simulator and
// detector. Results land in pre-allocated slots indexed by job, so the
// output — and every number printed from it — is identical for any
// WorkflowConfig::num_threads.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "eval/mission.h"
#include "eval/scoring.h"
#include "sim/workflow.h"

namespace roboads::eval {

struct MissionJob {
  // Display label; when empty the scenario's own name is used.
  std::string name;
  // Builds the job's private Scenario. Called once, inside the worker —
  // must be safe to invoke concurrently with other jobs' factories
  // (scenario::compile_spec only reads its spec and platform and allocates
  // fresh injectors per call).
  std::function<attacks::Scenario()> make_scenario;
  MissionConfig config;
};

// One mission that aborted instead of finishing: the structured record a
// sweep reports instead of crashing (docs/ROBUSTNESS.md). `step` is the
// 1-based control iteration at which the error fired; 0 means setup.
struct MissionFailure {
  std::string name;      // job label (scenario name when the label is empty)
  std::string scenario;  // scenario name, when the factory got that far
  std::uint64_t seed = 0;
  std::size_t step = 0;
  std::string what;      // the underlying exception's message
};

struct MissionJobResult {
  std::string name;
  MissionResult result;
  ScenarioScore score;
  // Set when the mission aborted; `result` and `score` are then
  // default-constructed.
  std::optional<MissionFailure> failure;
  bool failed() const { return failure.has_value(); }

  // Postmortem bundles frozen by this job's private flight recorder
  // (populated when WorkflowConfig::recorder.enabled; an aborted mission
  // additionally freezes a "mission_failure" bundle). Empty otherwise.
  std::vector<obs::PostmortemBundle> bundles;
  // Files the bundles were written to (when WorkflowConfig::record_out is
  // set; parallel to `bundles`).
  std::vector<std::string> bundle_paths;
};

// Convenience builder for the common case.
MissionJob make_mission_job(std::function<attacks::Scenario()> make_scenario,
                            std::uint64_t seed, std::size_t iterations = 250);

// Runs and scores every job on `platform`. Results are ordered by job
// index regardless of thread count or completion order.
std::vector<MissionJobResult> run_mission_batch(
    const Platform& platform, const std::vector<MissionJob>& jobs,
    const sim::WorkflowConfig& config = {});

}  // namespace roboads::eval

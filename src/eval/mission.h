// Mission runner: executes the paper's evaluation loop — RRT* plan, PID
// tracking, scenario-driven misbehavior injection, RoboADS detection — and
// records everything needed for scoring and for regenerating the paper's
// tables and figures.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/linear_baseline.h"
#include "eval/platform.h"
#include "obs/obs.h"
#include "sim/faults.h"

namespace roboads::eval {

struct MissionConfig {
  std::size_t iterations = 250;
  std::uint64_t seed = 1;
  // Overrides the platform's detector configuration when set.
  std::optional<core::RoboAdsConfig> detector_override;
  // §V-G comparator: run the detector on models linearized once at mission
  // start instead of relinearizing every iteration.
  bool linear_baseline = false;
  // Future-work extension (§VII): wrap the mission controller in the
  // detection-response layer of eval/recovery.h, which substitutes
  // confirmed-misbehaving sensor readings with the detector's state
  // estimate.
  bool resilient_control = false;
  // Benign transport faults applied between the sensing workflows and every
  // reading consumer (sim/faults.h). An inactive config (the default) is
  // bypassed entirely — the mission is bit-identical to the pre-fault-layer
  // runner.
  sim::TransportFaultConfig transport_faults;

  // Observability handles (obs/obs.h; null = off, zero overhead). When set
  // they are threaded into the detector (engine step/stage timers, trace
  // events) and the mission loop itself ("mission_start"/"mission_end"
  // events, per-iteration latency, transport-fault tallies). Overrides
  // whatever `detector_override` carries, so a sweep can attach one shared
  // sink across platform-default configs.
  obs::Instruments instruments;
  // Label stamped on this mission's trace events and flight-recorder
  // bundles; sweeps set it to "<scenario>/s<seed>" (shard jobs prefix the
  // job id) so the missions sharing a sink stay attributable.
  std::string obs_label;
};

// Thrown when a mission aborts mid-run: carries the 1-based control
// iteration at which the underlying error fired, so eval::run_contained can
// report the step without losing the cause.
class MissionError : public std::runtime_error {
 public:
  MissionError(std::size_t step_index, const std::string& cause)
      : std::runtime_error(cause), step_(step_index) {}
  std::size_t step() const { return step_; }

 private:
  std::size_t step_;
};

struct IterationRecord {
  std::size_t k = 0;           // 1-based control iteration
  Vector x_true;               // simulator ground truth after the step
  Vector u_planned;            // planner output
  Vector u_executed;           // after actuator corruption
  Vector z;                    // stacked readings delivered to the planner
  // Per suite sensor: a frame actually arrived this iteration (empty = all;
  // only populated when transport faults are active).
  std::vector<bool> sensor_available;
  bool collided = false;       // wall/obstacle contact during the step
  core::DetectionReport report;
  // Scenario ground truth at k; wall contact is folded into the actuator
  // condition (executed motion ≠ commands, the "tire blowout" class).
  attacks::GroundTruth truth;
};

struct MissionResult {
  std::vector<IterationRecord> records;
  bool goal_reached = false;
  double dt = 0.0;  // control period, for converting delays to seconds
  // Transport fault totals over the mission (all zero when inactive).
  std::size_t frames_dropped = 0;
  std::size_t frames_stale = 0;
  std::size_t frames_duplicated = 0;
  std::size_t frames_frozen = 0;
};

// Runs one mission of `scenario` on `platform`. Deterministic per seed.
MissionResult run_mission(const Platform& platform,
                          const attacks::Scenario& scenario,
                          const MissionConfig& config);

}  // namespace roboads::eval

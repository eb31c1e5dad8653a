// Per-layer measurements of the traced run. Each helper times the public
// calls into one layer on the workload's own inputs (a recorded mission),
// records a span per call, and keeps the raw samples for exact quantiles.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "eval/mission.h"
#include "eval/platform.h"
#include "eval/scoring.h"
#include "fleet/packet.h"
#include "scenario/compile.h"

namespace perfbench {

namespace attacks = roboads::attacks;
namespace eval = roboads::eval;
namespace scenario = roboads::scenario;

struct LayerSamples {
  Samples plan_ms;           // planning: Platform::make_controller
  Samples sense_us;          // sim: SensingStack::sense_all
  Samples compile_us;        // scenario: library lookup + compile_spec
  Samples mission_ms;        // eval: run_mission
  Samples score_us;          // eval: score_mission
  Samples detector_step_us;  // core: RoboAds::step
  Samples engine_step_us;    // core: MultiModeEngine::step
  Samples nuise_step_us;     // core: Nuise::step, one sample per mode
  Samples decision_us;       // core: DecisionMaker::evaluate
  std::uint64_t allocations = 0;  // heap allocations inside RoboAds::step
  std::uint64_t alloc_steps = 0;
  Samples sandwich_ns;          // matrix: sandwich(A, P)
  Samples spd_factor_ns;        // matrix: SpdFactor(S)
  Samples spd_eigen_factor_ns;  // matrix: SpdEigenFactor(S)
  Samples ingest_inorder_us;    // fleet: DetectorSession::ingest per frame
  Samples ingest_shuffled_us;
  // Replayed reports that differ from the recorded mission (must be 0).
  std::uint64_t replay_mismatches = 0;
};

// Fleet-layer samples: from a live FleetService phase, or from the
// synchronous one-shard replay of a mission (replay_fleet_sync).
struct FleetSamples {
  Samples submit_ns;            // FleetService::submit, per packet
  Samples ingest_to_report_us;  // on_report clock - frame ingest stamp
  Samples latency_ms;           // the frame's end-to-end latency
  Samples lag_us;               // how late the generator issued each op
  std::size_t queue_high_water = 0;
  std::uint64_t duplicate_packets = 0;
  std::uint64_t late_packets = 0;
  std::uint64_t masked_steps = 0;
  std::uint64_t dropped_packets = 0;
};

// The library scenario a campaign job or a fleet robot flies: Table II
// scenario `number` (1..11), or a clean mission when 0.
std::string scenario_name(std::size_t number);

// Resolves `name` the way shard::execute_job does (library lookup; "clean"
// is Table II #1 with its attacks removed) and compiles it on `platform`.
attacks::Scenario compile_named(const std::string& name,
                                const eval::Platform& platform,
                                const scenario::PlatformTraits& traits);

// Flies one mission, timing the layer calls when `layers` is non-null:
// compile (scenario), make_controller with the mission seed (planning; a
// separate call, run_mission plans again inside), run_mission and
// score_mission (eval), then the sensing replay on the recorded true states
// (sim).
eval::MissionResult fly(const std::string& name, std::uint64_t seed,
                        std::size_t iterations, const eval::Platform& platform,
                        const scenario::PlatformTraits& traits,
                        LayerSamples* layers, Tracer& tracer,
                        std::uint32_t parent, RequestId request,
                        eval::ScenarioScore* score = nullptr);

// Replays the recorded (u, z, mask) through a fresh RoboAds — which must
// reproduce every recorded report — and through a MultiModeEngine, the
// per-mode Nuise estimators and a DecisionMaker; then times the matrix
// kernels on the replay's covariances.
void replay_core(const eval::Platform& platform,
                 const eval::MissionResult& mission, LayerSamples& out,
                 Tracer& tracer, std::uint32_t parent, RequestId request);

// One iteration's packets for `robot`. With `shuffle`, a `dup_share` of the
// packets is duplicated and the whole frame is submitted in seeded order
// (the fleet-paced stream shape); without, command-first suite order.
void frame_packets(std::vector<roboads::fleet::FleetPacket>& out,
                   std::uint64_t robot, const eval::Platform& platform,
                   const eval::IterationRecord& rec, SeededStream* shuffle,
                   double dup_share);

// Replays the mission's packet stream into fresh DetectorSessions, once in
// order and once shuffled with duplicates, timing ingest per frame; every
// report must match the recording.
void replay_sessions(const eval::Platform& platform,
                     const eval::MissionResult& mission, std::uint64_t seed,
                     double dup_share, LayerSamples& out, Tracer& tracer,
                     std::uint32_t parent, RequestId request);

// Replays the mission's packet stream (shuffled, with duplicates) through a
// one-shard FleetService pumped synchronously on this thread, timing submit
// and ingest-to-report per frame; every report must match the recording.
void replay_fleet_sync(const eval::Platform& platform,
                       const eval::MissionResult& mission, std::uint64_t seed,
                       double dup_share, FleetSamples& fleet,
                       LayerSamples& layers, Tracer& tracer,
                       std::uint32_t parent, RequestId request);

// Adds the planning/sim/scenario/eval/core/matrix and session-ingest
// metrics (and their sample counts) to `result`.
void add_layer_metrics(const LayerSamples& s, Result& result);

// Adds the fleet.* and gen.* metrics; queue wait is measured against the
// replayed detector step in `layers`.
void add_fleet_metrics(const FleetSamples& f, const LayerSamples& layers,
                       Result& result);

}  // namespace perfbench

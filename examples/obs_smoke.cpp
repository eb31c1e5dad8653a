// Observability smoke run (docs/OBSERVABILITY.md; exercised by ci.sh).
//
// Runs the Fig.-6 Khepera scenario-8 mission with full instrumentation
// (metrics + trace) and two extra stressors layered on top of the scenario's
// own logic bombs:
//
//   * a finite-but-huge wheel-encoder bias (1e160) over a short window —
//     large enough that the innovation quadratic form overflows to +inf,
//     which drives the affected modes' log-likelihoods to -inf and forces
//     the health supervisor through at least one quarantine transition
//     (finite values bypass the detector's non-finite auto-masking, so the
//     numerical-health path is what catches them), and
//   * transport faults on the LiDAR channel, so the per-iteration trace
//     carries non-trivial sensor availability masks.
//
// It then validates the artifacts the way CI does: the JSONL must parse
// line-by-line, the trace must contain iteration events and at least one
// health_transition, and the roboads_report summary must render. Exit 0
// only when all of that holds.
//
//   ./build/examples/obs_smoke [trace.jsonl] [metrics.jsonl]
//     default artifact paths: obs_smoke_{trace,metrics}.jsonl next to the
//     binary (in the build tree), so a bare run never litters the checkout
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "attacks/injector.h"
#include "attacks/scenario.h"
#include "eval/khepera.h"
#include "eval/mission.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "scenario/compile.h"
#include "scenario/library.h"
#include "sim/faults.h"

using namespace roboads;
using namespace roboads::eval;

namespace {

// Scenario 8 plus the huge-bias injector: corrupts both wheel distance
// channels mid-mission, after the detector has settled.
attacks::Scenario scenario_with_numeric_fault(const KheperaPlatform& platform) {
  const attacks::Scenario base =
      scenario::compile_spec(scenario::khepera_table2_spec(8), platform);
  std::vector<attacks::Attachment> attachments = base.attachments();
  attachments.push_back(
      {attacks::InjectionPoint::kSensorOutput, "wheel_encoder",
       std::make_shared<attacks::BiasInjector>(attacks::Window{60, 66},
                                               Vector{1e160, 1e160, 0.0})});
  return attacks::Scenario(base.name() + " + numeric overload",
                           base.description() +
                               "; plus a finite-huge wheel-encoder bias that "
                               "must trip health quarantine",
                           std::move(attachments));
}

}  // namespace

int main(int argc, char** argv) {
  // Default artifacts land next to the binary (the build tree), never in
  // whatever directory the smoke happened to be launched from — a bare
  // `./build/examples/obs_smoke` run must not litter the source checkout.
  const std::filesystem::path self_dir =
      std::filesystem::path(argv[0]).parent_path();
  const std::string trace_path =
      argc > 1 ? argv[1] : (self_dir / "obs_smoke_trace.jsonl").string();
  const std::string metrics_path =
      argc > 2 ? argv[2] : (self_dir / "obs_smoke_metrics.jsonl").string();

  obs::ObsConfig obs_config;
  obs_config.metrics = true;
  obs_config.trace = true;
  obs_config.trace_jsonl_path = trace_path;
  obs_config.metrics_jsonl_path = metrics_path;
  obs::Observability obs(obs_config);

  KheperaPlatform platform;
  MissionConfig cfg;
  cfg.iterations = 120;
  cfg.seed = 88;
  cfg.instruments = obs.instruments();
  cfg.obs_label = "smoke/scenario8";
  cfg.transport_faults = sim::TransportFaultConfig::single(
      sim::SensorFaultSpec{"lidar", /*drop_rate=*/0.15, /*stale_rate=*/0.05,
                           /*duplicate_rate=*/0.0, /*freeze_at=*/0,
                           /*freeze_duration=*/0});

  const MissionResult mission =
      run_mission(platform, scenario_with_numeric_fault(platform), cfg);
  obs.finish();

  // Validate the artifacts the way the CI smoke pass consumes them.
  int failures = 0;
  std::size_t jsonl_lines = 0;
  {
    std::ifstream jsonl(trace_path);
    if (!jsonl.good()) {
      std::printf("FAIL: cannot reopen %s\n", trace_path.c_str());
      ++failures;
    } else {
      try {
        jsonl_lines = obs::validate_jsonl(jsonl);
      } catch (const CheckError& e) {
        std::printf("FAIL: malformed JSONL: %s\n", e.what());
        ++failures;
      }
    }
  }

  std::size_t iteration_events = 0;
  std::size_t health_transitions = 0;
  std::size_t masked_iterations = 0;
  for (const obs::TraceEvent& ev : obs.trace().events()) {
    if (ev.type == "iteration") {
      ++iteration_events;
      for (const auto& [name, value] : ev.fields) {
        if (name != "availability") continue;
        const auto& mask = std::get<std::string>(value);
        if (mask.find('0') != std::string::npos) ++masked_iterations;
      }
    } else if (ev.type == "health_transition") {
      ++health_transitions;
    }
  }
  if (iteration_events != cfg.iterations) {
    std::printf("FAIL: expected %zu iteration events, got %zu\n",
                cfg.iterations, iteration_events);
    ++failures;
  }
  if (health_transitions == 0) {
    std::printf("FAIL: the 1e160 bias produced no health transitions\n");
    ++failures;
  }
  if (masked_iterations == 0) {
    std::printf("FAIL: transport faults produced no availability gaps\n");
    ++failures;
  }

  std::printf("%s\n", obs.report().c_str());
  std::printf("mission: %zu iterations, goal %s, %zu lidar frames dropped\n",
              mission.records.size(),
              mission.goal_reached ? "reached" : "not reached",
              mission.frames_dropped);
  std::printf("trace:   %zu JSONL lines (%s), %zu iteration events, "
              "%zu health transitions, %zu iterations with masked sensors\n",
              jsonl_lines, trace_path.c_str(), iteration_events,
              health_transitions, masked_iterations);
  std::printf("metrics: %s\n", metrics_path.c_str());
  std::printf("%s\n", failures == 0 ? "SMOKE PASS" : "SMOKE FAIL");
  return failures == 0 ? 0 : 1;
}

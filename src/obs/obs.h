// Detector observability layer — configuration and the owning runtime
// bundle (docs/OBSERVABILITY.md).
//
// Split in two so the hot path never sees ownership:
//
//   * ObsConfig — the user-facing knobs. Off by default; a default config
//     produces null Instruments and the instrumented code compiles down to
//     pointer-null branches, leaving golden traces bit-identical.
//   * Instruments — the non-owning handle bundle (metrics registry + trace
//     sink pointers) threaded through EngineConfig / MissionConfig.
//     Copyable, cheap, null-safe.
//   * Observability — the owner. Construct one per run (mission, bench,
//     sweep), hand its instruments() to the configs, and call finish() at
//     the end to write the configured JSONL/CSV artifacts. report() renders
//     the roboads_report summary at any point.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace roboads::obs {

struct ObsConfig {
  // Collect counters/gauges/latency histograms (the metrics registry).
  bool metrics = false;
  // Collect the structured per-iteration trace (the trace sink).
  bool trace = false;

  // Output paths written by Observability::finish(); empty = keep the data
  // in memory only (still queryable via metrics()/trace()).
  std::string trace_jsonl_path;
  std::string trace_csv_path;
  std::string metrics_jsonl_path;

  // Run the black-box flight recorder (obs/flight_recorder.h): a fixed-
  // capacity ring of the last `record_window` detector iterations, frozen
  // into postmortem bundles on alarms/quarantines/mission failures.
  bool record = false;
  std::size_t record_window = 256;
  // Bundle filename prefix (may include a directory part) used by
  // finish(); empty = keep captured bundles in memory only.
  std::string record_out;

  bool enabled() const { return metrics || trace || record; }
};

// Non-owning instrumentation handles. Null members disable that aspect;
// value-default is fully disabled. Every instrumented component treats this
// as optional — no component ever requires observation to run.
//
// The recorder handle is *per-mission* state (a single ring timeline):
// sequential missions may share one, concurrent missions must not.
struct Instruments {
  MetricsRegistry* metrics = nullptr;
  TraceSink* trace = nullptr;
  FlightRecorder* recorder = nullptr;

  // Coarse-timer tier for always-on telemetry (the sharded campaign
  // workers): keep the whole-step timers (engine.step_ns,
  // decision.evaluate_ns) and every counter/gauge, but skip resolving the
  // five per-stage NUISE timers, whose 10 extra clock reads per step
  // dominate the metrics tier's cost (docs/OBSERVABILITY.md overhead
  // table). Ignored when `metrics` is null.
  bool coarse_timers = false;

  bool enabled() const {
    return metrics != nullptr || trace != nullptr || recorder != nullptr;
  }
};

class Observability {
 public:
  explicit Observability(ObsConfig config);

  const ObsConfig& config() const { return config_; }

  // Null members exactly where the config disabled collection.
  Instruments instruments();

  // Valid only for the aspects the config enabled.
  MetricsRegistry& metrics();
  TraceSink& trace();
  FlightRecorder& recorder();

  // Writes the configured output artifacts (idempotent; flush + failbit
  // checked, throws CheckError on I/O failure). Captured postmortem bundles
  // are written one file each under the `record_out` prefix; the paths are
  // available from bundle_paths() afterwards.
  void finish();
  const std::vector<std::string>& bundle_paths() const {
    return bundle_paths_;
  }

  // roboads_report text: the metrics summary plus one-line trace/recorder
  // tallies.
  std::string report() const;

 private:
  ObsConfig config_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<TraceSink> trace_;
  std::unique_ptr<FlightRecorder> recorder_;
  std::vector<std::string> bundle_paths_;
  bool finished_ = false;
};

}  // namespace roboads::obs

// Deterministic postmortem replay (docs/OBSERVABILITY.md "Flight recorder &
// incident bundles").
//
// A PostmortemBundle carries everything needed to re-run the incident: the
// provenance names the platform and the detector knobs in effect, the first
// record's pre-step snapshot is the detector state at the window's start,
// and every record carries the exact inputs (u, z, availability). Replay
// rebuilds the detector, restores the snapshot, feeds the recorded inputs
// back through RoboAds::step, and compares every recorded output — and the
// evolving pre-step state — bit for bit. A clean replay proves the bundle is
// a faithful, self-contained reproduction of the incident; any divergence
// is reported field by field.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "eval/platform.h"
#include "obs/flight_recorder.h"

namespace roboads::eval {

// One field-level divergence between the bundle and its replay.
struct ReplayMismatch {
  std::int64_t k = 0;    // record iteration the divergence appeared at
  std::string field;     // FlightRecord field name ("sensor_chi2", ...)
  std::string detail;    // expected vs replayed, exact (%.17g) rendering
};

struct ReplayResult {
  // Replayed records, same order and count as bundle.records. Packed by the
  // same RoboAds recording path that produced the original bundle, so the
  // comparison exercises the real production code, not a reimplementation.
  std::vector<obs::FlightRecord> records;
  // Incidents the replayed detector froze again (a faithful replay of an
  // alarm bundle re-fires the alarm inside the window).
  std::vector<obs::PostmortemBundle> bundles;
  // Empty = the replay is bit-identical to the bundle.
  std::vector<ReplayMismatch> mismatches;
  bool identical() const { return mismatches.empty(); }
};

// Re-runs the bundle's window through a freshly built detector and compares
// it against the recorded outputs. Throws CheckError when the bundle is
// structurally unusable (no records, missing snapshot, provenance that does
// not match the rebuilt platform); output divergence is returned, not
// thrown.
ReplayResult replay_bundle(const obs::PostmortemBundle& bundle);

// Human-readable incident report: trigger and provenance, time-to-alarm
// against recorded ground truth, attributed sensors/actuators with d̂ˢ/d̂ᵃ
// magnitudes, the mode-likelihood race near the trigger, and a per-
// iteration timeline. Pass the replay result to append the verification
// verdict (tools/roboads_explain --verify).
std::string explain_bundle(const obs::PostmortemBundle& bundle,
                           const ReplayResult* replay = nullptr);

}  // namespace roboads::eval

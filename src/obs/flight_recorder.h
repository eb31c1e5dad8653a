// Black-box flight recorder and alarm postmortem bundles
// (docs/OBSERVABILITY.md "Flight recorder & incident bundles").
//
// The metrics/trace layer records *everything or nothing*: a production run
// must pay full-trace overhead to have any evidence when an alarm fires.
// The flight recorder closes that gap with a fixed-capacity, allocation-free
// ring buffer of per-iteration `FlightRecord`s (inputs, per-mode weights and
// likelihoods, χ² statistics, d̂ˢ/d̂ᵃ estimates, health/availability masks,
// plus a flat pre-step detector-state snapshot) that is cheap enough to run
// always-on. When something goes wrong — the decision maker raises an alarm,
// the health supervisor quarantines a mode, or a mission aborts mid-run
// (eval::run_contained) — the ring's last W iterations are frozen together
// with the run's provenance into a versioned JSONL `PostmortemBundle` that the
// replay harness (eval/replay.h, tools/roboads_explain) can re-run
// bit-identically.
//
// Layering: this header, like the rest of src/obs, depends only on
// roboads_common — every payload is a flat std::vector<double> /
// std::vector<std::int64_t> / std::string, and core/ does the packing. The
// ring is a single timeline: missions flown one after another may share a
// recorder (each begin_mission opens a new timeline), concurrently running
// missions must not.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace roboads::obs {

struct FlightRecorderConfig {
  bool enabled = false;
  // Ring capacity W: a bundle snapshots at most the last `window` records.
  std::size_t window = 256;
  // Upper bound on bundles retained per mission (begin_mission restarts the
  // count), so a pathological alarm storm cannot grow memory without bound;
  // further triggers in that mission are counted but dropped.
  std::size_t max_bundles = 8;
};

// Flat snapshot of the evolving detector state *before* one step: the
// engine's shared estimate/covariance/weights/health plus the decision
// maker's sliding-window contents and the iteration counter. Restoring it
// into a freshly constructed detector (core::RoboAds::restore_state) resumes
// stepping bit-identically, which is what lets a bundle whose window starts
// mid-mission replay exactly.
struct DetectorStateSnapshot {
  std::vector<double> state;          // x̂_{k-1|k-1}
  std::vector<double> state_cov;      // P, row-major
  std::vector<double> weights;        // normalized μ per mode
  // 4 ints per mode: health state code, clean streak, quarantine count,
  // repairs (core/health.h).
  std::vector<std::int64_t> health;
  // Packed sliding windows, [size, head, positives, bit...] per window, in
  // DecisionMaker order: aggregate sensor, aggregate actuator, then one per
  // suite sensor.
  std::vector<std::int64_t> decision;
  std::int64_t iteration = 0;         // completed detector iterations
};

// One control iteration as the recorder sees it. Every field is sized by
// the (fixed) suite/mode/input dimensions, so ring slots are written by
// same-size assignment and steady-state recording allocates nothing.
struct FlightRecord {
  std::int64_t k = 0;                 // 1-based detector iteration
  DetectorStateSnapshot pre_step;     // detector state before this step

  // Inputs.
  std::vector<double> u;              // planned command u_{k-1}
  std::vector<double> z;              // stacked readings z_k
  std::string availability;           // '1'/'0' per suite sensor

  // Outputs.
  std::int64_t selected_mode = 0;
  std::vector<double> mode_weights;
  std::vector<double> log_likelihoods;   // NaN when uninformative
  std::vector<double> innovation_norms;  // NaN when no correction applied
  double sensor_chi2 = 0.0;
  double sensor_threshold = 0.0;
  bool sensor_alarm = false;
  double actuator_chi2 = 0.0;
  double actuator_threshold = 0.0;
  bool actuator_alarm = false;
  std::vector<double> per_sensor_chi2;       // per suite sensor, NaN untested
  std::vector<double> per_sensor_threshold;  // per suite sensor, NaN untested
  std::string misbehaving;            // '1' = confirmed misbehaving
  std::vector<double> sensor_anomaly;    // d̂ˢ per suite dim, NaN untested
  std::vector<double> actuator_anomaly;  // d̂ᵃ
  std::string mode_health;            // 'H'/'D'/'Q' per mode
  std::int64_t quarantined = 0;
  bool containment = false;           // engine containment floor hit

  // Scenario ground truth, annotated by the mission runner after the step
  // (absent when the detector runs outside a mission).
  bool truth_valid = false;
  std::string truth_sensors;          // '1' = corrupted per suite sensor
  bool truth_actuator = false;
};

// Everything the replay harness needs to reconstruct the run: which
// platform/scenario/seed, and the detector knobs that shape estimation.
struct BundleProvenance {
  std::string label;        // mission label ("<scenario>/s<seed>")
  std::string platform;     // Platform::name() ("khepera", "tamiya")
  std::string scenario;
  std::string description;
  std::int64_t seed = 0;
  std::int64_t iterations = 0;
  double dt = 0.0;
  bool linear_baseline = false;
  // Detector configuration actually in effect.
  double likelihood_floor = 1e-9;
  bool health_enabled = true;
  double sensor_alpha = 0.005;
  double actuator_alpha = 0.05;
  std::int64_t sensor_window = 2;
  std::int64_t sensor_criteria = 2;
  std::int64_t actuator_window = 6;
  std::int64_t actuator_criteria = 3;
  std::string modes;        // ';'-joined mode labels, selection order
  std::string sensors;      // ';'-joined suite sensor names
  std::vector<std::int64_t> sensor_dims;
  std::int64_t state_dim = 0;
  std::int64_t input_dim = 0;
};

enum class BundleTrigger {
  kSensorAlarm,
  kActuatorAlarm,
  kQuarantine,
  kMissionFailure,
};

const char* to_string(BundleTrigger trigger);

// A frozen incident: the trigger, the run's provenance, and the recorder's
// window at trigger time (records ordered oldest → newest).
struct PostmortemBundle {
  // Bumped whenever the serialized schema changes; pinned by
  // tests/flight_recorder_test.cc.
  static constexpr int kSchemaVersion = 1;

  std::string trigger;      // to_string(BundleTrigger)
  std::int64_t trigger_k = 0;
  std::string detail;       // human-readable trigger cause
  BundleProvenance provenance;
  std::vector<FlightRecord> records;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderConfig config);

  const FlightRecorderConfig& config() const { return config_; }

  // Starts a new mission timeline: clears the ring, re-arms the per-mission
  // max_bundles cap (captured bundles are kept) and stamps the provenance
  // onto every bundle triggered afterwards.
  void begin_mission(BundleProvenance provenance);

  // Advances the ring and returns the slot for the next record. The slot's
  // previous contents are stale — the caller overwrites every field (the
  // presized vectors make those same-size writes allocation-free).
  FlightRecord& begin_record();

  // Stamps ground truth onto the most recent record (no-op when the ring is
  // empty or `k` is not the newest record's iteration).
  void annotate_truth(std::int64_t k, const std::string& truth_sensors,
                      bool truth_actuator);

  // Freezes the current window into a bundle. Callers fire this on rising
  // edges (alarm raised, quarantine count increased, mission failed), not
  // on every iteration the condition holds.
  void trigger(BundleTrigger trigger, std::int64_t k,
               const std::string& detail);

  // Window snapshot without registering a bundle (tests, ad-hoc export).
  PostmortemBundle snapshot(BundleTrigger trigger, std::int64_t k,
                            const std::string& detail) const;

  // Records currently held (≤ window).
  std::size_t size() const;
  // Ring contents, oldest → newest.
  std::vector<const FlightRecord*> window() const;

  const std::vector<PostmortemBundle>& bundles() const { return bundles_; }
  std::vector<PostmortemBundle> take_bundles();
  // Triggers dropped because max_bundles was reached.
  std::size_t bundles_dropped() const { return bundles_dropped_; }

 private:
  FlightRecorderConfig config_;
  BundleProvenance provenance_;
  std::vector<FlightRecord> ring_;
  std::size_t next_ = 0;   // ring slot the next record goes into
  std::size_t count_ = 0;  // records held (saturates at window)
  std::vector<PostmortemBundle> bundles_;
  std::size_t mission_bundles_ = 0;  // frozen since the last begin_mission
  std::size_t bundles_dropped_ = 0;
};

// --- Bundle serialization (schema version PostmortemBundle::kSchemaVersion).
//
// One JSON object per line: a header line, a provenance line, a snapshot
// line (the first record's pre-step state), then one record line per
// iteration. Doubles round-trip exactly (%.17g); non-finite values
// serialize as null and parse back as NaN.
void write_bundle(std::ostream& os, const PostmortemBundle& bundle);
PostmortemBundle read_bundle(std::istream& is);

// File variants (flush + failbit checked; throw CheckError on I/O failure).
void write_bundle_file(const std::string& path, const PostmortemBundle& b);
PostmortemBundle read_bundle_file(const std::string& path);

// Writes `bundles` one file each, named `prefix + bundle_filename(b, i)` for
// the i-th bundle ("dir/" or "dir/prefix-"), and returns the paths in order.
std::vector<std::string> write_bundle_files(
    const std::string& prefix, const std::vector<PostmortemBundle>& bundles);

// Deterministic bundle filename: "<sanitized-label>-b<ordinal>-<trigger>-
// k<k>.jsonl" (path characters outside [A-Za-z0-9._-] become '_').
std::string bundle_filename(const PostmortemBundle& bundle,
                            std::size_t ordinal);

}  // namespace roboads::obs

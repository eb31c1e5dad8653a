#include "obs/flight_recorder.h"

#include <fstream>
#include <ostream>
#include <sstream>

#include "common/check.h"
#include "obs/jsonl.h"

namespace roboads::obs {

// --- Bundle line codecs (obs/jsonl.h). One JSON object per line: header,
// provenance, warm-start snapshot, then one record line per iteration.

template <class IO>
void codec(IO& io, BundleProvenance& p) {
  io.tag("event", "provenance");
  io("label", p.label);
  io("platform", p.platform);
  io("scenario", p.scenario);
  io("description", p.description);
  io("seed", p.seed);
  io("iterations", p.iterations);
  io("dt", p.dt);
  io("linear_baseline", p.linear_baseline);
  io("likelihood_floor", p.likelihood_floor);
  io("health_enabled", p.health_enabled);
  io("sensor_alpha", p.sensor_alpha);
  io("actuator_alpha", p.actuator_alpha);
  io("sensor_window", p.sensor_window);
  io("sensor_criteria", p.sensor_criteria);
  io("actuator_window", p.actuator_window);
  io("actuator_criteria", p.actuator_criteria);
  io("modes", p.modes);
  io("sensors", p.sensors);
  io("sensor_dims", p.sensor_dims);
  io("state_dim", p.state_dim);
  io("input_dim", p.input_dim);
}

template <class IO>
void codec(IO& io, DetectorStateSnapshot& s) {
  io("state", s.state);
  io("state_cov", s.state_cov);
  io("weights", s.weights);
  io("health", s.health);
  io("decision", s.decision);
  io("iteration", s.iteration);
}

template <class IO>
void codec(IO& io, FlightRecord& r) {
  io.tag("event", "record");
  io("k", r.k);
  io("u", r.u);
  io("z", r.z);
  io("availability", r.availability);
  io("selected_mode", r.selected_mode);
  io("mode_weights", r.mode_weights);
  io("log_likelihoods", r.log_likelihoods);
  io("innovation_norms", r.innovation_norms);
  io("sensor_chi2", r.sensor_chi2);
  io("sensor_threshold", r.sensor_threshold);
  io("sensor_alarm", r.sensor_alarm);
  io("actuator_chi2", r.actuator_chi2);
  io("actuator_threshold", r.actuator_threshold);
  io("actuator_alarm", r.actuator_alarm);
  io("per_sensor_chi2", r.per_sensor_chi2);
  io("per_sensor_threshold", r.per_sensor_threshold);
  io("misbehaving", r.misbehaving);
  io("sensor_anomaly", r.sensor_anomaly);
  io("actuator_anomaly", r.actuator_anomaly);
  io("mode_health", r.mode_health);
  io("quarantined", r.quarantined);
  io("containment", r.containment);
  io("truth_valid", r.truth_valid);
  io("truth_sensors", r.truth_sensors);
  io("truth_actuator", r.truth_actuator);
}

namespace {

constexpr char kBundleName[] = "roboads-postmortem";

// The header line: the trigger plus the number of record lines that
// follow (derived from the bundle when writing).
struct BundleHeader {
  std::string trigger;
  std::int64_t trigger_k = 0;
  std::string detail;
  std::size_t records = 0;
};

template <class IO>
void codec(IO& io, BundleHeader& h) {
  io.tag("event", "bundle");
  io.tag("name", kBundleName);
  io.tag("version", PostmortemBundle::kSchemaVersion);
  io("trigger", h.trigger);
  io("trigger_k", h.trigger_k);
  io("detail", h.detail);
  io("records", h.records);
}

// The warm-start line: the first record's iteration and pre-step state.
struct SnapshotLine {
  std::int64_t k = 0;
  DetectorStateSnapshot state;
};

template <class IO>
void codec(IO& io, SnapshotLine& s) {
  io.tag("event", "snapshot");
  io("k", s.k);
  codec(io, s.state);
}

// Reads the next non-blank line as a `T`, threading the line counter and
// tagging every diagnostic with "bundle line N".
template <class T>
T read_line(std::istream& is, std::size_t& line_no, const char* what) {
  std::string line;
  while (std::getline(is, line)) {
    ++line_no;
    if (!line.empty()) {
      return json::decode<T>(line, "bundle line " + std::to_string(line_no));
    }
  }
  throw CheckError(std::string("bundle truncated: missing ") + what +
                   " line");
}

}  // namespace

const char* to_string(BundleTrigger trigger) {
  switch (trigger) {
    case BundleTrigger::kSensorAlarm: return "sensor_alarm";
    case BundleTrigger::kActuatorAlarm: return "actuator_alarm";
    case BundleTrigger::kQuarantine: return "quarantine";
    case BundleTrigger::kMissionFailure: return "mission_failure";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(FlightRecorderConfig config)
    : config_(config) {
  ROBOADS_CHECK(config_.window >= 1, "flight recorder window must be >= 1");
  ring_.resize(config_.window);
}

void FlightRecorder::begin_mission(BundleProvenance provenance) {
  provenance_ = std::move(provenance);
  next_ = 0;
  count_ = 0;
  mission_bundles_ = 0;
}

FlightRecord& FlightRecorder::begin_record() {
  FlightRecord& slot = ring_[next_];
  next_ = (next_ + 1) % ring_.size();
  if (count_ < ring_.size()) ++count_;
  return slot;
}

void FlightRecorder::annotate_truth(std::int64_t k,
                                    const std::string& truth_sensors,
                                    bool truth_actuator) {
  if (count_ == 0) return;
  FlightRecord& newest = ring_[(next_ + ring_.size() - 1) % ring_.size()];
  if (newest.k != k) return;
  newest.truth_valid = true;
  newest.truth_sensors = truth_sensors;
  newest.truth_actuator = truth_actuator;
  // Bundles triggered by iteration k were frozen inside the detector step,
  // before the mission runner could stamp this truth — patch their copy of
  // the trigger record so frozen incidents carry complete ground truth.
  // Only this mission's bundles can be; earlier missions' are left alone.
  for (std::size_t i = bundles_.size() - mission_bundles_; i < bundles_.size();
       ++i) {
    PostmortemBundle& b = bundles_[i];
    if (b.records.empty()) continue;
    FlightRecord& last = b.records.back();
    if (last.k != k || last.truth_valid) continue;
    last.truth_valid = true;
    last.truth_sensors = truth_sensors;
    last.truth_actuator = truth_actuator;
  }
}

std::size_t FlightRecorder::size() const { return count_; }

std::vector<const FlightRecord*> FlightRecorder::window() const {
  std::vector<const FlightRecord*> out;
  out.reserve(count_);
  const std::size_t oldest =
      count_ < ring_.size() ? 0 : next_;  // ring fills from slot 0
  for (std::size_t i = 0; i < count_; ++i) {
    out.push_back(&ring_[(oldest + i) % ring_.size()]);
  }
  return out;
}

PostmortemBundle FlightRecorder::snapshot(BundleTrigger trigger,
                                          std::int64_t k,
                                          const std::string& detail) const {
  PostmortemBundle bundle;
  bundle.trigger = to_string(trigger);
  bundle.trigger_k = k;
  bundle.detail = detail;
  bundle.provenance = provenance_;
  bundle.records.reserve(count_);
  for (const FlightRecord* rec : window()) bundle.records.push_back(*rec);
  return bundle;
}

void FlightRecorder::trigger(BundleTrigger trigger, std::int64_t k,
                             const std::string& detail) {
  if (mission_bundles_ >= config_.max_bundles) {
    ++bundles_dropped_;
    return;
  }
  ++mission_bundles_;
  bundles_.push_back(snapshot(trigger, k, detail));
}

std::vector<PostmortemBundle> FlightRecorder::take_bundles() {
  std::vector<PostmortemBundle> out = std::move(bundles_);
  bundles_.clear();
  mission_bundles_ = 0;
  return out;
}

void write_bundle(std::ostream& os, const PostmortemBundle& bundle) {
  json::write_line(os, BundleHeader{bundle.trigger, bundle.trigger_k,
                                    bundle.detail, bundle.records.size()});
  json::write_line(os, bundle.provenance);
  // Warm-start snapshot: the first record's pre-step state. Per-record
  // snapshots would multiply the file size for no replay benefit — stepping
  // forward from the window start reproduces every later state exactly.
  SnapshotLine snapshot;
  if (!bundle.records.empty()) {
    snapshot.k = bundle.records.front().k;
    snapshot.state = bundle.records.front().pre_step;
  }
  json::write_line(os, snapshot);
  for (const FlightRecord& r : bundle.records) json::write_line(os, r);
}

PostmortemBundle read_bundle(std::istream& is) {
  std::size_t line_no = 0;
  BundleHeader header = read_line<BundleHeader>(is, line_no, "header");
  PostmortemBundle bundle;
  bundle.trigger = std::move(header.trigger);
  bundle.trigger_k = header.trigger_k;
  bundle.detail = std::move(header.detail);
  bundle.provenance = read_line<BundleProvenance>(is, line_no, "provenance");
  SnapshotLine warm = read_line<SnapshotLine>(is, line_no, "snapshot");
  // No reserve from the declared count: a hostile header must not size an
  // allocation; a short file fails as truncated instead.
  for (std::size_t i = 0; i < header.records; ++i) {
    bundle.records.push_back(read_line<FlightRecord>(is, line_no, "record"));
  }
  if (!bundle.records.empty()) {
    bundle.records.front().pre_step = std::move(warm.state);
  }
  return bundle;
}

void write_bundle_file(const std::string& path, const PostmortemBundle& b) {
  std::ofstream file(path);
  ROBOADS_CHECK(file.good(), "cannot open bundle file '" + path + "'");
  write_bundle(file, b);
  file.flush();
  ROBOADS_CHECK(!file.fail(), "error writing bundle file '" + path + "'");
}

PostmortemBundle read_bundle_file(const std::string& path) {
  std::ifstream file(path);
  ROBOADS_CHECK(file.good(), "cannot open bundle file '" + path + "'");
  return read_bundle(file);
}

std::vector<std::string> write_bundle_files(
    const std::string& prefix, const std::vector<PostmortemBundle>& bundles) {
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < bundles.size(); ++i) {
    paths.push_back(prefix + bundle_filename(bundles[i], i));
    write_bundle_file(paths.back(), bundles[i]);
  }
  return paths;
}

std::string bundle_filename(const PostmortemBundle& bundle,
                            std::size_t ordinal) {
  std::string label =
      bundle.provenance.label.empty() ? "run" : bundle.provenance.label;
  for (char& c : label) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  std::ostringstream os;
  os << label << "-b" << ordinal << "-" << bundle.trigger << "-k"
     << bundle.trigger_k << ".jsonl";
  return os.str();
}

}  // namespace roboads::obs

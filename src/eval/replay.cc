#include "eval/replay.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

namespace roboads::eval {
namespace {

bool bits_equal(double a, double b) {
  std::uint64_t ua = 0;
  std::uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

std::string fmt_exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t at = 0;
  while (at <= s.size()) {
    const std::size_t next = s.find(sep, at);
    if (next == std::string::npos) {
      if (!s.empty()) out.push_back(s.substr(at));
      break;
    }
    out.push_back(s.substr(at, next - at));
    at = next + 1;
  }
  return out;
}

Vector to_vector(const std::vector<double>& v) {
  Vector out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = v[i];
  return out;
}

// Comparison between a bundle record and its replay. Doubles compare by bit
// pattern (NaN == NaN: both paths NaN-pad untested fields identically), so
// "identical" really means the replay reproduced every output bit.
class RecordComparator {
 public:
  RecordComparator(std::int64_t k, std::vector<ReplayMismatch>& out)
      : k_(k), out_(out) {}

  void scalar(const char* field, double want, double got) {
    if (bits_equal(want, got)) return;
    add(field, "expected " + fmt_exact(want) + " got " + fmt_exact(got));
  }
  void scalar(const char* field, std::int64_t want, std::int64_t got) {
    if (want == got) return;
    add(field, "expected " + std::to_string(want) + " got " +
                   std::to_string(got));
  }
  void scalar(const char* field, bool want, bool got) {
    if (want == got) return;
    add(field, std::string("expected ") + (want ? "true" : "false") +
                   " got " + (got ? "true" : "false"));
  }
  void text(const char* field, const std::string& want,
            const std::string& got) {
    if (want == got) return;
    add(field, "expected \"" + want + "\" got \"" + got + "\"");
  }
  void doubles(const char* field, const std::vector<double>& want,
               const std::vector<double>& got) {
    if (want.size() != got.size()) {
      add(field, "expected " + std::to_string(want.size()) +
                     " values, got " + std::to_string(got.size()));
      return;
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (bits_equal(want[i], got[i])) continue;
      add(field, "[" + std::to_string(i) + "] expected " +
                     fmt_exact(want[i]) + " got " + fmt_exact(got[i]));
      return;  // first divergent element per field is enough
    }
  }
  void ints(const char* field, const std::vector<std::int64_t>& want,
            const std::vector<std::int64_t>& got) {
    if (want == got) return;
    add(field, "integer payloads differ");
  }

 private:
  void add(const char* field, std::string detail) {
    ReplayMismatch m;
    m.k = k_;
    m.field = field;
    m.detail = std::move(detail);
    out_.push_back(std::move(m));
  }

  std::int64_t k_;
  std::vector<ReplayMismatch>& out_;
};

void compare_records(const obs::FlightRecord& want,
                     const obs::FlightRecord& got,
                     std::vector<ReplayMismatch>& out) {
  RecordComparator c(want.k, out);
  c.scalar("k", want.k, got.k);
  c.doubles("u", want.u, got.u);
  c.doubles("z", want.z, got.z);
  c.text("availability", want.availability, got.availability);
  c.scalar("selected_mode", want.selected_mode, got.selected_mode);
  c.doubles("mode_weights", want.mode_weights, got.mode_weights);
  c.doubles("log_likelihoods", want.log_likelihoods, got.log_likelihoods);
  c.doubles("innovation_norms", want.innovation_norms, got.innovation_norms);
  c.scalar("sensor_chi2", want.sensor_chi2, got.sensor_chi2);
  c.scalar("sensor_threshold", want.sensor_threshold, got.sensor_threshold);
  c.scalar("sensor_alarm", want.sensor_alarm, got.sensor_alarm);
  c.scalar("actuator_chi2", want.actuator_chi2, got.actuator_chi2);
  c.scalar("actuator_threshold", want.actuator_threshold,
           got.actuator_threshold);
  c.scalar("actuator_alarm", want.actuator_alarm, got.actuator_alarm);
  c.doubles("per_sensor_chi2", want.per_sensor_chi2, got.per_sensor_chi2);
  c.doubles("per_sensor_threshold", want.per_sensor_threshold,
            got.per_sensor_threshold);
  c.text("misbehaving", want.misbehaving, got.misbehaving);
  c.doubles("sensor_anomaly", want.sensor_anomaly, got.sensor_anomaly);
  c.doubles("actuator_anomaly", want.actuator_anomaly, got.actuator_anomaly);
  c.text("mode_health", want.mode_health, got.mode_health);
  c.scalar("quarantined", want.quarantined, got.quarantined);
  c.scalar("containment", want.containment, got.containment);
  // The evolving detector state: a serialized bundle carries the snapshot
  // only on its first record; in-memory bundles carry it on every record
  // and then every intermediate state must reproduce exactly too.
  if (!want.pre_step.state.empty()) {
    c.doubles("pre_step.state", want.pre_step.state, got.pre_step.state);
    c.doubles("pre_step.state_cov", want.pre_step.state_cov,
              got.pre_step.state_cov);
    c.doubles("pre_step.weights", want.pre_step.weights,
              got.pre_step.weights);
    c.ints("pre_step.health", want.pre_step.health, got.pre_step.health);
    c.ints("pre_step.decision", want.pre_step.decision,
           got.pre_step.decision);
    c.scalar("pre_step.iteration", want.pre_step.iteration,
             got.pre_step.iteration);
  }
}

std::string join_mode_labels(const std::vector<core::Mode>& modes) {
  std::string out;
  for (const core::Mode& m : modes) {
    if (!out.empty()) out += ';';
    out += m.label;
  }
  return out;
}

// Checks the provenance's `field` against the size of the sliding window
// packed at `at` in a decision snapshot ([size, head, positives, slot...];
// obs/flight_recorder.h), a size the packed vector must hold; returns the
// offset of the next window.
std::size_t check_window(const std::vector<std::int64_t>& packed,
                         std::size_t at, const std::string& field,
                         std::int64_t window) {
  const std::size_t left = at < packed.size() ? packed.size() - at : 0;
  ROBOADS_CHECK(left >= 3 && packed[at] >= 1 &&
                    static_cast<std::uint64_t>(packed[at]) <= left - 3,
                "replay: the snapshot's " + field + " window is truncated");
  ROBOADS_CHECK(packed[at] == window,
                "replay: provenance " + field + " " + std::to_string(window) +
                    " differs from the snapshot's " +
                    std::to_string(packed[at]));
  return at + 3 + static_cast<std::size_t>(packed[at]);
}

}  // namespace

ReplayResult replay_bundle(const obs::PostmortemBundle& bundle) {
  ROBOADS_CHECK(!bundle.records.empty(), "replay: bundle has no records");
  const obs::BundleProvenance& prov = bundle.provenance;
  ROBOADS_CHECK(!bundle.records.front().pre_step.state.empty(),
                "replay: bundle carries no warm-start snapshot");

  const std::unique_ptr<Platform> platform = make_platform(prov.platform);

  // Same detector construction as eval/mission.cc, with the knobs the
  // provenance says were in effect. Replay attaches only its own recorder.
  const DetectorSetup setup(*platform, prov.linear_baseline);
  const dyn::DynamicModel& detector_model = setup.model();
  const sensors::SensorSuite& detector_suite = setup.suite();

  core::RoboAdsConfig cfg = platform->detector_config();
  cfg.engine.likelihood_floor = prov.likelihood_floor;
  cfg.engine.health.enabled = prov.health_enabled;
  cfg.decision.sensor_alpha = prov.sensor_alpha;
  cfg.decision.actuator_alpha = prov.actuator_alpha;
  cfg.decision.sensor_window = {
      static_cast<std::size_t>(prov.sensor_window),
      static_cast<std::size_t>(prov.sensor_criteria)};
  cfg.decision.actuator_window = {
      static_cast<std::size_t>(prov.actuator_window),
      static_cast<std::size_t>(prov.actuator_criteria)};
  obs::FlightRecorder recorder(obs::FlightRecorderConfig{
      true, bundle.records.size(), bundle.records.size() + 4});
  cfg.engine.instruments = obs::Instruments{};
  cfg.engine.instruments.recorder = &recorder;
  cfg.engine.obs_label = prov.label;

  // The detector sizes its decision windows from the provenance, so they
  // must be the snapshot's before it is built: aggregate sensor, then
  // aggregate actuator.
  const std::vector<std::int64_t>& windows =
      bundle.records.front().pre_step.decision;
  const std::size_t actuator_at =
      check_window(windows, 0, "sensor_window", prov.sensor_window);
  check_window(windows, actuator_at, "actuator_window", prov.actuator_window);

  core::RoboAds detector(detector_model, detector_suite,
                         platform->process_cov(), platform->initial_state(),
                         setup.p0(), cfg, platform->detector_modes());

  // The rebuilt detector must be shaped exactly as the recorded one was —
  // a provenance/platform drift would make the bit-compare meaningless.
  ROBOADS_CHECK_EQ(join_mode_labels(detector.modes()), prov.modes,
                   "replay: platform mode set does not match provenance");
  std::string sensors;
  std::vector<std::int64_t> sensor_dims;
  for (std::size_t s = 0; s < detector_suite.count(); ++s) {
    if (!sensors.empty()) sensors += ';';
    sensors += detector_suite.sensor(s).name();
    sensor_dims.push_back(
        static_cast<std::int64_t>(detector_suite.sensor(s).dim()));
  }
  ROBOADS_CHECK_EQ(sensors, prov.sensors,
                   "replay: platform sensors do not match provenance");
  ROBOADS_CHECK(sensor_dims == prov.sensor_dims,
                "replay: sensor dimensions do not match provenance");
  ROBOADS_CHECK_EQ(detector_model.state_dim(),
                   static_cast<std::size_t>(prov.state_dim),
                   "replay: state dimension does not match provenance");
  ROBOADS_CHECK_EQ(detector_model.input_dim(),
                   static_cast<std::size_t>(prov.input_dim),
                   "replay: input dimension does not match provenance");

  recorder.begin_mission(prov);
  detector.restore_state(bundle.records.front().pre_step);

  // Each record must fit the provenance before it steps: a cut reading
  // vector would otherwise fail deep in the NUISE step, and a short all-'1'
  // availability would step as complete.
  const std::size_t z_dim = detector_suite.total_dim();
  for (const obs::FlightRecord& rec : bundle.records) {
    const auto fault = [&rec](const std::string& what) {
      return "replay: record k=" + std::to_string(rec.k) + ": " + what;
    };
    ROBOADS_CHECK(rec.u.size() == detector_model.input_dim(),
                  fault("u holds " + std::to_string(rec.u.size()) +
                        " values, not input_dim " +
                        std::to_string(detector_model.input_dim())));
    ROBOADS_CHECK(rec.z.size() == z_dim,
                  fault("z holds " + std::to_string(rec.z.size()) +
                        " values, not the sensors' " +
                        std::to_string(z_dim)));
    ROBOADS_CHECK(rec.availability.size() == sensor_dims.size() &&
                      rec.availability.find_first_not_of("01") ==
                          std::string::npos,
                  fault("availability \"" + rec.availability +
                        "\" is not one '0'/'1' per sensor"));
    const Vector u = to_vector(rec.u);
    const Vector z = to_vector(rec.z);
    core::SensorMask mask;
    for (std::size_t i = 0; i < rec.availability.size(); ++i) {
      if (rec.availability[i] == '0') mask.set_missing(i);
    }
    detector.step(u, z, mask);
  }

  ReplayResult out;
  for (const obs::FlightRecord* rec : recorder.window()) {
    out.records.push_back(*rec);
  }
  ROBOADS_CHECK_EQ(out.records.size(), bundle.records.size(),
                   "replay: record count diverged");
  for (std::size_t i = 0; i < bundle.records.size(); ++i) {
    compare_records(bundle.records[i], out.records[i], out.mismatches);
  }
  out.bundles = recorder.take_bundles();
  return out;
}

namespace {

// --- explain_bundle rendering helpers. ---

std::vector<std::size_t> sensor_offsets(const obs::BundleProvenance& prov) {
  std::vector<std::size_t> offsets;
  std::size_t at = 0;
  for (std::int64_t d : prov.sensor_dims) {
    offsets.push_back(at);
    at += static_cast<std::size_t>(d);
  }
  return offsets;
}

std::string fmt_block(const std::vector<double>& flat, std::size_t off,
                      std::size_t dim) {
  std::string out = "[";
  for (std::size_t i = 0; i < dim && off + i < flat.size(); ++i) {
    if (i > 0) out += ", ";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4g", flat[off + i]);
    out += buf;
  }
  return out + "]";
}

}  // namespace

std::string explain_bundle(const obs::PostmortemBundle& bundle,
                           const ReplayResult* replay) {
  const obs::BundleProvenance& prov = bundle.provenance;
  const std::vector<std::string> sensor_names = split(prov.sensors, ';');
  const std::vector<std::string> mode_labels = split(prov.modes, ';');
  const std::vector<std::size_t> offsets = sensor_offsets(prov);
  std::ostringstream os;
  char line[256];

  os << "== incident: " << bundle.trigger << " at k=" << bundle.trigger_k
     << " ==\n";
  os << "  " << bundle.detail << "\n";
  os << "  mission: label=" << (prov.label.empty() ? "(none)" : prov.label)
     << " platform=" << prov.platform << " scenario=" << prov.scenario
     << " seed=" << prov.seed << "\n";
  if (!prov.description.empty()) {
    os << "  scenario: " << prov.description << "\n";
  }
  std::snprintf(line, sizeof(line),
                "  window: k=%lld..%lld (%zu records, dt=%gs)%s\n",
                static_cast<long long>(bundle.records.front().k),
                static_cast<long long>(bundle.records.back().k),
                bundle.records.size(), prov.dt,
                prov.linear_baseline ? ", linear baseline" : "");
  os << line;

  // --- Ground truth vs attribution at the trigger. ---
  const obs::FlightRecord& last = bundle.records.back();
  os << "-- attribution --\n";
  bool attributed = false;
  for (std::size_t s = 0; s < last.misbehaving.size(); ++s) {
    if (last.misbehaving[s] != '1') continue;
    attributed = true;
    const std::string name =
        s < sensor_names.size() ? sensor_names[s] : std::to_string(s);
    const bool truly =
        last.truth_valid && s < last.truth_sensors.size() &&
        last.truth_sensors[s] == '1';
    const std::size_t dim = s < prov.sensor_dims.size()
                                ? static_cast<std::size_t>(prov.sensor_dims[s])
                                : 0;
    os << "  sensor " << name << ": d_hat_s = "
       << fmt_block(last.sensor_anomaly, offsets[s], dim)
       << (last.truth_valid ? (truly ? "  [truth: corrupted]"
                                     : "  [truth: clean — false attribution]")
                            : "")
       << "\n";
  }
  if (last.actuator_alarm) {
    attributed = true;
    os << "  actuator: d_hat_a = "
       << fmt_block(last.actuator_anomaly, 0, last.actuator_anomaly.size())
       << (last.truth_valid
               ? (last.truth_actuator ? "  [truth: corrupted]"
                                      : "  [truth: clean — false alarm]")
               : "")
       << "\n";
  }
  if (!attributed) os << "  (no confirmed attribution at trigger)\n";

  // --- Time to alarm, measured against the recorded ground truth. ---
  std::int64_t onset = -1;
  for (const obs::FlightRecord& r : bundle.records) {
    const bool corrupted =
        r.truth_valid &&
        (r.truth_actuator ||
         r.truth_sensors.find('1') != std::string::npos);
    if (corrupted) {
      onset = r.k;
      break;
    }
  }
  if (onset >= 0 && bundle.trigger_k >= onset) {
    std::snprintf(line, sizeof(line),
                  "  time-to-alarm: %lld iterations (%.2fs) after "
                  "misbehavior onset at k=%lld\n",
                  static_cast<long long>(bundle.trigger_k - onset),
                  static_cast<double>(bundle.trigger_k - onset) * prov.dt,
                  static_cast<long long>(onset));
    os << line;
  } else if (onset < 0) {
    os << "  time-to-alarm: n/a (no recorded misbehavior onset in window)\n";
  }

  // --- Mode-likelihood race near the trigger. ---
  os << "-- mode race (last " << std::min<std::size_t>(8, bundle.records.size())
     << " records; weights mu_m) --\n";
  const std::size_t race_from =
      bundle.records.size() > 8 ? bundle.records.size() - 8 : 0;
  for (std::size_t i = race_from; i < bundle.records.size(); ++i) {
    const obs::FlightRecord& r = bundle.records[i];
    const std::string selected =
        static_cast<std::size_t>(r.selected_mode) < mode_labels.size()
            ? mode_labels[static_cast<std::size_t>(r.selected_mode)]
            : std::to_string(r.selected_mode);
    std::snprintf(line, sizeof(line), "  k=%-5lld -> %-22s",
                  static_cast<long long>(r.k), selected.c_str());
    os << line;
    for (std::size_t m = 0; m < r.mode_weights.size(); ++m) {
      std::snprintf(line, sizeof(line), " %.3f", r.mode_weights[m]);
      os << line;
    }
    os << "\n";
  }

  // --- Per-iteration timeline. ---
  os << "-- timeline (S/A flag the sensor/actuator alarms, * the chi2 "
        "tests) --\n";
  for (const obs::FlightRecord& r : bundle.records) {
    std::snprintf(
        line, sizeof(line),
        "  k=%-5lld mode=%lld chi2 s=%-9.3g%s (thr %-8.3g) a=%-9.3g (thr "
        "%-8.3g) %s%s health=%s avail=%s",
        static_cast<long long>(r.k), static_cast<long long>(r.selected_mode),
        r.sensor_chi2, r.sensor_chi2 > r.sensor_threshold ? "*" : " ",
        r.sensor_threshold, r.actuator_chi2, r.actuator_threshold,
        r.sensor_alarm ? "S" : "-", r.actuator_alarm ? "A" : "-",
        r.mode_health.c_str(), r.availability.c_str());
    os << line;
    if (r.misbehaving.find('1') != std::string::npos) {
      os << " misbehaving=" << r.misbehaving;
    }
    if (r.truth_valid &&
        (r.truth_actuator ||
         r.truth_sensors.find('1') != std::string::npos)) {
      os << " truth=" << r.truth_sensors << (r.truth_actuator ? "+act" : "");
    }
    if (r.containment) os << " CONTAINMENT";
    if (r.quarantined > 0) os << " quarantined=" << r.quarantined;
    os << "\n";
  }

  // --- Replay verdict. ---
  if (replay != nullptr) {
    os << "-- replay --\n";
    if (replay->identical()) {
      os << "  VERIFIED: " << replay->records.size()
         << " records replayed bit-identically";
      std::size_t refired = 0;
      for (const obs::PostmortemBundle& b : replay->bundles) {
        if (b.trigger == bundle.trigger && b.trigger_k == bundle.trigger_k) {
          ++refired;
        }
      }
      os << (refired > 0 ? "; incident re-fired during replay\n"
                         : "\n");
    } else {
      os << "  DIVERGED: " << replay->mismatches.size()
         << " field mismatch(es)\n";
      const std::size_t show =
          std::min<std::size_t>(replay->mismatches.size(), 10);
      for (std::size_t i = 0; i < show; ++i) {
        const ReplayMismatch& m = replay->mismatches[i];
        os << "    k=" << m.k << " " << m.field << ": " << m.detail << "\n";
      }
      if (show < replay->mismatches.size()) {
        os << "    ... (" << replay->mismatches.size() - show << " more)\n";
      }
    }
  }
  return os.str();
}

}  // namespace roboads::eval

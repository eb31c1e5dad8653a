#include "fleet/replay.h"

#include <algorithm>
#include <string>

namespace roboads::fleet {
namespace {

bool same_vector(const Vector& a, const Vector& b) {
  return a.size() == b.size() && a == b;
}

// The report stores the step's mask verbatim, and the empty mask and the
// explicit all-true mask are the same (proven bit-identical) all-available
// path: a fault-active mission passes all-true on undropped iterations
// where a session's complete frame passes empty. Treat them as equal.
bool same_availability(const std::vector<bool>& a, const std::vector<bool>& b) {
  const auto all_true = [](const std::vector<bool>& m) {
    return std::find(m.begin(), m.end(), false) == m.end();
  };
  if (a.empty() || b.empty()) return all_true(a) && all_true(b);
  return a == b;
}

}  // namespace

std::shared_ptr<SessionSpec> make_session_spec(
    const eval::Platform& platform) {
  auto spec = std::make_shared<SessionSpec>();
  spec->model = &platform.model();
  spec->suite = &platform.suite();
  spec->process_cov = &platform.process_cov();
  spec->x0 = platform.initial_state();
  spec->p0 = eval::DetectorSetup(platform, /*linear_baseline=*/false).p0();
  spec->config = platform.detector_config();
  spec->modes = platform.detector_modes();
  spec->bank = core::make_bank(*spec->model, *spec->suite, *spec->process_cov,
                               spec->config, spec->modes);
  return spec;
}

void append_iteration_packets(std::vector<FleetPacket>& out,
                              std::uint64_t robot,
                              const sensors::SensorSuite& suite,
                              const eval::IterationRecord& rec) {
  FleetPacket command;
  command.robot = robot;
  command.packet.source = "controller";
  command.packet.kind = bus::PacketKind::kControlCommand;
  command.packet.iteration = rec.k;
  command.packet.payload = rec.u_planned;
  out.push_back(std::move(command));

  for (std::size_t i = 0; i < suite.count(); ++i) {
    if (!rec.sensor_available.empty() && !rec.sensor_available[i]) {
      continue;  // dropped frame: the session masks it, like the mission
    }
    FleetPacket reading;
    reading.robot = robot;
    reading.packet.source = suite.sensor(i).name();
    reading.packet.kind = bus::PacketKind::kSensorReading;
    reading.packet.iteration = rec.k;
    reading.packet.payload =
        rec.z.segment(suite.offset(i), suite.sensor(i).dim());
    out.push_back(std::move(reading));
  }
}

std::vector<FleetPacket> mission_packets(std::uint64_t robot,
                                         const sensors::SensorSuite& suite,
                                         const eval::MissionResult& mission) {
  std::vector<FleetPacket> out;
  out.reserve(mission.records.size() * (suite.count() + 1));
  for (const eval::IterationRecord& rec : mission.records) {
    append_iteration_packets(out, robot, suite, rec);
  }
  return out;
}

std::string compare_reports(const core::DetectionReport& a,
                            const core::DetectionReport& b) {
  if (a.iteration != b.iteration) return "iteration differs";
  if (a.selected_mode != b.selected_mode) return "selected mode differs";
  if (a.selected_mode_label != b.selected_mode_label) {
    return "selected mode label differs";
  }
  if (a.mode_weights != b.mode_weights) return "mode weights differ";
  if (!same_vector(a.state_estimate, b.state_estimate)) {
    return "state estimate differs";
  }
  if (!(a.state_covariance == b.state_covariance)) {
    return "state covariance differs";
  }

  const core::Decision& da = a.decision;
  const core::Decision& db = b.decision;
  if (da.sensor_statistic != db.sensor_statistic ||
      da.sensor_threshold != db.sensor_threshold ||
      da.sensor_test_positive != db.sensor_test_positive ||
      da.sensor_alarm != db.sensor_alarm) {
    return "sensor decision differs";
  }
  if (da.actuator_statistic != db.actuator_statistic ||
      da.actuator_threshold != db.actuator_threshold ||
      da.actuator_test_positive != db.actuator_test_positive ||
      da.actuator_alarm != db.actuator_alarm) {
    return "actuator decision differs";
  }
  if (da.misbehaving_sensors != db.misbehaving_sensors) {
    return "misbehaving-sensor attribution differs";
  }
  if (da.sensor_verdicts.size() != db.sensor_verdicts.size()) {
    return "sensor verdict count differs";
  }
  for (std::size_t i = 0; i < da.sensor_verdicts.size(); ++i) {
    const core::SensorVerdict& va = da.sensor_verdicts[i];
    const core::SensorVerdict& vb = db.sensor_verdicts[i];
    if (va.sensor_index != vb.sensor_index ||
        va.misbehaving != vb.misbehaving || va.statistic != vb.statistic ||
        va.threshold != vb.threshold ||
        !same_vector(va.anomaly_estimate, vb.anomaly_estimate)) {
      return "sensor verdict " + std::to_string(i) + " differs";
    }
  }
  if (!same_vector(da.actuator_anomaly, db.actuator_anomaly)) {
    return "decision actuator anomaly differs";
  }

  if (a.mode_health != b.mode_health) return "mode health differs";
  if (a.quarantined_modes != b.quarantined_modes) {
    return "quarantine count differs";
  }
  if (!same_availability(a.sensor_available, b.sensor_available)) {
    return "availability mask differs";
  }
  if (a.sensor_anomaly_by_sensor.size() != b.sensor_anomaly_by_sensor.size()) {
    return "sensor anomaly count differs";
  }
  for (std::size_t i = 0; i < a.sensor_anomaly_by_sensor.size(); ++i) {
    if (!same_vector(a.sensor_anomaly_by_sensor[i],
                     b.sensor_anomaly_by_sensor[i])) {
      return "sensor anomaly " + std::to_string(i) + " differs";
    }
  }
  if (!same_vector(a.actuator_anomaly, b.actuator_anomaly)) {
    return "actuator anomaly differs";
  }
  return {};
}

}  // namespace roboads::fleet

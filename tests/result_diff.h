// Field-by-field bit comparison of detector outputs, shared by the tests
// that hold one step against another (tests/nuise_oracle_test.cc,
// tests/detector_step_into_test.cc, tests/fleet_service_test.cc).
//
// Doubles compare with memcmp, so −0.0 against +0.0 fails; any two NaNs
// compare equal, as in tests/kernel_oracle_test.cc: which NaN a NaN result
// carries is not part of either implementation's contract. Each function
// returns an empty string when everything matches, or names the first
// field that differs.
#pragma once

#include <cmath>
#include <cstring>
#include <sstream>
#include <string>

#include "core/roboads.h"

namespace roboads::core {

inline bool same_bits(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

inline std::string diff_doubles(const char* field, const double* a,
                                const double* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (!same_bits(a[i], b[i])) {
      std::ostringstream os;
      os.precision(17);
      os << field << "[" << i << "]: " << a[i] << " vs " << b[i];
      return os.str();
    }
  }
  return "";
}

inline std::string diff_vector(const char* field, const Vector& a,
                               const Vector& b) {
  if (a.size() != b.size()) return std::string(field) + ": size";
  return diff_doubles(field, a.data(), b.data(), a.size());
}

inline std::string diff_matrix(const char* field, const Matrix& a,
                               const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return std::string(field) + ": shape";
  }
  return diff_doubles(field, a.data(), b.data(), a.rows() * a.cols());
}

// Every field of two NUISE results, `active_testing` included.
inline std::string diff_results(const NuiseResult& a, const NuiseResult& b) {
  for (const std::string& d : {
           diff_vector("state", a.state, b.state),
           diff_matrix("state_cov", a.state_cov, b.state_cov),
           diff_vector("actuator_anomaly", a.actuator_anomaly,
                       b.actuator_anomaly),
           diff_matrix("actuator_anomaly_cov", a.actuator_anomaly_cov,
                       b.actuator_anomaly_cov),
           diff_vector("sensor_anomaly", a.sensor_anomaly, b.sensor_anomaly),
           diff_matrix("sensor_anomaly_cov", a.sensor_anomaly_cov,
                       b.sensor_anomaly_cov),
           diff_vector("innovation", a.innovation, b.innovation),
           diff_matrix("innovation_cov", a.innovation_cov, b.innovation_cov),
           diff_doubles("log_likelihood", &a.log_likelihood,
                        &b.log_likelihood, 1),
       }) {
    if (!d.empty()) return d;
  }
  if (a.actuator_identifiable != b.actuator_identifiable) {
    return "actuator_identifiable";
  }
  if (a.correction_applied != b.correction_applied) {
    return "correction_applied";
  }
  if (a.likelihood_informative != b.likelihood_informative) {
    return "likelihood_informative";
  }
  if (a.degraded != b.degraded) return "degraded";
  if (a.active_testing != b.active_testing) return "active_testing";
  return "";
}

// Every field of two decisions, the verdicts and misbehaving list included.
inline std::string diff_decisions(const Decision& a, const Decision& b) {
  for (const std::string& d : {
           diff_doubles("sensor_statistic", &a.sensor_statistic,
                        &b.sensor_statistic, 1),
           diff_doubles("sensor_threshold", &a.sensor_threshold,
                        &b.sensor_threshold, 1),
           diff_doubles("actuator_statistic", &a.actuator_statistic,
                        &b.actuator_statistic, 1),
           diff_doubles("actuator_threshold", &a.actuator_threshold,
                        &b.actuator_threshold, 1),
           diff_vector("decision actuator_anomaly", a.actuator_anomaly,
                       b.actuator_anomaly),
       }) {
    if (!d.empty()) return d;
  }
  if (a.sensor_test_positive != b.sensor_test_positive ||
      a.sensor_alarm != b.sensor_alarm ||
      a.actuator_test_positive != b.actuator_test_positive ||
      a.actuator_alarm != b.actuator_alarm) {
    return "decision flags";
  }
  if (a.sensor_verdicts.size() != b.sensor_verdicts.size()) {
    return "sensor_verdicts: size";
  }
  for (std::size_t i = 0; i < a.sensor_verdicts.size(); ++i) {
    const SensorVerdict& va = a.sensor_verdicts[i];
    const SensorVerdict& vb = b.sensor_verdicts[i];
    for (const std::string& d : {
             diff_doubles("verdict statistic", &va.statistic, &vb.statistic,
                          1),
             diff_doubles("verdict threshold", &va.threshold, &vb.threshold,
                          1),
             diff_vector("verdict anomaly_estimate", va.anomaly_estimate,
                         vb.anomaly_estimate),
         }) {
      if (!d.empty()) return d + " of verdict " + std::to_string(i);
    }
    if (va.sensor_index != vb.sensor_index ||
        va.misbehaving != vb.misbehaving) {
      return "verdict " + std::to_string(i);
    }
  }
  if (a.misbehaving_sensors != b.misbehaving_sensors) {
    return "misbehaving_sensors";
  }
  return "";
}

// Every field of two reports. Unlike fleet::compare_reports, the
// availability lists must be equal as stored (an empty list is not an
// all-true one) and `selected_result` is compared too.
inline std::string diff_reports(const DetectionReport& a,
                                const DetectionReport& b) {
  if (a.iteration != b.iteration) return "iteration";
  if (a.selected_mode != b.selected_mode) return "selected_mode";
  if (a.selected_mode_label != b.selected_mode_label) {
    return "selected_mode_label";
  }
  if (a.mode_weights.size() != b.mode_weights.size()) {
    return "mode_weights: size";
  }
  for (const std::string& d : {
           diff_doubles("mode_weights", a.mode_weights.data(),
                        b.mode_weights.data(), a.mode_weights.size()),
           diff_vector("state_estimate", a.state_estimate, b.state_estimate),
           diff_matrix("state_covariance", a.state_covariance,
                       b.state_covariance),
           diff_decisions(a.decision, b.decision),
           diff_vector("actuator_anomaly", a.actuator_anomaly,
                       b.actuator_anomaly),
       }) {
    if (!d.empty()) return d;
  }
  if (a.mode_health != b.mode_health) return "mode_health";
  if (a.quarantined_modes != b.quarantined_modes) return "quarantined_modes";
  if (a.sensor_available != b.sensor_available) return "sensor_available";
  if (const std::string d = diff_results(a.selected_result, b.selected_result);
      !d.empty()) {
    return "selected_result " + d;
  }
  if (a.sensor_anomaly_by_sensor.size() != b.sensor_anomaly_by_sensor.size()) {
    return "sensor_anomaly_by_sensor: size";
  }
  for (std::size_t s = 0; s < a.sensor_anomaly_by_sensor.size(); ++s) {
    if (const std::string d =
            diff_vector("sensor_anomaly_by_sensor", a.sensor_anomaly_by_sensor[s],
                        b.sensor_anomaly_by_sensor[s]);
        !d.empty()) {
      return d + " of sensor " + std::to_string(s);
    }
  }
  return "";
}

}  // namespace roboads::core

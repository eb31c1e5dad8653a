// The immutable part of a detector, built once and shared (paper §IV-B/C,
// Algorithm 1).
//
// RoboADS runs a bank of M NUISE estimators and a χ² decision maker. At run
// time only the shared estimate, the mode weights and health, and the
// decision windows change. Everything else depends only on the model, the
// sensor suite, Q and the mode set: the validated modes, one Nuise per mode
// with its table of availability patterns (core/nuise.h), and the decision
// maker's χ² threshold tables. That part lives here. MultiModeEngine, DecisionMaker and RoboAds hold a
// shared_ptr<const EstimatorBank> and keep only per-robot state, so a fleet
// of robots flying one platform carries one bank, not one per robot
// (fleet/replay.h make_session_spec builds it once per spec).
//
// A bank is immutable after construction and Nuise::step is const and
// keeps no per-caller state (stage timers are passed per call), so any
// number of detectors may step through one bank from different threads.
#pragma once

#include <vector>

#include "core/decision.h"
#include "core/nuise.h"

namespace roboads::core {

class EstimatorBank {
 public:
  // The full bank: `modes` validated against `suite`, one Nuise per mode
  // over the process covariance Q, and χ² tables at `decision`'s two
  // confidence levels. `model` and `suite` must outlive the bank.
  EstimatorBank(const dyn::DynamicModel& model,
                const sensors::SensorSuite& suite, std::vector<Mode> modes,
                const Matrix& process_cov,
                const DecisionConfig& decision = {});

  // χ² tables only, for a DecisionMaker used on its own: no modes and no
  // estimators. An engine rejects such a bank.
  EstimatorBank(const sensors::SensorSuite& suite,
                const DecisionConfig& decision);

  const sensors::SensorSuite& suite() const { return *suite_; }
  const std::vector<Mode>& modes() const { return modes_; }
  // The NUISE estimator of mode m (same order as modes()).
  const Nuise& estimator(std::size_t m) const { return estimators_[m]; }

  double sensor_alpha() const { return sensor_alpha_; }
  double actuator_alpha() const { return actuator_alpha_; }
  // χ² upper quantiles at the sensor / actuator confidence level: tabulated
  // up to the suite's stacked dimension, solved directly beyond it.
  double sensor_threshold(std::size_t dof) const;
  double actuator_threshold(std::size_t dof) const;

 private:
  const sensors::SensorSuite* suite_;
  std::vector<Mode> modes_;
  std::vector<Nuise> estimators_;
  double sensor_alpha_;
  double actuator_alpha_;
  std::vector<double> sensor_thresholds_;    // index = dof
  std::vector<double> actuator_thresholds_;  // index = dof
};

}  // namespace roboads::core

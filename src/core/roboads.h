// RoboADS — the complete anomaly detection system (paper Algorithm 1).
//
// Ties together the monitor (command/reading intake), the multi-mode NUISE
// estimation engine, the mode selector, and the χ²/sliding-window decision
// maker. One `step()` call per control iteration returns everything the
// planner — and the paper's Fig. 6 — needs: alarms, attributed sensors,
// anomaly quantification, mode weights, and raw test statistics.
#pragma once

#include <optional>

#include "core/decision.h"
#include "core/engine.h"

namespace roboads::core {

struct RoboAdsConfig {
  EngineConfig engine;
  DecisionConfig decision;
  // Observability is configured once on `engine.instruments` /
  // `engine.obs_label`; the detector shares those handles for its own
  // per-iteration trace events, alarm counters, and decision timer.
};

// Everything RoboADS reports for one control iteration.
struct DetectionReport {
  std::size_t iteration = 0;
  std::size_t selected_mode = 0;
  std::string selected_mode_label;
  std::vector<double> mode_weights;

  Vector state_estimate;     // x̂_{k|k} of the selected mode
  Matrix state_covariance;

  Decision decision;         // alarms, statistics, attribution

  // Runtime health (fault-tolerant runtime, docs/ROBUSTNESS.md): per-mode
  // supervision states and the sensors that actually delivered a reading
  // this iteration.
  std::vector<ModeHealthState> mode_health;
  std::size_t quarantined_modes = 0;
  SensorMask sensor_available;

  // Raw NUISE outputs of the selected mode. Kept so offline sweeps (the
  // Fig. 7 decision-parameter study) can replay a DecisionMaker with
  // different α / c / w settings without re-running the estimation.
  NuiseResult selected_result;

  // Anomaly quantification (for forensics, §III-C): d̂ˢ per suite sensor
  // (empty vector when the sensor was the reference of the selected mode)
  // and d̂ᵃ for the actuators.
  std::vector<Vector> sensor_anomaly_by_sensor;
  Vector actuator_anomaly;
};

// The bank a detector built from these arguments owns: `modes` defaults to
// the one-reference-per-sensor set when empty, and the χ² tables follow
// `config.decision`. Detectors sharing it keep only per-robot state.
std::shared_ptr<const EstimatorBank> make_bank(
    const dyn::DynamicModel& model, const sensors::SensorSuite& suite,
    const Matrix& process_cov, const RoboAdsConfig& config,
    std::vector<Mode> modes = {});

class RoboAds {
 public:
  // Builds a private bank (make_bank). `model` and `suite` must outlive
  // the detector.
  RoboAds(const dyn::DynamicModel& model, const sensors::SensorSuite& suite,
          const Matrix& process_cov, const Vector& x0, const Matrix& p0,
          RoboAdsConfig config = {}, std::vector<Mode> modes = {});

  // Steps through a shared bank whose χ² tables were built for
  // `config.decision`'s confidence levels.
  RoboAds(std::shared_ptr<const EstimatorBank> bank, const Vector& x0,
          const Matrix& p0, RoboAdsConfig config = {});

  const EstimatorBank& bank() const { return engine_.bank(); }
  const std::vector<Mode>& modes() const { return engine_.modes(); }
  const Vector& state_estimate() const { return engine_.state(); }
  // Completed step() calls since construction/reset/restore — the streaming
  // session façade (fleet/session.h) uses this to cross-check that a
  // restored detector lines up with the stream position it migrated with.
  std::size_t iteration() const { return iteration_; }

  // One control iteration: planned commands u_{k−1}, the full stacked
  // sensor readings z_k (monitor intake, Algorithm 1 lines 2-3) and the
  // sensors whose reading arrived (the default: all of them; see
  // sim/faults.h and docs/ROBUSTNESS.md). A mask naming a sensor past the
  // suite is refused. Sensors whose reading block contains a non-finite
  // value are treated as unavailable for the iteration instead of
  // poisoning the estimator bank.
  DetectionReport step(const Vector& u_prev, const Vector& z_full,
                       SensorMask available = {});

  // The step above, writing into `report`, which may hold a report of any
  // detector: every field is written (the split of a sensor not tested
  // this step is emptied) into the capacity the report already has, so a
  // steady step on a reused report allocates nothing. The engine steps
  // into a result kept per thread, not per detector: a fleet of thousands
  // of detectors on a few threads holds a few results. step() wraps it.
  void step_into(const Vector& u_prev, const Vector& z_full,
                 SensorMask available, DetectionReport& report);

  // Restarts estimation for a new mission.
  void reset(const Vector& x0, const Matrix& p0);

  // Flight-recorder state capture (obs/flight_recorder.h): the full evolving
  // detector state — engine estimate/covariance/weights/health, decision
  // sliding windows, and the iteration counter — flat-packed for a ring
  // record. Restoring into a detector built with the same
  // model/suite/modes/config resumes step() bit-identically from the
  // captured point; that contract is what makes postmortem bundles
  // replayable (eval/replay.h).
  void save_state(obs::DetectorStateSnapshot& snap) const;
  void restore_state(const obs::DetectorStateSnapshot& snap);

 private:
  void emit_iteration_event(const DetectionReport& report,
                            const obs::FlightRecord& rec);
  void fill_flight_record(obs::FlightRecord& rec,
                          const DetectionReport& report,
                          const EngineResult& engine_result);

  const sensors::SensorSuite& suite() const { return bank().suite(); }

  MultiModeEngine engine_;
  DecisionMaker decision_maker_;
  std::size_t iteration_ = 0;

  // Observability (shared with the engine via config.engine.instruments;
  // all null when disabled). The "iteration" trace event is the detector's
  // per-step record: per-mode weights/likelihoods/innovation norms, χ²
  // statistics and alarms, availability mask, and mode-health codes.
  obs::Instruments instruments_;
  std::string obs_label_;
  obs::Histogram* h_decision_ = nullptr;   // decision.evaluate_ns
  obs::Counter* c_sensor_alarms_ = nullptr;
  obs::Counter* c_actuator_alarms_ = nullptr;

  // Rising-edge memory for flight-recorder bundle triggers: a bundle is
  // frozen when an alarm/quarantine condition *starts*, not on every
  // iteration it persists.
  bool prev_sensor_alarm_ = false;
  bool prev_actuator_alarm_ = false;
  bool prev_quarantined_ = false;
};

}  // namespace roboads::core

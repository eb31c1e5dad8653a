#include "core/roboads.h"

#include <cmath>
#include <cstdio>
#include <limits>

#include "obs/timer.h"
#include "obs/trace.h"

namespace roboads::core {

std::shared_ptr<const EstimatorBank> make_bank(
    const dyn::DynamicModel& model, const sensors::SensorSuite& suite,
    const Matrix& process_cov, const RoboAdsConfig& config,
    std::vector<Mode> modes) {
  if (modes.empty()) modes = one_reference_per_sensor(suite);
  return std::make_shared<const EstimatorBank>(model, suite, std::move(modes),
                                               process_cov, config.decision);
}

RoboAds::RoboAds(const dyn::DynamicModel& model,
                 const sensors::SensorSuite& suite, const Matrix& process_cov,
                 const Vector& x0, const Matrix& p0, RoboAdsConfig config,
                 std::vector<Mode> modes)
    : RoboAds(make_bank(model, suite, process_cov, config, std::move(modes)),
              x0, p0, config) {}

RoboAds::RoboAds(std::shared_ptr<const EstimatorBank> bank, const Vector& x0,
                 const Matrix& p0, RoboAdsConfig config)
    : engine_(bank, x0, p0, config.engine),
      decision_maker_(std::move(bank), config.decision),
      instruments_(config.engine.instruments),
      obs_label_(config.engine.obs_label) {
  if (obs::MetricsRegistry* metrics = instruments_.metrics) {
    h_decision_ = &metrics->histogram("decision.evaluate_ns",
                                      obs::default_latency_bounds_ns());
    c_sensor_alarms_ = &metrics->counter("detector.sensor_alarms");
    c_actuator_alarms_ = &metrics->counter("detector.actuator_alarms");
  }
}

void RoboAds::reset(const Vector& x0, const Matrix& p0) {
  engine_.reset(x0, p0);
  decision_maker_.reset();
  iteration_ = 0;
  prev_sensor_alarm_ = false;
  prev_actuator_alarm_ = false;
  prev_quarantined_ = false;
}

void RoboAds::save_state(obs::DetectorStateSnapshot& snap) const {
  engine_.save_state(snap);
  decision_maker_.save_windows(snap.decision);
  snap.iteration = static_cast<std::int64_t>(iteration_);
}

void RoboAds::restore_state(const obs::DetectorStateSnapshot& snap) {
  engine_.restore_state(snap);
  decision_maker_.restore_windows(snap.decision);
  iteration_ = static_cast<std::size_t>(snap.iteration);
  // The trigger edge state is not part of the snapshot: a replayed run
  // starts with clear edges, so the incident that froze the bundle fires
  // again during replay (which is exactly what --verify checks).
  prev_sensor_alarm_ = false;
  prev_actuator_alarm_ = false;
  prev_quarantined_ = false;
}

DetectionReport RoboAds::step(const Vector& u_prev, const Vector& z_full) {
  return step(u_prev, z_full, SensorMask{});
}

DetectionReport RoboAds::step(const Vector& u_prev, const Vector& z_full,
                              const SensorMask& available) {
  DetectionReport report;
  step_into(u_prev, z_full, available, report);
  return report;
}

void RoboAds::step_into(const Vector& u_prev, const Vector& z_full,
                        const SensorMask& available,
                        DetectionReport& report) {
  // Monitor-side sanitization: a sensor delivering a non-finite value is a
  // transport/driver fault, not a measurement — mask it out for this
  // iteration so it cannot poison the estimator bank. Finite readings take
  // the caller's mask untouched (bit-identical legacy path when empty).
  // The report's own availability list is the mask the step runs under.
  const sensors::SensorSuite& suite = this->suite();
  ROBOADS_CHECK(available.empty() || available.size() == suite.count(),
                "availability mask size mismatch");
  SensorMask& mask = report.sensor_available;
  mask = available;
  if (!z_full.all_finite()) {
    if (mask.empty()) mask.assign(suite.count(), true);
    for (std::size_t i = 0; i < suite.count(); ++i) {
      const Vector block = z_full.segment(suite.offset(i),
                                          suite.sensor(i).dim());
      if (!block.all_finite()) mask[i] = false;
    }
  }

  // Flight recorder, input half: advance the ring and capture the pre-step
  // detector state plus this iteration's inputs before estimation runs. All
  // writes are same-size assigns into the presized slot (allocation-free in
  // steady state).
  obs::FlightRecorder* const recorder = instruments_.recorder;
  obs::FlightRecord* rec = nullptr;
  if (recorder != nullptr) {
    rec = &recorder->begin_record();
    save_state(rec->pre_step);
    rec->u.assign(u_prev.data(), u_prev.data() + u_prev.size());
    rec->z.assign(z_full.data(), z_full.data() + z_full.size());
    rec->availability.assign(suite.count(), '1');
    for (std::size_t i = 0; i < mask.size() && i < suite.count(); ++i) {
      if (!mask[i]) rec->availability[i] = '0';
    }
  }

  // The per-mode results are scratch: nothing of them outlives this call
  // but what is copied into the report, so every detector stepping on this
  // thread shares one set of slots.
  thread_local EngineResult engine_result;
  engine_.step_into(u_prev, z_full, mask, engine_result);
  const Mode& mode = engine_.modes()[engine_result.selected_mode];

  // The selected mode's outputs, or at the containment floor (every mode
  // failed supervision this iteration) the engine's last good shared
  // estimate with a neutral (statistic-0) decision instead of the
  // corrupted mode outputs.
  NuiseResult& selected = report.selected_result;
  if (engine_result.fallback_previous_estimate) {
    selected = NuiseResult{};
    selected.state = engine_.state();
    selected.state_cov = engine_.state_cov();
    selected.actuator_anomaly = Vector(u_prev.size());
    selected.actuator_anomaly_cov = Matrix::identity(u_prev.size());
    selected.correction_applied = false;
    selected.likelihood_informative = false;
    selected.actuator_identifiable = false;
    selected.degraded = true;  // empty active_testing → no attribution
  } else {
    selected = engine_result.selected();
  }

  report.iteration = ++iteration_;
  report.selected_mode = engine_result.selected_mode;
  report.selected_mode_label = mode.label;
  report.mode_weights.assign(engine_result.mode_weights.begin(),
                             engine_result.mode_weights.end());
  report.state_estimate = selected.state;
  report.state_covariance = selected.state_cov;
  {
    const obs::ScopedTimer decision_timer(h_decision_);
    decision_maker_.evaluate_into(mode, selected, report.decision);
  }
  report.actuator_anomaly = selected.actuator_anomaly;
  report.mode_health.assign(engine_result.mode_health.begin(),
                            engine_result.mode_health.end());
  report.quarantined_modes = engine_result.quarantined_modes;

  // Split the stacked testing-sensor anomaly back out by suite sensor
  // (degraded steps stack only the available testing sensors); every
  // other sensor's split is empty.
  report.sensor_anomaly_by_sensor.resize(suite.count());
  for (Vector& block : report.sensor_anomaly_by_sensor) {
    block.resize_for_overwrite(0);
  }
  std::size_t at = 0;
  for (std::size_t t : active_testing_of(mode, selected)) {
    const std::size_t dim = suite.sensor(t).dim();
    report.sensor_anomaly_by_sensor[t].assign_segment(selected.sensor_anomaly,
                                                      at, dim);
    at += dim;
  }

  if (c_sensor_alarms_ != nullptr && report.decision.sensor_alarm) {
    c_sensor_alarms_->increment();
  }
  if (c_actuator_alarms_ != nullptr && report.decision.actuator_alarm) {
    c_actuator_alarms_->increment();
  }
  if (instruments_.trace != nullptr) {
    emit_iteration_event(report, engine_result);
  }

  // Flight recorder, output half: finish the record, then freeze a
  // postmortem bundle on every rising edge of an incident condition.
  if (rec != nullptr) {
    fill_flight_record(*rec, report, engine_result);
    const std::int64_t k = static_cast<std::int64_t>(report.iteration);
    const bool quarantined_now = report.quarantined_modes > 0;
    if (report.decision.sensor_alarm && !prev_sensor_alarm_) {
      char detail[160];
      std::snprintf(detail, sizeof(detail),
                    "sensor chi2 %.6g > %.6g (misbehaving=%s)",
                    report.decision.sensor_statistic,
                    report.decision.sensor_threshold,
                    rec->misbehaving.c_str());
      recorder->trigger(obs::BundleTrigger::kSensorAlarm, k, detail);
    }
    if (report.decision.actuator_alarm && !prev_actuator_alarm_) {
      char detail[160];
      std::snprintf(detail, sizeof(detail), "actuator chi2 %.6g > %.6g",
                    report.decision.actuator_statistic,
                    report.decision.actuator_threshold);
      recorder->trigger(obs::BundleTrigger::kActuatorAlarm, k, detail);
    }
    if (quarantined_now && !prev_quarantined_) {
      char detail[160];
      std::snprintf(detail, sizeof(detail),
                    "%zu mode(s) quarantined (health=%s)",
                    report.quarantined_modes, rec->mode_health.c_str());
      recorder->trigger(obs::BundleTrigger::kQuarantine, k, detail);
    }
    prev_sensor_alarm_ = report.decision.sensor_alarm;
    prev_actuator_alarm_ = report.decision.actuator_alarm;
    prev_quarantined_ = quarantined_now;
  }
}

// Packs one finished iteration into the recorder slot. Per-sensor fields are
// NaN-padded to the full suite layout so every record has an identical shape
// regardless of the selected mode's testing group or degraded steps.
void RoboAds::fill_flight_record(obs::FlightRecord& rec,
                                 const DetectionReport& report,
                                 const EngineResult& engine_result) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  rec.k = static_cast<std::int64_t>(report.iteration);
  rec.selected_mode = static_cast<std::int64_t>(report.selected_mode);
  rec.mode_weights = report.mode_weights;
  const std::size_t m_count = engine_.modes().size();
  rec.log_likelihoods.resize(m_count);
  rec.innovation_norms.resize(m_count);
  for (std::size_t m = 0; m < m_count; ++m) {
    const NuiseResult& r = engine_result.per_mode[m];
    rec.log_likelihoods[m] =
        r.likelihood_informative ? r.log_likelihood : kNaN;
    rec.innovation_norms[m] =
        r.correction_applied ? r.innovation.norm() : kNaN;
  }
  rec.sensor_chi2 = report.decision.sensor_statistic;
  rec.sensor_threshold = report.decision.sensor_threshold;
  rec.sensor_alarm = report.decision.sensor_alarm;
  rec.actuator_chi2 = report.decision.actuator_statistic;
  rec.actuator_threshold = report.decision.actuator_threshold;
  rec.actuator_alarm = report.decision.actuator_alarm;
  const sensors::SensorSuite& suite = this->suite();
  rec.per_sensor_chi2.assign(suite.count(), kNaN);
  rec.per_sensor_threshold.assign(suite.count(), kNaN);
  for (const SensorVerdict& v : report.decision.sensor_verdicts) {
    rec.per_sensor_chi2[v.sensor_index] = v.statistic;
    rec.per_sensor_threshold[v.sensor_index] = v.threshold;
  }
  rec.misbehaving.assign(suite.count(), '0');
  for (std::size_t s : report.decision.misbehaving_sensors) {
    rec.misbehaving[s] = '1';
  }
  rec.sensor_anomaly.assign(suite.total_dim(), kNaN);
  for (std::size_t s = 0; s < suite.count(); ++s) {
    const Vector& block = report.sensor_anomaly_by_sensor[s];
    if (block.size() == 0) continue;
    const std::size_t off = suite.offset(s);
    for (std::size_t i = 0; i < block.size(); ++i) {
      rec.sensor_anomaly[off + i] = block[i];
    }
  }
  rec.actuator_anomaly.assign(
      report.actuator_anomaly.data(),
      report.actuator_anomaly.data() + report.actuator_anomaly.size());
  rec.mode_health.resize(report.mode_health.size());
  for (std::size_t m = 0; m < report.mode_health.size(); ++m) {
    rec.mode_health[m] = code(report.mode_health[m]);
  }
  rec.quarantined = static_cast<std::int64_t>(report.quarantined_modes);
  rec.containment = engine_result.fallback_previous_estimate;
  // Ground truth is the mission runner's to stamp (annotate_truth); the
  // slot's previous tenant must not leak through.
  rec.truth_valid = false;
  rec.truth_sensors.clear();
  rec.truth_actuator = false;
}

// The per-iteration trace record (docs/OBSERVABILITY.md). Emitted from the
// serial detector path after the engine join, so event order is
// deterministic at any engine thread count. Field layout must be identical
// across iterations of one run — the CSV writer derives its columns from the
// first event (obs/trace.cc).
void RoboAds::emit_iteration_event(const DetectionReport& report,
                                   const EngineResult& engine_result) {
  const std::size_t m_count = engine_.modes().size();
  std::vector<double> log_likelihoods(m_count);
  std::vector<double> innovation_norms(m_count);
  for (std::size_t m = 0; m < m_count; ++m) {
    const NuiseResult& r = engine_result.per_mode[m];
    log_likelihoods[m] = r.likelihood_informative
                             ? r.log_likelihood
                             : std::numeric_limits<double>::quiet_NaN();
    innovation_norms[m] = r.correction_applied
                              ? r.innovation.norm()
                              : std::numeric_limits<double>::quiet_NaN();
  }

  std::string health_codes(report.mode_health.size(), 'H');
  for (std::size_t m = 0; m < report.mode_health.size(); ++m) {
    health_codes[m] = code(report.mode_health[m]);
  }
  std::string availability(suite().count(), '1');
  for (std::size_t i = 0;
       i < report.sensor_available.size() && i < availability.size(); ++i) {
    if (!report.sensor_available[i]) availability[i] = '0';
  }
  std::string misbehaving;
  for (std::size_t s : report.decision.misbehaving_sensors) {
    if (!misbehaving.empty()) misbehaving += ';';
    misbehaving += std::to_string(s);
  }

  obs::TraceEvent ev("iteration", obs_label_, report.iteration);
  ev.add("selected_mode", static_cast<std::int64_t>(report.selected_mode));
  ev.add("selected_label", report.selected_mode_label);
  ev.add("mode_weights", report.mode_weights);
  ev.add("log_likelihoods", std::move(log_likelihoods));
  ev.add("innovation_norms", std::move(innovation_norms));
  ev.add("sensor_chi2", report.decision.sensor_statistic);
  ev.add("sensor_threshold", report.decision.sensor_threshold);
  ev.add("sensor_alarm", report.decision.sensor_alarm);
  ev.add("actuator_chi2", report.decision.actuator_statistic);
  ev.add("actuator_threshold", report.decision.actuator_threshold);
  ev.add("actuator_alarm", report.decision.actuator_alarm);
  ev.add("mode_health", std::move(health_codes));
  ev.add("quarantined", static_cast<std::int64_t>(report.quarantined_modes));
  ev.add("availability", std::move(availability));
  ev.add("misbehaving", std::move(misbehaving));
  ev.add("containment_floor", engine_result.fallback_previous_estimate);
  instruments_.trace->emit(std::move(ev));
}

}  // namespace roboads::core

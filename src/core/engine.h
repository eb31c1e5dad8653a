// Multi-mode estimation engine and mode selector (paper §IV-B, §IV-C;
// Algorithm 1, lines 4-9).
//
// The engine runs one NUISE estimator per mode (from its EstimatorBank,
// core/bank.h) plus a recursive weight μ_m per mode:
// μ_m,k = max(N_m,k · μ_m,k−1, ε) followed by normalization. All estimators
// start each iteration from the shared state estimate of the previously
// selected mode, exactly as Algorithm 1 threads x̂_{k−1|k−1} into every
// NUISE call.
#pragma once

#include <memory>
#include <vector>

#include "core/bank.h"
#include "core/health.h"
#include "obs/obs.h"

namespace roboads::core {

struct EngineConfig {
  // Likelihood floor ε: prevents any mode's weight from collapsing to zero
  // so the selector can recover when the attacked sensor set changes
  // (Algorithm 1, line 6). Applied to the *normalized* weight.
  //
  // Sizing note: ε also bounds how quickly a *corrupted-reference* mode can
  // reclaim the selection after the filter absorbs a constant bias into its
  // state (at which point that hypothesis becomes self-consistent — the
  // ambiguity §VI's "frequently switching attack targets" discussion
  // acknowledges). A mode at the floor needs ~log(1/ε)/δ iterations of
  // per-step log-likelihood advantage δ to overtake; 1e-9 keeps that beyond
  // mission length for sensors of comparable quality while still allowing
  // recovery when conditions genuinely change.
  double likelihood_floor = 1e-9;

  // Numerical health supervision (core/health.h): finite/PSD checks after
  // each mode update, covariance repair for mild drift, and quarantine of
  // diverged modes. Enabled by default — the checks are pure reads on
  // healthy results, so supervised output is bit-identical to the
  // unsupervised engine whenever nothing actually fails.
  HealthConfig health;

  // Observability handles (obs/obs.h; docs/OBSERVABILITY.md). Null members
  // (the default) disable instrumentation: the engine then takes one
  // pointer-null branch per site and its outputs stay bit-identical — the
  // checked-in golden traces prove it. With metrics attached the engine
  // records step latency, NUISE stage timers, mode-selection counters and
  // fault/quarantine tallies; with a trace sink attached it emits
  // "health_transition" and "containment_floor" events. Observation never
  // feeds back into estimation.
  obs::Instruments instruments;
  // Mission label stamped onto emitted trace events so the missions of a
  // sweep sharing one sink stay attributable.
  std::string obs_label;
};

struct EngineResult {
  std::size_t selected_mode = 0;          // Mk
  std::vector<double> mode_weights;       // normalized μ_m,k
  std::vector<NuiseResult> per_mode;      // one entry per mode
  const NuiseResult& selected() const { return per_mode[selected_mode]; }

  // Health snapshot after this iteration's supervision (one entry per
  // mode). Quarantined modes carry weight 0 and are never selected.
  std::vector<ModeHealthState> mode_health;
  std::size_t quarantined_modes = 0;
  // True when every mode failed supervision this iteration: the engine kept
  // the previous shared estimate, reset the weights to uniform, and
  // reinstated all modes for the next step.
  bool fallback_previous_estimate = false;
};

class MultiModeEngine {
 public:
  // Builds a private bank over `modes`. `model` and `suite` must outlive
  // the engine.
  MultiModeEngine(const dyn::DynamicModel& model,
                  const sensors::SensorSuite& suite, std::vector<Mode> modes,
                  const Matrix& process_cov, const Vector& x0,
                  const Matrix& p0, EngineConfig config = {});

  // Steps the estimators of a shared bank, which must hold at least one
  // mode. The engine keeps only its own estimate, weights and health.
  MultiModeEngine(std::shared_ptr<const EstimatorBank> bank, const Vector& x0,
                  const Matrix& p0, EngineConfig config = {});

  const EstimatorBank& bank() const { return *bank_; }
  const std::vector<Mode>& modes() const { return bank_->modes(); }
  const Vector& state() const { return state_; }
  const Matrix& state_cov() const { return state_cov_; }
  const std::vector<double>& weights() const { return weights_; }

  // One control iteration: runs every mode's NUISE from the shared previous
  // estimate, updates weights, selects the max-weight mode, and adopts its
  // state estimate.
  EngineResult step(const Vector& u_prev, const Vector& z_full);

  // Degraded-mode iteration under a per-sensor availability mask (empty =
  // all available; see sim/faults.h). Modes whose reference group is
  // unavailable run prediction-only and participate neutrally in the weight
  // update; missing testing sensors are excluded from each mode's d̂ˢ.
  EngineResult step(const Vector& u_prev, const Vector& z_full,
                    const SensorMask& available);

  // Resets the shared estimate, uniform weights, and mode health (e.g. for
  // a new mission).
  void reset(const Vector& x0, const Matrix& p0);

  // Flight-recorder state capture (obs/flight_recorder.h): fills/reads the
  // engine-owned part of the flat snapshot — shared estimate + covariance,
  // normalized weights, per-mode health, and the step counter. Restoring
  // into an engine built with the same model/suite/modes/config resumes
  // stepping bit-identically from the captured point. The decision-window
  // part of the snapshot belongs to the DecisionMaker (core/roboads.h ties
  // the two together).
  void save_state(obs::DetectorStateSnapshot& snap) const;
  void restore_state(const obs::DetectorStateSnapshot& snap);

  // Health of each mode after the most recent step.
  const std::vector<ModeHealth>& mode_health() const { return health_; }

 private:
  EngineResult step_impl(const Vector& u_prev, const Vector& z_full,
                         const SensorMask* available);

  std::shared_ptr<const EstimatorBank> bank_;
  EngineConfig config_;
  Vector state_;
  Matrix state_cov_;
  std::vector<double> weights_;  // normalized
  std::vector<ModeHealth> health_;
  // Step scratch, sized once at construction so step_impl does not
  // reallocate the reduction buffers every iteration.
  std::vector<bool> quarantined_scratch_;
  std::vector<double> log_w_scratch_;

  // --- Observability handles, resolved once at construction (all null when
  // config_.instruments.metrics is null; the hot path then only pays the
  // null checks). Handles stay valid for the registry's lifetime. The
  // stage timers go into every NUISE step, so engines sharing a bank record
  // only into their own registries.
  NuiseStageTimers stage_timers_;
  obs::Histogram* h_step_ = nullptr;              // engine.step_ns
  std::vector<obs::Counter*> c_mode_selected_;    // engine.mode_selected.<label>
  obs::Counter* c_repairs_ = nullptr;             // engine.health_repairs
  obs::Counter* c_quarantine_enter_ = nullptr;    // engine.quarantine_enter
  obs::Counter* c_containment_floor_ = nullptr;   // engine.containment_floor
  obs::Gauge* g_quarantined_ = nullptr;           // engine.quarantined_modes
  std::size_t step_index_ = 0;  // iteration counter for trace events
};

}  // namespace roboads::core

// NUISE — Nonlinear Unknown Input and State Estimation (paper Algorithm 2).
//
// One NUISE instance serves one mode: given the previous state estimate, the
// planned control commands, and the current readings, it produces
//
//   1. the actuator anomaly estimate d̂ᵃ_{k−1} from reference-sensor
//      innovations against the uncompensated prediction,
//   2. the state prediction using the *compensated* input u + d̂ᵃ, with
//      covariance propagation that accounts for the estimation of d̂ᵃ,
//   3. the minimum-variance state update from the reference sensors,
//      including the input-estimate / measurement-noise cross-correlation,
//   4. the testing-sensor anomaly estimate d̂ˢ_k = z₁ − h₁(x̂_{k|k}),
//
// plus the mode log-likelihood from the innovation under the degenerate
// Gaussian (pseudo-inverse / pseudo-determinant) density of line 20.
//
// Sign convention: the printed DSN algorithm carries inconsistent signs on
// the cross-covariance terms between lines 11–12 and 14/18 (an artifact of
// the proceedings text). We implement the re-derived filter with
// Ū := E[(x_k − x̂_{k|k−1}) ξ₂ᵀ] = −G M₂ R₂ used consistently; see
// DESIGN.md §1 for the derivation. The covariance update uses the
// generalized Joseph form, exact for any gain.
#pragma once

#include "core/mode.h"
#include "dynamics/model.h"
#include "matrix/matrix.h"
#include "obs/metrics.h"
#include "sensors/sensor_model.h"

namespace roboads::core {

// Hot-path stage timers for one NUISE iteration (obs/timer.h). The engine
// resolves one set from its metrics registry and passes it into every
// step; all members null (the default) disables timing entirely. The
// estimator keeps no timers of its own, so one estimator shared by many
// engines (core/bank.h) records only into the stepping engine's registry.
// Histograms are lock-free, so detectors stepping on different threads
// (fleet shards) record concurrently.
struct NuiseStageTimers {
  obs::Histogram* input_estimation = nullptr;  // Step 1: d̂ᵃ estimation
  obs::Histogram* predict = nullptr;           // Step 2: compensated predict
  obs::Histogram* correct = nullptr;           // Step 3: state update
  obs::Histogram* sensor_anomaly = nullptr;    // Step 4: d̂ˢ estimation
  obs::Histogram* likelihood = nullptr;        // line 20: mode likelihood

  bool any() const {
    return input_estimation != nullptr || predict != nullptr ||
           correct != nullptr || sensor_anomaly != nullptr ||
           likelihood != nullptr;
  }
  // Null-safe: a null registry yields all-null timers.
  static NuiseStageTimers resolve(obs::MetricsRegistry* metrics);
};

using sensors::kMaxSuiteSensors;
using sensors::SensorMask;

struct NuiseResult {
  Vector state;                  // x̂_{k|k}
  Matrix state_cov;              // Pˣ_k
  Vector actuator_anomaly;       // d̂ᵃ_{k−1}
  Matrix actuator_anomaly_cov;   // Pᵃ_{k−1}
  Vector sensor_anomaly;         // d̂ˢ_k stacked over the mode's testing
                                 // sensors (empty when none)
  Matrix sensor_anomaly_cov;     // Pˢ_k for the stacked vector
  Vector innovation;             // ν_k = z₂ − h₂(x̂_{k|k−1}), wrapped angles
  Matrix innovation_cov;         // P_{k|k−1} (line 18)
  double log_likelihood = 0.0;   // log N_k (line 20)
  // False when the reference group cannot distinguish the actuator input
  // (C₂G column-rank deficient); d̂ᵃ is then the minimum-norm estimate.
  bool actuator_identifiable = true;

  // --- Degraded-mode bookkeeping (transport faults, sim/faults.h). ---
  // False when the mode ran a prediction-only step because its reference
  // group was entirely unavailable: the state was propagated through the
  // kinematics, no measurement correction was applied, and d̂ᵃ carries no
  // information (zeros with identity covariance → χ² statistic 0).
  bool correction_applied = true;
  // False when log_likelihood carries no information about this mode's
  // hypothesis (prediction-only step); the engine's weight update must
  // treat such modes neutrally instead of reading the 0.0 placeholder.
  bool likelihood_informative = true;
  // True when any of the mode's sensors was unavailable this iteration. If
  // set, `active_testing` lists the testing sensors actually stacked into
  // sensor_anomaly (suite indices, increasing); when false the stacking is
  // the mode's full testing set and active_testing is left empty.
  bool degraded = false;
  std::vector<std::size_t> active_testing;
};

// The testing sensors actually represented in `r.sensor_anomaly` — the
// mode's full testing set on a healthy step, the filtered set on a degraded
// one. Consumers splitting the stacked d̂ˢ must iterate this list.
inline const std::vector<std::size_t>& active_testing_of(
    const Mode& mode, const NuiseResult& r) {
  return r.degraded ? r.active_testing : mode.testing;
}

class Nuise {
 public:
  // `model` and `suite` must outlive the estimator. `process_cov` is the
  // kinematic noise covariance Q (state_dim x state_dim). A suite of more
  // than kMaxSuiteSensors sensors is refused.
  Nuise(const dyn::DynamicModel& model, const sensors::SensorSuite& suite,
        Mode mode, Matrix process_cov);

  const Mode& mode() const { return mode_; }

  // One estimation iteration. `x_prev`/`p_prev` are x̂_{k−1|k−1} and
  // Pˣ_{k−1}; `u_prev` the planned commands u_{k−1}; `z_full` the full
  // stacked readings z_k (suite layout); `available` the sensors whose
  // reading arrived (the default: all of them). A mask naming a sensor
  // past the suite is refused. With every sensor of the mode available
  // this is the full step. With some reference sensors missing the step
  // runs on the remaining reference subset; with the whole reference group
  // missing it degrades to a prediction-only step (propagate, skip
  // correction, likelihood flagged uninformative). Missing testing sensors
  // are excluded from d̂ˢ and recorded in `active_testing`.
  NuiseResult step(const Vector& x_prev, const Matrix& p_prev,
                   const Vector& u_prev, const Vector& z_full,
                   SensorMask available = {}) const;

  // The step above, writing its result into `out` instead of returning it.
  // Every field of `out` is written, so it may hold an earlier result; the
  // engine fills its per-mode slots through this, and step() wraps it.
  // `timers` receives per-stage latencies; it only observes, so outputs
  // are the same without it.
  void step_into(const Vector& x_prev, const Matrix& p_prev,
                 const Vector& u_prev, const Vector& z_full,
                 SensorMask available, NuiseResult& out,
                 const NuiseStageTimers& timers = {}) const;

 private:
  struct Pattern;
  using StepFn = void (Nuise::*)(const Pattern&, const Vector&, const Matrix&,
                                 const Vector&, const Vector&, NuiseResult&,
                                 const NuiseStageTimers&) const;

  // One sensor-availability pattern of the mode, built at construction: the
  // reference and testing sensors that arrived, their noise covariance
  // blocks and stacked angle masks, and the body that steps them. With
  // these (and the inline-first matrix storage) a steady step performs no
  // heap allocation under any mask — asserted by tests/nuise_alloc_test.cc.
  struct Pattern {
    std::vector<std::size_t> ref;
    std::vector<std::size_t> tst;
    Matrix r2;                         // R₂: noise cov, arrived reference
    Matrix r1;                         // R₁: noise cov, arrived testing
    std::vector<bool> ref_angle_mask;  // stacked over `ref`
    std::vector<bool> tst_angle_mask;  // stacked over `tst`
    StepFn body = nullptr;
  };

  // The full estimation pass over a pattern with reference sensors. N, Q
  // and R are the extents n, q and r (rows of the reference block), each
  // either compile-time (matrix/kernels_impl.h `Extent`) or std::size_t:
  // compile-time for n = 3, q = 2 and r ≤ 4, run-time otherwise; the
  // instantiations live in nuise.cc (docs/PERFORMANCE.md "Compiled NUISE
  // step").
  template <typename N, typename Q, typename R>
  void step_subsets(const Pattern& pattern, const Vector& x_prev,
                    const Matrix& p_prev, const Vector& u_prev,
                    const Vector& z_full, NuiseResult& out,
                    const NuiseStageTimers& timers) const;

  // The prediction-only step of a pattern with no reference sensor.
  void predict_only(const Pattern& pattern, const Vector& x_prev,
                    const Matrix& p_prev, const Vector& u_prev,
                    const Vector& z_full, NuiseResult& out,
                    const NuiseStageTimers& timers) const;

  // Step 4 of both bodies: d̂ˢ and Pˢ over the pattern's testing sensors at
  // out.state and out.state_cov.
  template <typename N>
  void sensor_anomaly_into(const Pattern& pattern, const Vector& z_full, N n,
                           NuiseResult& out) const;

  const dyn::DynamicModel& model_;
  const sensors::SensorSuite& suite_;
  Mode mode_;
  Matrix process_cov_;
  // The model's input-envelope constants and the shrinkage prior.
  Vector sat_;      // input saturation envelope
  Vector trust_;    // input trust radius
  Matrix t_prior_;  // diag(min(trust², 1e12))
  // patterns_[b] serves the mask whose missing suite sensors are the set
  // bits of b; patterns_[0] is the complete step.
  std::vector<Pattern> patterns_;
};

}  // namespace roboads::core

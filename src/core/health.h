// Numerical health supervision for the multi-mode engine.
//
// One diverged NUISE instance must degrade gracefully instead of taking the
// whole engine down. After every mode update the supervisor checks the
// quantities that feed mode selection and the shared state estimate:
//
//   * finite-value checks on x̂, Pˣ, d̂ᵃ and the mode log-likelihood —
//     a non-finite value there is unrecoverable for this iteration and
//     quarantines the mode;
//   * a PSD check on Pˣ — mild negative eigenvalue drift is *repaired*
//     (symmetrize + eigenvalue clamp) and marks the mode degraded;
//   * finite-value checks on the testing-sensor anomaly blocks — a
//     non-finite block is excluded from anomaly estimation and χ²
//     attribution (the mode itself stays usable: d̂ˢ does not feed
//     selection or the shared estimate).
//
// Health follows a per-mode state machine
//
//   healthy → degraded     on a repair or a stripped anomaly block
//   any     → quarantined  on an unrecoverable result
//   quarantined → degraded after `quarantine_steps` consecutive clean steps
//   degraded → healthy     after `recover_after` further clean steps
//
// Because the engine threads the *shared* previous estimate into every mode
// each iteration (Algorithm 1), estimators carry no private state: a
// quarantined mode keeps being stepped from the healthy shared estimate, so
// "reinitialize" is simply reinstating it into the weight normalization
// (at the likelihood floor) once its outputs are clean again.
//
// All checks are pure reads on healthy results — the repair path only
// triggers on violations — so supervision never perturbs a healthy run:
// engine outputs stay bit-identical to the unsupervised code.
#pragma once

#include <cstddef>
#include <string>

#include "core/nuise.h"

namespace roboads::core {

struct HealthConfig {
  bool enabled = true;
  // A negative Pˣ eigenvalue below -psd_tol * max(1, λ_max) is treated as
  // genuine drift and repaired; anything milder is ordinary floating-point
  // noise and left untouched (preserving bit-identical healthy runs).
  double psd_tol = 1e-9;
  // Repaired eigenvalues are clamped up to eigen_floor * max(1, λ_max).
  double eigen_floor = 1e-12;
  // Consecutive clean steps before a quarantined mode is reinstated.
  std::size_t quarantine_steps = 10;
  // Further consecutive clean steps before degraded returns to healthy.
  std::size_t recover_after = 5;
};

enum class ModeHealthState { kHealthy, kDegraded, kQuarantined };

const char* to_string(ModeHealthState state);
// Single-letter code ('H'/'D'/'Q') — the compact per-mode health string in
// the observability trace (obs/trace.h, docs/OBSERVABILITY.md).
char code(ModeHealthState state);

// Per-mode health record driven by the engine each iteration.
struct ModeHealth {
  ModeHealthState state = ModeHealthState::kHealthy;
  std::size_t clean_streak = 0;      // consecutive clean supervised steps
  std::size_t quarantine_count = 0;  // times this mode was quarantined
  std::size_t repairs = 0;           // covariance repairs applied

  bool quarantined() const { return state == ModeHealthState::kQuarantined; }

  // State-machine transitions; `cfg` supplies the recovery thresholds.
  void on_clean(const HealthConfig& cfg);
  void on_repaired(const HealthConfig& cfg);
  void on_fatal(const HealthConfig& cfg);
};

// Outcome of supervising one NuiseResult.
struct SupervisionOutcome {
  bool fatal = false;     // unrecoverable this iteration → quarantine
  bool repaired = false;  // covariance repair or anomaly-block strip applied
  std::string detail;     // human-readable reason (empty when clean)
};

// Symmetrizes `cov` and clamps eigenvalues below the configured floor.
// Returns true when a repair was applied, false when the matrix was already
// acceptably PSD (in which case it is left bit-for-bit untouched). A
// Cholesky factorization certifies the healthy case before any
// eigendecomposition runs; the certificate provably never changes the
// decision (the rounding argument is in health.cc). A non-finite matrix is
// not repairable; callers must check all_finite first.
bool repair_covariance(Matrix& cov, const HealthConfig& cfg);

// Checks (and, where possible, repairs in place) one mode's NUISE result.
// `mode` and `suite` are needed to strip non-finite testing-anomaly blocks
// out of the stacked d̂ˢ.
SupervisionOutcome supervise_result(NuiseResult& result, const Mode& mode,
                                    const sensors::SensorSuite& suite,
                                    const HealthConfig& cfg);

}  // namespace roboads::core

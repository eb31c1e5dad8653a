// Velocity-command kinematic bicycle — the Tamiya TT02 RC car of the
// paper's second evaluation platform (§V-D), "a distinctive dynamic model"
// from the Khepera.
//
// State  x = (X, Y, θ);  input u = (v, δ): commanded ground speed [m/s] and
// steering angle [rad]. The low-level speed loop is abstracted into the
// command (the drivetrain tracks v within one control iteration), which
// keeps every input identifiable in a single step from any pose-capable
// reference sensor — the property the paper's one-reference-per-mode NUISE
// bank relies on (§IV-B: C₂G must have full column rank). A model with an
// explicit speed state would hide a throttle anomaly from every pose-only
// sensor for one iteration.
//
//   θ_mid = θ + Δt·v·tan δ / (2L)                  (L = wheelbase)
//   X'  = X + Δt·v·cos θ_mid,   Y' = Y + Δt·v·sin θ_mid
//   θ'  = θ + Δt·v·tan δ / L
#pragma once

#include "dynamics/model.h"

namespace roboads::dyn {

struct KinematicBicycleParams {
  double wheelbase = 0.257;  // [m]
  double max_speed = 2.0;    // physical speed saturation [m/s]
  double max_steer = 0.60;   // steering hard stop [rad]
  double dt = 0.1;
};

class KinematicBicycle final : public DynamicModel {
 public:
  explicit KinematicBicycle(const KinematicBicycleParams& params = {});

  std::string name() const override { return "kinematic_bicycle"; }
  std::size_t state_dim() const override { return 3; }
  std::size_t input_dim() const override { return 2; }
  double dt() const override { return params_.dt; }
  std::size_t heading_index() const override { return 2; }

  void step_into(const double* x, const double* u,
                 double* out) const override;
  void jacobian_state_into(const double* x, const double* u,
                           double* out) const override;
  void jacobian_input_into(const double* x, const double* u,
                           double* out) const override;
  Vector input_saturation() const override {
    return Vector{params_.max_speed, params_.max_steer};
  }
  // The model is linear in v (up to the second-order θ_mid coupling), but
  // tan δ limits how far a steering compensation may extrapolate.
  Vector input_trust_radius() const override {
    return Vector{params_.max_speed, 0.3};
  }

  const KinematicBicycleParams& params() const { return params_; }

 private:
  KinematicBicycleParams params_;
};

}  // namespace roboads::dyn

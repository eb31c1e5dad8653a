// Differential-drive (unicycle) kinematics — the Khepera III model of the
// paper's primary evaluation platform (§V-A).
//
// State  x = (X, Y, θ):   planar position [m] and heading [rad].
// Input  u = (v_l, v_r):  left/right wheel ground speeds [m/s].
//
// Discretization uses the second-order midpoint rule
//   θ_mid = θ + ω·Δt/2,   X' = X + v·Δt·cos θ_mid,  Y' = Y + v·Δt·sin θ_mid,
//   θ' = θ + ω·Δt,        v = (v_l+v_r)/2,          ω = (v_r−v_l)/b
// which is smooth in ω (no straight-line special case) and has closed-form
// Jacobians. Heading is left unwrapped; consumers wrap angle residuals.
#pragma once

#include "dynamics/model.h"

namespace roboads::dyn {

struct DiffDriveParams {
  double axle_length = 0.089;  // wheel separation b [m] (Khepera III)
  double dt = 0.1;             // control iteration period [s]
  double max_wheel_speed = 0.5;  // physical per-wheel saturation [m/s]
};

class DiffDrive final : public DynamicModel {
 public:
  explicit DiffDrive(const DiffDriveParams& params = {});

  std::string name() const override { return "diff_drive"; }
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
    return Vector(2, params_.max_wheel_speed);
  }

  const DiffDriveParams& params() const { return params_; }

 private:
  DiffDriveParams params_;
};

// Khepera III wheel-speed commands are integer "speed units"; the paper
// reports attacks in these units (±6000 units, §V-B) and notes 900 units ≈
// 0.006 m/s (§V-H). One unit is therefore ≈ 6.67e-6 m/s.
constexpr double kKheperaSpeedUnit = 0.006 / 900.0;

inline double khepera_units_to_mps(double units) {
  return units * kKheperaSpeedUnit;
}

}  // namespace roboads::dyn

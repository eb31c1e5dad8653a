#include "dynamics/bicycle.h"

#include <algorithm>
#include <cmath>

namespace roboads::dyn {

KinematicBicycle::KinematicBicycle(const KinematicBicycleParams& params)
    : params_(params) {
  ROBOADS_CHECK(params_.wheelbase > 0.0, "wheelbase must be positive");
  ROBOADS_CHECK(params_.max_speed > 0.0, "max speed must be positive");
  ROBOADS_CHECK(params_.max_steer > 0.0 && params_.max_steer < M_PI / 2.0,
                "max steer must lie in (0, π/2)");
  ROBOADS_CHECK(params_.dt > 0.0, "dt must be positive");
}

void KinematicBicycle::step_into(const double* x, const double* u,
                                 double* out) const {
  const double dt = params_.dt;
  const double L = params_.wheelbase;
  const double v = u[0];
  const double tan_d = std::tan(u[1]);
  const double theta_mid = x[2] + 0.5 * dt * v * tan_d / L;
  out[0] = x[0] + dt * v * std::cos(theta_mid);
  out[1] = x[1] + dt * v * std::sin(theta_mid);
  out[2] = x[2] + dt * v * tan_d / L;
}

void KinematicBicycle::jacobian_state_into(const double* x, const double* u,
                                           double* out) const {
  const double dt = params_.dt;
  const double v = u[0];
  const double theta_mid =
      x[2] + 0.5 * dt * v * std::tan(u[1]) / params_.wheelbase;
  const double rows[9] = {1.0, 0.0, -dt * v * std::sin(theta_mid),
                          0.0, 1.0, dt * v * std::cos(theta_mid),
                          0.0, 0.0, 1.0};
  std::copy(rows, rows + 9, out);
}

void KinematicBicycle::jacobian_input_into(const double* x, const double* u,
                                           double* out) const {
  const double dt = params_.dt;
  const double L = params_.wheelbase;
  const double v = u[0];
  const double tan_d = std::tan(u[1]);
  const double sec_d = 1.0 / std::cos(u[1]);
  const double sec2 = sec_d * sec_d;
  const double theta_mid = x[2] + 0.5 * dt * v * tan_d / L;
  const double c = std::cos(theta_mid);
  const double s = std::sin(theta_mid);
  // ∂θ_mid/∂v = Δt·tanδ/(2L);  ∂θ_mid/∂δ = Δt·v·sec²δ/(2L).
  const double dmid_dv = 0.5 * dt * tan_d / L;
  const double dmid_dd = 0.5 * dt * v * sec2 / L;
  const double rows[6] = {dt * c - dt * v * s * dmid_dv,
                          -dt * v * s * dmid_dd,
                          dt * s + dt * v * c * dmid_dv,
                          dt * v * c * dmid_dd,
                          dt * tan_d / L,
                          dt * v * sec2 / L};
  std::copy(rows, rows + 6, out);
}

}  // namespace roboads::dyn

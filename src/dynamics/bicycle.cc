#include "dynamics/bicycle.h"

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

Vector KinematicBicycle::step(const Vector& x, const Vector& u) const {
  check_dims(x, u);
  const double dt = params_.dt;
  const double L = params_.wheelbase;
  const double v = u[0];
  const double tan_d = std::tan(u[1]);
  const double theta_mid = x[2] + 0.5 * dt * v * tan_d / L;
  return Vector{x[0] + dt * v * std::cos(theta_mid),
                x[1] + dt * v * std::sin(theta_mid),
                x[2] + dt * v * tan_d / L};
}

Matrix KinematicBicycle::jacobian_state(const Vector& x,
                                        const Vector& u) const {
  check_dims(x, u);
  const double dt = params_.dt;
  const double v = u[0];
  const double theta_mid =
      x[2] + 0.5 * dt * v * std::tan(u[1]) / params_.wheelbase;
  Matrix a = Matrix::identity(3);
  a(0, 2) = -dt * v * std::sin(theta_mid);
  a(1, 2) = dt * v * std::cos(theta_mid);
  return a;
}

Matrix KinematicBicycle::jacobian_input(const Vector& x,
                                        const Vector& u) const {
  check_dims(x, u);
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
  Matrix g(3, 2);
  g(0, 0) = dt * c - dt * v * s * dmid_dv;
  g(0, 1) = -dt * v * s * dmid_dd;
  g(1, 0) = dt * s + dt * v * c * dmid_dv;
  g(1, 1) = dt * v * c * dmid_dd;
  g(2, 0) = dt * tan_d / L;
  g(2, 1) = dt * v * sec2 / L;
  return g;
}

}  // namespace roboads::dyn

#include "dynamics/diff_drive.h"

#include <algorithm>
#include <cmath>

namespace roboads::dyn {

DiffDrive::DiffDrive(const DiffDriveParams& params) : params_(params) {
  ROBOADS_CHECK(params_.axle_length > 0.0, "axle length must be positive");
  ROBOADS_CHECK(params_.dt > 0.0, "dt must be positive");
}

void DiffDrive::step_into(const double* x, const double* u,
                          double* out) const {
  const double b = params_.axle_length;
  const double dt = params_.dt;
  const double v = 0.5 * (u[0] + u[1]);
  const double omega = (u[1] - u[0]) / b;
  const double theta_mid = x[2] + 0.5 * omega * dt;
  out[0] = x[0] + v * dt * std::cos(theta_mid);
  out[1] = x[1] + v * dt * std::sin(theta_mid);
  out[2] = x[2] + omega * dt;
}

void DiffDrive::jacobian_state_into(const double* x, const double* u,
                                    double* out) const {
  const double b = params_.axle_length;
  const double dt = params_.dt;
  const double v = 0.5 * (u[0] + u[1]);
  const double omega = (u[1] - u[0]) / b;
  const double theta_mid = x[2] + 0.5 * omega * dt;
  const double rows[9] = {1.0, 0.0, -v * dt * std::sin(theta_mid),
                          0.0, 1.0, v * dt * std::cos(theta_mid),
                          0.0, 0.0, 1.0};
  std::copy(rows, rows + 9, out);
}

void DiffDrive::jacobian_input_into(const double* x, const double* u,
                                    double* out) const {
  const double b = params_.axle_length;
  const double dt = params_.dt;
  const double v = 0.5 * (u[0] + u[1]);
  const double theta_mid = x[2] + 0.5 * (u[1] - u[0]) / b * dt;
  const double c = std::cos(theta_mid);
  const double s = std::sin(theta_mid);
  // ∂v/∂u = (1/2, 1/2); ∂ω/∂u = (−1/b, 1/b); ∂θ_mid/∂u = Δt/2 · ∂ω/∂u.
  const double arc = v * dt * dt / (2.0 * b);
  const double rows[6] = {0.5 * dt * c + arc * s, 0.5 * dt * c - arc * s,
                          0.5 * dt * s - arc * c, 0.5 * dt * s + arc * c,
                          -dt / b, dt / b};
  std::copy(rows, rows + 6, out);
}

}  // namespace roboads::dyn

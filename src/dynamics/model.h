// Nonlinear discrete-time robot dynamic models (paper §III-A, eq. 1):
//
//   x_k = f(x_{k-1}, u_{k-1}) + ζ_{k-1}
//
// A DynamicModel supplies the kinematic function f and its analytic
// Jacobians A = ∂f/∂x and G = ∂f/∂u, linearized at the current state and
// control exactly as NUISE requires ("linearization is performed at the
// states and controls of each iteration", §IV-B).
#pragma once

#include <limits>
#include <memory>
#include <string>

#include "matrix/matrix.h"

namespace roboads::dyn {

class DynamicModel {
 public:
  virtual ~DynamicModel() = default;

  virtual std::string name() const = 0;
  virtual std::size_t state_dim() const = 0;
  virtual std::size_t input_dim() const = 0;
  // Control iteration period in seconds.
  virtual double dt() const = 0;

  // Kinematic function f(x, u): the noise-free next state.
  Vector step(const Vector& x, const Vector& u) const {
    check_dims(x, u);
    Vector out = Vector::for_overwrite(state_dim());
    step_into(x.data(), u.data(), out.data());
    return out;
  }

  // A_{k-1} = ∂f/∂x evaluated at (x, u).
  Matrix jacobian_state(const Vector& x, const Vector& u) const {
    check_dims(x, u);
    Matrix out = Matrix::for_overwrite(state_dim(), state_dim());
    jacobian_state_into(x.data(), u.data(), out.data());
    return out;
  }
  // G_{k-1} = ∂f/∂u evaluated at (x, u).
  Matrix jacobian_input(const Vector& x, const Vector& u) const {
    check_dims(x, u);
    Matrix out = Matrix::for_overwrite(state_dim(), input_dim());
    jacobian_input_into(x.data(), u.data(), out.data());
    return out;
  }

  // The array forms the three calls above wrap, one body per model: x holds
  // state_dim() doubles, u input_dim(), and `out` receives every element of
  // f(x, u) (state_dim()), A (state_dim() × state_dim(), row-major) or G
  // (state_dim() × input_dim()). No dimension is checked; `out` must not
  // overlap x or u. The compiled NUISE step writes into its own arrays
  // through these (docs/PERFORMANCE.md "Array-native detector step").
  virtual void step_into(const double* x, const double* u,
                         double* out) const = 0;
  virtual void jacobian_state_into(const double* x, const double* u,
                                   double* out) const = 0;
  virtual void jacobian_input_into(const double* x, const double* u,
                                   double* out) const = 0;

  // Index of the heading component within the state, used by consumers that
  // must wrap angle differences. Every model in this library carries exactly
  // one heading angle.
  virtual std::size_t heading_index() const = 0;

  // Physical saturation of each input channel: the actuator cannot execute
  // |u_i| beyond this, so estimators must not extrapolate the model past it
  // — NUISE clamps its compensated input u + d̂ᵃ to this box, which keeps a
  // momentarily-unobservable input direction (e.g. steering at standstill)
  // from feeding unphysical values into the nonlinear kinematics.
  virtual Vector input_saturation() const {
    return Vector(input_dim(), std::numeric_limits<double>::infinity());
  }

  // Trust radius of the per-iteration linearization in each input channel:
  // |Δu_i| beyond which f's nonlinearity (e.g. tan δ) departs from the
  // Jacobian extrapolation enough to corrupt a compensated prediction.
  // NUISE clamps the d̂ᵃ *compensation* (never the reported estimate) to
  // u ± this radius. Defaults to the saturation box.
  virtual Vector input_trust_radius() const { return input_saturation(); }

 protected:
  void check_dims(const Vector& x, const Vector& u) const {
    ROBOADS_CHECK_EQ(x.size(), state_dim(), "state dimension mismatch");
    ROBOADS_CHECK_EQ(u.size(), input_dim(), "input dimension mismatch");
  }
};

}  // namespace roboads::dyn

// Linear-system baseline for the §V-G benchmark.
//
// The paper compares RoboADS against a representative linear approach
// ([20], Yong-Zhu-Frazzoli style) "where a robot is linearized only once at
// the beginning". We reproduce that comparator by freezing the linearization
// point: the baseline sees the *affine* models
//
//   f̃(x, u) = f(x₀, u₀) + A₀(x − x₀) + G₀(u − u₀)
//   h̃_i(x)  = h_i(x₀)   + C_{i,0}(x − x₀)
//
// and runs the exact same multi-mode estimation pipeline on them, so the
// only difference measured is per-iteration relinearization vs one-time
// linearization — the capability §V-G isolates.
#pragma once

#include <algorithm>
#include <memory>

#include "dynamics/model.h"
#include "sensors/sensor_model.h"

namespace roboads::core {

// DynamicModel frozen at a linearization point (x0, u0).
class FrozenLinearModel final : public dyn::DynamicModel {
 public:
  FrozenLinearModel(const dyn::DynamicModel& nonlinear, const Vector& x0,
                    const Vector& u0);

  std::string name() const override { return name_; }
  std::size_t state_dim() const override { return a_.rows(); }
  std::size_t input_dim() const override { return g_.cols(); }
  double dt() const override { return dt_; }
  std::size_t heading_index() const override { return heading_index_; }

  void step_into(const double* x, const double* u,
                 double* out) const override;
  void jacobian_state_into(const double*, const double*,
                           double* out) const override {
    std::copy(a_.data(), a_.data() + a_.rows() * a_.cols(), out);
  }
  void jacobian_input_into(const double*, const double*,
                           double* out) const override {
    std::copy(g_.data(), g_.data() + g_.rows() * g_.cols(), out);
  }

 private:
  std::string name_;
  double dt_;
  std::size_t heading_index_;
  Vector x0_, u0_, f0_;
  Matrix a_, g_;
};

// SensorModel frozen at a state linearization point x0.
class FrozenLinearSensor final : public sensors::SensorModel {
 public:
  FrozenLinearSensor(sensors::SensorPtr nonlinear, const Vector& x0);

  std::string name() const override { return inner_->name(); }
  std::size_t dim() const override { return inner_->dim(); }
  std::size_t state_dim() const override { return inner_->state_dim(); }

  void measure_into(const double* x, double* out) const override;
  void jacobian_into(const double*, double* out) const override {
    std::copy(c_.data(), c_.data() + c_.rows() * c_.cols(), out);
  }
  const Matrix& noise_covariance() const override {
    return inner_->noise_covariance();
  }
  std::vector<bool> angle_mask() const override {
    return inner_->angle_mask();
  }

 private:
  sensors::SensorPtr inner_;
  Vector x0_, h0_;
  Matrix c_;
};

// Builds the frozen suite corresponding to `suite` at state x0.
sensors::SensorSuite freeze_suite(const sensors::SensorSuite& suite,
                                  const Vector& x0);

}  // namespace roboads::core

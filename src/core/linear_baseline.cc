#include "core/linear_baseline.h"

#include "matrix/kernels.h"

namespace roboads::core {
namespace {

// out = a·(x − x0): the difference element by element, then the
// matrix-vector product of `a * (x - x0)`.
void times_difference(const Matrix& a, const double* x, const Vector& x0,
                      Vector& out) {
  Vector diff = Vector::for_overwrite(a.cols());
  for (std::size_t j = 0; j < a.cols(); ++j) {
    diff.data()[j] = x[j] - x0.data()[j];
  }
  out = Vector::for_overwrite(a.rows());
  kernels::matvec(a.data(), diff.data(), out.data(), a.rows(), a.cols());
}

}  // namespace

FrozenLinearModel::FrozenLinearModel(const dyn::DynamicModel& nonlinear,
                                     const Vector& x0, const Vector& u0)
    : name_("frozen_" + nonlinear.name()),
      dt_(nonlinear.dt()),
      heading_index_(nonlinear.heading_index()),
      x0_(x0),
      u0_(u0),
      f0_(nonlinear.step(x0, u0)),
      a_(nonlinear.jacobian_state(x0, u0)),
      g_(nonlinear.jacobian_input(x0, u0)) {}

void FrozenLinearModel::step_into(const double* x, const double* u,
                                  double* out) const {
  // f0 + A(x − x0) + G(u − u0), summed left to right.
  Vector ax, gu;
  times_difference(a_, x, x0_, ax);
  times_difference(g_, u, u0_, gu);
  for (std::size_t i = 0; i < f0_.size(); ++i) {
    out[i] = f0_.data()[i] + ax.data()[i] + gu.data()[i];
  }
}

FrozenLinearSensor::FrozenLinearSensor(sensors::SensorPtr nonlinear,
                                       const Vector& x0)
    : inner_(std::move(nonlinear)),
      x0_(x0),
      h0_(inner_->measure(x0)),
      c_(inner_->jacobian(x0)) {}

void FrozenLinearSensor::measure_into(const double* x, double* out) const {
  // h0 + C(x − x0).
  Vector cx;
  times_difference(c_, x, x0_, cx);
  for (std::size_t i = 0; i < h0_.size(); ++i) {
    out[i] = h0_.data()[i] + cx.data()[i];
  }
}

sensors::SensorSuite freeze_suite(const sensors::SensorSuite& suite,
                                  const Vector& x0) {
  std::vector<sensors::SensorPtr> frozen;
  frozen.reserve(suite.count());
  for (const sensors::SensorPtr& s : suite.sensors()) {
    frozen.push_back(std::make_shared<FrozenLinearSensor>(s, x0));
  }
  return sensors::SensorSuite(std::move(frozen));
}

}  // namespace roboads::core

// Bit-identity oracle for the array forms of the dynamic and measurement
// models (docs/PERFORMANCE.md "Array-native detector step").
//
// The references below are the Vector/Matrix bodies the six model and
// sensor classes and SensorSuite's stacked measure, jacobian, slice and
// residual had before the array forms, line for line. They are built from
// the same parameters as the library objects under test and share no code
// with them but the Matrix API, so an array body that reorders an
// operation shows up here as a mismatch: a FrozenLinearModel that sums
// f0 + (A(x − x0) + G(u − u0)) instead of (f0 + A(x − x0)) + G(u − u0)
// fails on the seeded inputs.
//
// Every output double is compared with memcmp, so −0.0 against +0.0 fails;
// any two NaNs compare equal (as in tests/kernel_oracle_test.cc).
//
// Inputs: seeded random states and inputs; ±0, subnormals, the smallest
// normal, ±Inf and NaN in one component at a time and in all of them;
// headings at ±π and their neighbours; components near ±1e300. Models: the
// Khepera and Tamiya kinematics and each frozen at a seeded point. Sensors:
// every subset of both platforms' suites and of the same suites frozen at a
// seeded state, plus the 4-state IMU.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/linear_baseline.h"
#include "dynamics/bicycle.h"
#include "dynamics/diff_drive.h"
#include "eval/khepera.h"
#include "eval/tamiya.h"
#include "geometry/geometry.h"
#include "random/rng.h"
#include "sensors/standard_sensors.h"

namespace roboads {
namespace {

// --------------------------------------------------- reference models --

namespace ref {

class Model {
 public:
  virtual ~Model() = default;
  virtual std::size_t state_dim() const = 0;
  virtual std::size_t input_dim() const = 0;
  virtual Vector step(const Vector& x, const Vector& u) const = 0;
  virtual Matrix jacobian_state(const Vector& x, const Vector& u) const = 0;
  virtual Matrix jacobian_input(const Vector& x, const Vector& u) const = 0;

 protected:
  void check_dims(const Vector& x, const Vector& u) const {
    ROBOADS_CHECK_EQ(x.size(), state_dim(), "state dimension mismatch");
    ROBOADS_CHECK_EQ(u.size(), input_dim(), "input dimension mismatch");
  }
};

class DiffDrive final : public Model {
 public:
  explicit DiffDrive(const dyn::DiffDriveParams& params) : params_(params) {}
  std::size_t state_dim() const override { return 3; }
  std::size_t input_dim() const override { return 2; }

  Vector step(const Vector& x, const Vector& u) const override {
    check_dims(x, u);
    const double b = params_.axle_length;
    const double dt = params_.dt;
    const double v = 0.5 * (u[0] + u[1]);
    const double omega = (u[1] - u[0]) / b;
    const double theta_mid = x[2] + 0.5 * omega * dt;
    return Vector{x[0] + v * dt * std::cos(theta_mid),
                  x[1] + v * dt * std::sin(theta_mid),
                  x[2] + omega * dt};
  }

  Matrix jacobian_state(const Vector& x, const Vector& u) const override {
    check_dims(x, u);
    const double b = params_.axle_length;
    const double dt = params_.dt;
    const double v = 0.5 * (u[0] + u[1]);
    const double omega = (u[1] - u[0]) / b;
    const double theta_mid = x[2] + 0.5 * omega * dt;
    return Matrix{{1.0, 0.0, -v * dt * std::sin(theta_mid)},
                  {0.0, 1.0, v * dt * std::cos(theta_mid)},
                  {0.0, 0.0, 1.0}};
  }

  Matrix jacobian_input(const Vector& x, const Vector& u) const override {
    check_dims(x, u);
    const double b = params_.axle_length;
    const double dt = params_.dt;
    const double v = 0.5 * (u[0] + u[1]);
    const double theta_mid = x[2] + 0.5 * (u[1] - u[0]) / b * dt;
    const double c = std::cos(theta_mid);
    const double s = std::sin(theta_mid);
    const double arc = v * dt * dt / (2.0 * b);
    return Matrix{{0.5 * dt * c + arc * s, 0.5 * dt * c - arc * s},
                  {0.5 * dt * s - arc * c, 0.5 * dt * s + arc * c},
                  {-dt / b, dt / b}};
  }

 private:
  dyn::DiffDriveParams params_;
};

class KinematicBicycle final : public Model {
 public:
  explicit KinematicBicycle(const dyn::KinematicBicycleParams& params)
      : params_(params) {}
  std::size_t state_dim() const override { return 3; }
  std::size_t input_dim() const override { return 2; }

  Vector step(const Vector& x, const Vector& u) const override {
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

  Matrix jacobian_state(const Vector& x, const Vector& u) const override {
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

  Matrix jacobian_input(const Vector& x, const Vector& u) const override {
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

 private:
  dyn::KinematicBicycleParams params_;
};

class FrozenLinearModel final : public Model {
 public:
  FrozenLinearModel(const Model& nonlinear, const Vector& x0,
                    const Vector& u0)
      : x0_(x0),
        u0_(u0),
        f0_(nonlinear.step(x0, u0)),
        a_(nonlinear.jacobian_state(x0, u0)),
        g_(nonlinear.jacobian_input(x0, u0)) {}
  std::size_t state_dim() const override { return a_.rows(); }
  std::size_t input_dim() const override { return g_.cols(); }

  Vector step(const Vector& x, const Vector& u) const override {
    ROBOADS_CHECK_EQ(x.size(), state_dim(), "state dimension mismatch");
    ROBOADS_CHECK_EQ(u.size(), input_dim(), "input dimension mismatch");
    return f0_ + a_ * (x - x0_) + g_ * (u - u0_);
  }
  Matrix jacobian_state(const Vector&, const Vector&) const override {
    return a_;
  }
  Matrix jacobian_input(const Vector&, const Vector&) const override {
    return g_;
  }

 private:
  Vector x0_, u0_, f0_;
  Matrix a_, g_;
};

// -------------------------------------------------- reference sensors --

class Sensor {
 public:
  virtual ~Sensor() = default;
  virtual std::size_t dim() const = 0;
  virtual std::size_t state_dim() const = 0;
  virtual Vector measure(const Vector& x) const = 0;
  virtual Matrix jacobian(const Vector& x) const = 0;
};
using SensorPtr = std::shared_ptr<const Sensor>;

class StateProjection final : public Sensor {
 public:
  StateProjection(std::size_t state_dim, std::vector<std::size_t> indices)
      : state_dim_(state_dim), indices_(std::move(indices)) {}
  std::size_t dim() const override { return indices_.size(); }
  std::size_t state_dim() const override { return state_dim_; }

  Vector measure(const Vector& x) const override {
    ROBOADS_CHECK_EQ(x.size(), state_dim_, "state dimension mismatch");
    Vector z(indices_.size());
    for (std::size_t i = 0; i < indices_.size(); ++i) z[i] = x[indices_[i]];
    return z;
  }

  Matrix jacobian(const Vector& x) const override {
    ROBOADS_CHECK_EQ(x.size(), state_dim_, "state dimension mismatch");
    Matrix c(indices_.size(), state_dim_);
    for (std::size_t i = 0; i < indices_.size(); ++i) c(i, indices_[i]) = 1.0;
    return c;
  }

 private:
  std::size_t state_dim_;
  std::vector<std::size_t> indices_;
};

class LidarNav final : public Sensor {
 public:
  LidarNav(std::size_t state_dim, double arena_width)
      : state_dim_(state_dim), arena_width_(arena_width) {}
  std::size_t dim() const override { return 4; }
  std::size_t state_dim() const override { return state_dim_; }

  Vector measure(const Vector& x) const override {
    ROBOADS_CHECK_EQ(x.size(), state_dim_, "state dimension mismatch");
    return Vector{x[0], x[1], arena_width_ - x[0], x[2]};
  }

  Matrix jacobian(const Vector& x) const override {
    ROBOADS_CHECK_EQ(x.size(), state_dim_, "state dimension mismatch");
    Matrix c(4, state_dim_);
    c(0, 0) = 1.0;
    c(1, 1) = 1.0;
    c(2, 0) = -1.0;
    c(3, 2) = 1.0;
    return c;
  }

 private:
  std::size_t state_dim_;
  double arena_width_;
};

class FrozenLinearSensor final : public Sensor {
 public:
  FrozenLinearSensor(SensorPtr nonlinear, const Vector& x0)
      : inner_(std::move(nonlinear)),
        x0_(x0),
        h0_(inner_->measure(x0)),
        c_(inner_->jacobian(x0)) {}
  std::size_t dim() const override { return inner_->dim(); }
  std::size_t state_dim() const override { return inner_->state_dim(); }

  Vector measure(const Vector& x) const override {
    ROBOADS_CHECK_EQ(x.size(), state_dim(), "state dimension mismatch");
    return h0_ + c_ * (x - x0_);
  }
  Matrix jacobian(const Vector&) const override { return c_; }

 private:
  SensorPtr inner_;
  Vector x0_, h0_;
  Matrix c_;
};

// SensorSuite's stacked bodies; the subset is checked by the caller.
class Suite {
 public:
  explicit Suite(std::vector<SensorPtr> sensors)
      : sensors_(std::move(sensors)) {
    for (const SensorPtr& s : sensors_) {
      offsets_.push_back(total_dim_);
      total_dim_ += s->dim();
    }
  }

  const std::vector<SensorPtr>& sensors() const { return sensors_; }

  std::size_t subset_dim(const std::vector<std::size_t>& subset) const {
    std::size_t dim = 0;
    for (std::size_t i : subset) dim += sensors_[i]->dim();
    return dim;
  }

  Vector measure(const std::vector<std::size_t>& subset,
                 const Vector& x) const {
    Vector out = Vector::for_overwrite(subset_dim(subset));
    std::size_t at = 0;
    for (std::size_t i : subset) {
      const Vector h = sensors_[i]->measure(x);
      ROBOADS_CHECK_EQ(h.size(), sensors_[i]->dim(),
                       "sensor measurement dimension mismatch");
      std::copy(h.data(), h.data() + h.size(), out.data() + at);
      at += h.size();
    }
    return out;
  }

  Matrix jacobian(const std::vector<std::size_t>& subset,
                  const Vector& x) const {
    const std::size_t rows = subset_dim(subset);
    if (rows == 0) return Matrix();
    const std::size_t cols = sensors_[subset.front()]->state_dim();
    Matrix out = Matrix::for_overwrite(rows, cols);
    std::size_t at = 0;
    for (std::size_t i : subset) {
      const Matrix c = sensors_[i]->jacobian(x);
      ROBOADS_CHECK(c.rows() == sensors_[i]->dim() && c.cols() == cols,
                    "sensor Jacobian shape mismatch");
      std::copy(c.data(), c.data() + c.rows() * cols, out.data() + at * cols);
      at += c.rows();
    }
    return out;
  }

  Vector slice(const std::vector<std::size_t>& subset,
               const Vector& z_full) const {
    Vector out = Vector::for_overwrite(subset_dim(subset));
    ROBOADS_CHECK_EQ(z_full.size(), total_dim_, "full reading size mismatch");
    std::size_t at = 0;
    for (std::size_t i : subset) {
      const double* block = z_full.data() + offsets_[i];
      std::copy(block, block + sensors_[i]->dim(), out.data() + at);
      at += sensors_[i]->dim();
    }
    return out;
  }

  Vector residual(const std::vector<std::size_t>& subset,
                  const Vector& z_subset, const Vector& x,
                  const std::vector<bool>& mask) const {
    Vector r = z_subset - measure(subset, x);
    ROBOADS_CHECK_EQ(r.size(), mask.size(), "residual size mismatch");
    for (std::size_t i = 0; i < r.size(); ++i) {
      if (mask[i]) r[i] = geom::wrap_angle(r[i]);
    }
    return r;
  }

 private:
  std::vector<SensorPtr> sensors_;
  std::vector<std::size_t> offsets_;
  std::size_t total_dim_ = 0;
};

}  // namespace ref

// -------------------------------------------------------- comparison --

bool same_bits(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::string describe(const Vector& v) {
  std::ostringstream os;
  os.precision(17);
  os << "(";
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? ", " : "") << v[i];
  return os.str() + ")";
}

// Empty when the n doubles agree bit for bit, else the first mismatch.
std::string diff(const char* what, const double* got, const double* want,
                 std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (!same_bits(got[i], want[i])) {
      std::ostringstream os;
      os.precision(17);
      os << what << "[" << i << "]: " << got[i] << " vs reference "
         << want[i];
      return os.str();
    }
  }
  return "";
}

// The array form's output against the reference Vector or Matrix.
std::string diff_array(const char* what, const std::vector<double>& got,
                       const Vector& want) {
  if (got.size() != want.size()) return std::string(what) + ": size";
  return diff(what, got.data(), want.data(), want.size());
}

std::string diff_array(const char* what, const std::vector<double>& got,
                       const Matrix& want) {
  if (got.size() != want.rows() * want.cols()) {
    return std::string(what) + ": shape";
  }
  return diff(what, got.data(), want.data(), got.size());
}

// --------------------------------------------------------------- inputs --

const double kInf = std::numeric_limits<double>::infinity();
const double kNaN = std::numeric_limits<double>::quiet_NaN();
const double kSpecials[] = {0.0,
                            -0.0,
                            std::numeric_limits<double>::denorm_min(),
                            -std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::min() / 4,
                            std::numeric_limits<double>::min(),
                            kInf,
                            -kInf,
                            kNaN,
                            -kNaN,
                            M_PI,
                            -M_PI,
                            std::nextafter(M_PI, 0.0),
                            std::nextafter(-M_PI, 0.0),
                            std::nextafter(M_PI, 4.0),
                            std::nextafter(-M_PI, -4.0),
                            1e300,
                            -1e300,
                            std::numeric_limits<double>::max()};

// Seeded vectors of size n: typical magnitudes, then a wide log-uniform
// spread of magnitudes and signs.
std::vector<Vector> random_vectors(Rng& rng, std::size_t n, std::size_t count,
                                   double scale) {
  std::vector<Vector> out;
  for (std::size_t k = 0; k < count; ++k) {
    Vector v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = k < count / 2
                 ? rng.uniform(-scale, scale)
                 : (rng.uniform() < 0.5 ? -1.0 : 1.0) *
                       std::pow(10.0, rng.uniform(-300.0, 300.0));
    }
    out.push_back(v);
  }
  return out;
}

// Copies of `base` with one component, then every component, set to each
// special value.
std::vector<Vector> special_vectors(const Vector& base) {
  std::vector<Vector> out;
  for (double s : kSpecials) {
    for (std::size_t i = 0; i < base.size(); ++i) {
      Vector v = base;
      v[i] = s;
      out.push_back(v);
    }
    out.push_back(Vector(base.size(), s));
  }
  return out;
}

// States and inputs for one model: seeded random pairs, then the specials
// in x with a typical u and in u with a typical x.
struct Inputs {
  std::vector<Vector> x, u;
};

Inputs model_inputs(std::uint64_t seed, std::size_t n, std::size_t q,
                    double u_scale) {
  Rng rng(seed);
  Inputs in;
  in.x = random_vectors(rng, n, 400, 4.0);
  in.u = random_vectors(rng, q, 400, u_scale);
  const Vector x0 = in.x[0];
  const Vector u0 = in.u[0];
  for (const Vector& x : special_vectors(x0)) {
    in.x.push_back(x);
    in.u.push_back(u0);
  }
  for (const Vector& u : special_vectors(u0)) {
    in.x.push_back(x0);
    in.u.push_back(u);
  }
  return in;
}

// ------------------------------------------------------- model checks --

// The library model's array forms and Vector wrappers against the
// reference on every input; the first mismatch, or empty.
std::string compare_model(const dyn::DynamicModel& lib, const ref::Model& want,
                          const Inputs& in) {
  const std::size_t n = lib.state_dim();
  const std::size_t q = lib.input_dim();
  for (std::size_t k = 0; k < in.x.size(); ++k) {
    const Vector& x = in.x[k];
    const Vector& u = in.u[k];
    const std::string at = " at x = " + describe(x) + ", u = " + describe(u);
    std::vector<double> f(n), a(n * n), g(n * q);
    lib.step_into(x.data(), u.data(), f.data());
    lib.jacobian_state_into(x.data(), u.data(), a.data());
    lib.jacobian_input_into(x.data(), u.data(), g.data());
    const Vector f_want = want.step(x, u);
    const Matrix a_want = want.jacobian_state(x, u);
    const Matrix g_want = want.jacobian_input(x, u);
    for (const std::string& d :
         {diff_array("step_into", f, f_want),
          diff_array("jacobian_state_into", a, a_want),
          diff_array("jacobian_input_into", g, g_want)}) {
      if (!d.empty()) return d + at;
    }
    const Vector f_wrapped = lib.step(x, u);
    const Matrix a_wrapped = lib.jacobian_state(x, u);
    const Matrix g_wrapped = lib.jacobian_input(x, u);
    for (const std::string& d :
         {diff("step", f_wrapped.data(), f_want.data(), n),
          diff("jacobian_state", a_wrapped.data(), a_want.data(), n * n),
          diff("jacobian_input", g_wrapped.data(), g_want.data(), n * q)}) {
      if (!d.empty()) return d + at;
    }
  }
  return "";
}

TEST(ModelOracle, KheperaDiffDrive) {
  const eval::KheperaPlatform platform;
  const auto& model = dynamic_cast<const dyn::DiffDrive&>(platform.model());
  const ref::DiffDrive want(model.params());
  const std::string d = compare_model(model, want, model_inputs(11, 3, 2, 0.6));
  EXPECT_TRUE(d.empty()) << d;
}

TEST(ModelOracle, TamiyaKinematicBicycle) {
  const eval::TamiyaPlatform platform;
  const auto& model =
      dynamic_cast<const dyn::KinematicBicycle&>(platform.model());
  const ref::KinematicBicycle want(model.params());
  const std::string d = compare_model(model, want, model_inputs(12, 3, 2, 2.5));
  EXPECT_TRUE(d.empty()) << d;
}

// Each platform's model frozen at seeded points (§V-G), the frozen step
// summed left to right.
TEST(ModelOracle, FrozenLinearModels) {
  const dyn::DiffDrive diff_drive({.axle_length = 0.089, .dt = 0.1});
  const ref::DiffDrive diff_drive_ref(diff_drive.params());
  const dyn::KinematicBicycle bicycle;
  const ref::KinematicBicycle bicycle_ref(bicycle.params());
  Rng rng(13);
  std::size_t frozen = 0;
  for (int point = 0; point < 8; ++point) {
    const Vector x0{rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.5),
                    rng.uniform(-M_PI, M_PI)};
    const Vector u0{rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)};
    const std::pair<const dyn::DynamicModel*, const ref::Model*> pairs[] = {
        {&diff_drive, &diff_drive_ref}, {&bicycle, &bicycle_ref}};
    for (const auto& [lib_inner, ref_inner] : pairs) {
      const core::FrozenLinearModel lib(*lib_inner, x0, u0);
      const ref::FrozenLinearModel want(*ref_inner, x0, u0);
      const std::string d =
          compare_model(lib, want, model_inputs(100 + point, 3, 2, 0.6));
      ASSERT_TRUE(d.empty()) << "frozen at " << describe(x0) << ": " << d;
      ++frozen;
    }
  }
  EXPECT_EQ(frozen, 16u);
}

// ------------------------------------------------------ sensor checks --

// The reference of one library sensor (a state projection or the LiDAR
// navigation model; frozen sensors are built by the caller).
ref::SensorPtr reference_of(const sensors::SensorModel& s) {
  if (const auto* p =
          dynamic_cast<const sensors::StateProjectionSensor*>(&s)) {
    return std::make_shared<ref::StateProjection>(p->state_dim(),
                                                  p->indices());
  }
  const auto& lidar = dynamic_cast<const sensors::LidarNavSensor&>(s);
  return std::make_shared<ref::LidarNav>(lidar.state_dim(),
                                         lidar.arena_width());
}

// Every subset of the suite, empty included, as strictly increasing
// index lists.
std::vector<std::vector<std::size_t>> every_subset(std::size_t count) {
  std::vector<std::vector<std::size_t>> out;
  for (std::size_t bits = 0; bits < (std::size_t{1} << count); ++bits) {
    std::vector<std::size_t> subset;
    for (std::size_t i = 0; i < count; ++i) {
      if (bits & (std::size_t{1} << i)) subset.push_back(i);
    }
    out.push_back(subset);
  }
  return out;
}

// One suite against its reference: each sensor's array forms and wrappers,
// and the stacked slice/measure/jacobian/residual of every subset, on every
// state of `states` with readings from `readings`.
std::string compare_suite(const sensors::SensorSuite& lib,
                          const ref::Suite& want,
                          const std::vector<Vector>& states,
                          const std::vector<Vector>& readings) {
  const std::size_t n = lib.sensor(0).state_dim();
  for (std::size_t s = 0; s < lib.count(); ++s) {
    const sensors::SensorModel& sensor = lib.sensor(s);
    const ref::Sensor& sensor_ref = *want.sensors()[s];
    const std::size_t dim = sensor.dim();
    for (const Vector& x : states) {
      const std::string at = " of sensor " + sensor.name() + " at x = " +
                             describe(x);
      std::vector<double> h(dim), c(dim * n);
      sensor.measure_into(x.data(), h.data());
      sensor.jacobian_into(x.data(), c.data());
      const Vector h_want = sensor_ref.measure(x);
      const Matrix c_want = sensor_ref.jacobian(x);
      const Vector h_wrapped = sensor.measure(x);
      const Matrix c_wrapped = sensor.jacobian(x);
      for (const std::string& d :
           {diff_array("measure_into", h, h_want),
            diff_array("jacobian_into", c, c_want),
            diff("measure", h_wrapped.data(), h_want.data(), dim),
            diff("jacobian", c_wrapped.data(), c_want.data(), dim * n)}) {
        if (!d.empty()) return d + at;
      }
    }
  }

  for (const std::vector<std::size_t>& subset : every_subset(lib.count())) {
    const std::size_t d_sub = want.subset_dim(subset);
    const std::vector<bool> mask = lib.angle_mask(subset);
    std::string name = "{";
    for (std::size_t i : subset) name += " " + lib.sensor(i).name();
    name += " }";
    for (std::size_t k = 0; k < states.size(); ++k) {
      const Vector& x = states[k];
      const Vector& z_full = readings[k % readings.size()];
      const std::string at = " of subset " + name + " at x = " +
                             describe(x) + ", z = " + describe(z_full);
      const Vector z_want = want.slice(subset, z_full);
      const Vector h_want = want.measure(subset, x);
      const Matrix c_want = want.jacobian(subset, x);
      const Vector r_want = want.residual(subset, z_want, x, mask);
      std::vector<double> z(d_sub), h(d_sub), c(d_sub * n), r(d_sub);
      lib.slice_into(subset, z_full.data(), z.data());
      lib.measure_into(subset, x.data(), h.data());
      lib.jacobian_into(subset, x.data(), c.data());
      lib.residual_into(subset, z_want.data(), x.data(), mask, r.data());
      const Vector z_wrapped = lib.slice(subset, z_full);
      const Vector h_wrapped = lib.measure(subset, x);
      const Matrix c_wrapped = lib.jacobian(subset, x);
      const Vector r_wrapped = lib.residual(subset, z_want, x, mask);
      if (c_wrapped.rows() != c_want.rows() ||
          c_wrapped.cols() != c_want.cols()) {
        return "jacobian: shape" + at;
      }
      for (const std::string& d :
           {diff_array("slice_into", z, z_want),
            diff_array("measure_into", h, h_want),
            diff("jacobian_into", c.data(), c_want.data(),
                 c_want.rows() * c_want.cols()),
            diff_array("residual_into", r, r_want),
            diff("slice", z_wrapped.data(), z_want.data(), d_sub),
            diff("measure", h_wrapped.data(), h_want.data(), d_sub),
            diff("jacobian", c_wrapped.data(), c_want.data(),
                 c_want.rows() * c_want.cols()),
            diff("residual", r_wrapped.data(), r_want.data(), d_sub)}) {
        if (!d.empty()) return d + at;
      }
    }
  }
  return "";
}

// States for the sensors: seeded random ones and the specials; readings:
// the suite's clean readings of seeded states, shifted, and the specials.
struct SensorInputs {
  std::vector<Vector> states, readings;
};

SensorInputs sensor_inputs(std::uint64_t seed, const ref::Suite& suite,
                           std::size_t n, std::size_t total_dim) {
  Rng rng(seed);
  SensorInputs in;
  in.states = random_vectors(rng, n, 60, 4.0);
  for (const Vector& x : special_vectors(in.states[0])) {
    in.states.push_back(x);
  }
  std::vector<std::size_t> all(suite.sensors().size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  for (const Vector& x : random_vectors(rng, n, 20, 4.0)) {
    Vector z = suite.measure(all, x);
    for (std::size_t i = 0; i < z.size(); ++i) z[i] += rng.uniform(-4.0, 4.0);
    in.readings.push_back(z);
  }
  for (const Vector& z : special_vectors(in.readings[0])) {
    in.readings.push_back(z);
  }
  EXPECT_EQ(in.readings[0].size(), total_dim);
  return in;
}

void expect_suite_matches(const sensors::SensorSuite& lib,
                          std::uint64_t seed) {
  std::vector<ref::SensorPtr> refs;
  for (const sensors::SensorPtr& s : lib.sensors()) {
    refs.push_back(reference_of(*s));
  }
  const ref::Suite want(refs);
  const std::size_t n = lib.sensor(0).state_dim();
  const SensorInputs in = sensor_inputs(seed, want, n, lib.total_dim());
  const std::string d = compare_suite(lib, want, in.states, in.readings);
  EXPECT_TRUE(d.empty()) << d;

  // The same suite frozen at seeded states (§V-G).
  Rng rng(seed + 1);
  for (const Vector& x0 : random_vectors(rng, n, 4, 2.0)) {
    std::vector<ref::SensorPtr> frozen_refs;
    for (const ref::SensorPtr& s : refs) {
      frozen_refs.push_back(std::make_shared<ref::FrozenLinearSensor>(s, x0));
    }
    const ref::Suite frozen_want(frozen_refs);
    const sensors::SensorSuite frozen = core::freeze_suite(lib, x0);
    const std::string fd =
        compare_suite(frozen, frozen_want, in.states, in.readings);
    ASSERT_TRUE(fd.empty()) << "frozen at " << describe(x0) << ": " << fd;
  }
}

TEST(SensorOracle, KheperaSuiteEverySubset) {
  const eval::KheperaPlatform platform;
  expect_suite_matches(platform.suite(), 21);
}

TEST(SensorOracle, TamiyaSuiteEverySubset) {
  const eval::TamiyaPlatform platform;
  expect_suite_matches(platform.suite(), 22);
}

// The 4-state inertial navigation solution (z = x) and a projection that
// measures the heading alone.
TEST(SensorOracle, FourStateImuAndPartialProjection) {
  const sensors::SensorSuite imu({sensors::make_imu_ins(0.01, 0.02, 0.05)});
  expect_suite_matches(imu, 23);
  const sensors::SensorSuite partial(
      {std::make_shared<sensors::StateProjectionSensor>(
           "heading", 3, std::vector<std::size_t>{2}, std::vector<bool>{true},
           Matrix::identity(1)),
       sensors::make_lidar_nav(3, 2.0, 0.03, 0.03)});
  expect_suite_matches(partial, 24);
}

}  // namespace
}  // namespace roboads

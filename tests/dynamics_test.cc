#include <gtest/gtest.h>

#include <cmath>

#include "dynamics/bicycle.h"
#include "dynamics/diff_drive.h"
#include "dynamics/numdiff.h"

namespace roboads::dyn {
namespace {

void expect_matrix_near(const Matrix& a, const Matrix& b, double tol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      EXPECT_NEAR(a(i, j), b(i, j), tol) << "(" << i << "," << j << ")";
}

TEST(DiffDrive, Dimensions) {
  DiffDrive model;
  EXPECT_EQ(model.state_dim(), 3u);
  EXPECT_EQ(model.input_dim(), 2u);
  EXPECT_EQ(model.heading_index(), 2u);
  EXPECT_EQ(model.name(), "diff_drive");
  EXPECT_GT(model.dt(), 0.0);
}

TEST(DiffDrive, RejectsBadParams) {
  DiffDriveParams p;
  p.axle_length = 0.0;
  EXPECT_THROW(DiffDrive{p}, CheckError);
  p.axle_length = 0.1;
  p.dt = -1.0;
  EXPECT_THROW(DiffDrive{p}, CheckError);
}

TEST(DiffDrive, StraightLineMotion) {
  DiffDrive model({.axle_length = 0.1, .dt = 0.5});
  // Equal wheel speeds: pure translation along the heading.
  const Vector x = model.step(Vector{0.0, 0.0, 0.0}, Vector{0.2, 0.2});
  EXPECT_NEAR(x[0], 0.1, 1e-12);
  EXPECT_NEAR(x[1], 0.0, 1e-12);
  EXPECT_NEAR(x[2], 0.0, 1e-12);
}

TEST(DiffDrive, SpinInPlace) {
  DiffDrive model({.axle_length = 0.1, .dt = 0.5});
  // Opposite speeds: rotation without translation.
  const Vector x = model.step(Vector{1.0, 2.0, 0.3}, Vector{-0.1, 0.1});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  EXPECT_NEAR(x[2], 0.3 + 0.2 / 0.1 * 0.5, 1e-12);
}

TEST(DiffDrive, HeadingRotatesMotion) {
  DiffDrive model({.axle_length = 0.1, .dt = 1.0});
  const Vector x = model.step(Vector{0.0, 0.0, M_PI / 2.0}, Vector{0.3, 0.3});
  EXPECT_NEAR(x[0], 0.0, 1e-12);
  EXPECT_NEAR(x[1], 0.3, 1e-12);
}

TEST(DiffDrive, ArcTurnCurvesTrajectory) {
  DiffDrive model({.axle_length = 0.089, .dt = 0.1});
  Vector x{0.0, 0.0, 0.0};
  const Vector u{0.05, 0.07};  // gentle left turn
  for (int i = 0; i < 50; ++i) x = model.step(x, u);
  EXPECT_GT(x[1], 0.01);                // curved left
  EXPECT_NEAR(x[2], (0.02 / 0.089) * 5.0, 1e-9);  // ω·t
}

TEST(DiffDrive, DimensionChecks) {
  DiffDrive model;
  EXPECT_THROW(model.step(Vector(2), Vector(2)), CheckError);
  EXPECT_THROW(model.step(Vector(3), Vector(3)), CheckError);
  EXPECT_THROW(model.jacobian_state(Vector(3), Vector(1)), CheckError);
  EXPECT_THROW(model.jacobian_input(Vector(4), Vector(2)), CheckError);
}

TEST(KheperaUnits, SpeedConversionMatchesPaper) {
  // §V-H: 900 units = 0.006 m/s.
  EXPECT_NEAR(khepera_units_to_mps(900.0), 0.006, 1e-12);
  EXPECT_NEAR(khepera_units_to_mps(6000.0), 0.04, 1e-12);
}

// Analytic Jacobians must agree with central differences across a sweep of
// operating points — this is the property the per-iteration linearization
// of NUISE depends on.
struct JacobianCase {
  Vector x;
  Vector u;
};

class DiffDriveJacobianProperty
    : public ::testing::TestWithParam<std::size_t> {
 protected:
  static std::vector<JacobianCase> cases() {
    return {
        {{0.0, 0.0, 0.0}, {0.0, 0.0}},
        {{1.0, -2.0, 0.7}, {0.05, 0.05}},
        {{-0.5, 0.3, -2.9}, {0.08, -0.02}},
        {{2.0, 1.0, 1.57}, {-0.04, 0.06}},
        {{0.1, 0.2, 3.1}, {0.02, 0.09}},
        {{5.0, -5.0, -1.2}, {0.1, 0.1}},
    };
  }
};

TEST_P(DiffDriveJacobianProperty, StateJacobianMatchesNumeric) {
  DiffDrive model;
  const JacobianCase c = cases()[GetParam()];
  const Matrix analytic = model.jacobian_state(c.x, c.u);
  const Matrix numeric = numerical_jacobian(
      [&](const Vector& x) { return model.step(x, c.u); }, c.x);
  expect_matrix_near(analytic, numeric, 1e-7);
}

TEST_P(DiffDriveJacobianProperty, InputJacobianMatchesNumeric) {
  DiffDrive model;
  const JacobianCase c = cases()[GetParam()];
  const Matrix analytic = model.jacobian_input(c.x, c.u);
  const Matrix numeric = numerical_jacobian(
      [&](const Vector& u) { return model.step(c.x, u); }, c.u);
  expect_matrix_near(analytic, numeric, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(OperatingPoints, DiffDriveJacobianProperty,
                         ::testing::Range<std::size_t>(0, 6));

TEST(KinematicBicycle, Dimensions) {
  KinematicBicycle model;
  EXPECT_EQ(model.state_dim(), 3u);
  EXPECT_EQ(model.input_dim(), 2u);
  EXPECT_EQ(model.heading_index(), 2u);
  const Vector sat = model.input_saturation();
  EXPECT_GT(sat[0], 0.0);
  EXPECT_GT(sat[1], 0.0);
}

TEST(KinematicBicycle, RejectsBadParams) {
  KinematicBicycleParams p;
  p.max_steer = 2.0;  // >= π/2
  EXPECT_THROW(KinematicBicycle{p}, CheckError);
}

TEST(KinematicBicycle, StraightLineAtCommandedSpeed) {
  KinematicBicycle model;
  const Vector next = model.step(Vector{0.0, 0.0, 0.0}, Vector{0.5, 0.0});
  EXPECT_NEAR(next[0], 0.05, 1e-12);
  EXPECT_NEAR(next[1], 0.0, 1e-12);
  EXPECT_NEAR(next[2], 0.0, 1e-12);
}

TEST(KinematicBicycle, TurnRateMatchesBicycleGeometry) {
  KinematicBicycle model;
  const Vector next = model.step(Vector{0.0, 0.0, 0.0}, Vector{0.5, 0.3});
  EXPECT_NEAR(next[2],
              model.dt() * 0.5 * std::tan(0.3) / model.params().wheelbase,
              1e-12);
}

class KinematicBicycleJacobianProperty
    : public ::testing::TestWithParam<std::size_t> {
 protected:
  static std::vector<JacobianCase> cases() {
    return {
        {{0.0, 0.0, 0.0}, {0.0, 0.0}},
        {{1.0, -2.0, 0.7}, {0.5, 0.1}},
        {{-0.5, 0.3, -2.9}, {0.8, -0.3}},
        {{2.0, 1.0, 1.57}, {0.4, 0.2}},
        {{0.1, 0.2, 3.1}, {0.2, 0.44}},
        {{5.0, -5.0, -1.2}, {1.0, -0.44}},
    };
  }
};

TEST_P(KinematicBicycleJacobianProperty, StateJacobianMatchesNumeric) {
  KinematicBicycle model;
  const JacobianCase c = cases()[GetParam()];
  expect_matrix_near(model.jacobian_state(c.x, c.u),
                     numerical_jacobian(
                         [&](const Vector& x) { return model.step(x, c.u); },
                         c.x),
                     1e-6);
}

TEST_P(KinematicBicycleJacobianProperty, InputJacobianMatchesNumeric) {
  KinematicBicycle model;
  const JacobianCase c = cases()[GetParam()];
  expect_matrix_near(model.jacobian_input(c.x, c.u),
                     numerical_jacobian(
                         [&](const Vector& u) { return model.step(c.x, u); },
                         c.u),
                     1e-6);
}

INSTANTIATE_TEST_SUITE_P(OperatingPoints, KinematicBicycleJacobianProperty,
                         ::testing::Range<std::size_t>(0, 6));

}  // namespace
}  // namespace roboads::dyn

#include "geometry/geometry.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace roboads::geom {
namespace {

TEST(Vec2, BasicArithmetic) {
  Vec2 a{1.0, 2.0}, b{3.0, -1.0};
  EXPECT_EQ(a + b, (Vec2{4.0, 1.0}));
  EXPECT_EQ(a - b, (Vec2{-2.0, 3.0}));
  EXPECT_EQ(a * 2.0, (Vec2{2.0, 4.0}));
  EXPECT_EQ(a / 2.0, (Vec2{0.5, 1.0}));
  EXPECT_DOUBLE_EQ(a.dot(b), 1.0);
  EXPECT_DOUBLE_EQ(a.cross(b), -7.0);
}

TEST(Vec2, NormAndNormalize) {
  Vec2 v{3.0, 4.0};
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
  EXPECT_DOUBLE_EQ(v.norm_squared(), 25.0);
  const Vec2 n = v.normalized();
  EXPECT_NEAR(n.norm(), 1.0, 1e-12);
  EXPECT_THROW(Vec2().normalized(), CheckError);
}

TEST(Vec2, Rotation) {
  const Vec2 r = Vec2{1.0, 0.0}.rotated(M_PI / 2.0);
  EXPECT_NEAR(r.x, 0.0, 1e-12);
  EXPECT_NEAR(r.y, 1.0, 1e-12);
}

TEST(Angles, WrapIntoHalfOpenPi) {
  EXPECT_NEAR(wrap_angle(0.0), 0.0, 1e-12);
  EXPECT_NEAR(wrap_angle(3.0 * M_PI), M_PI, 1e-12);
  EXPECT_NEAR(wrap_angle(-3.0 * M_PI), M_PI, 1e-12);
  EXPECT_NEAR(wrap_angle(2.0 * M_PI + 0.5), 0.5, 1e-12);
  EXPECT_NEAR(angle_diff(0.1, -0.1), 0.2, 1e-12);
  EXPECT_NEAR(angle_diff(-3.0, 3.0), 2.0 * M_PI - 6.0, 1e-12);
}

// wrap_angle as it was before its fast path, kept as the oracle.
double wrap_angle_fmod(double a) {
  a = std::fmod(a + M_PI, 2.0 * M_PI);
  if (a <= 0.0) a += 2.0 * M_PI;
  return a - M_PI;
}

TEST(Angles, WrapIsBitIdenticalToTheFmodForm) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> angles = {0.0, -0.0, inf, -inf,
                                std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min()};
  // ±π, where a + π lands on 0 or 2π, and their neighbours either side.
  for (const double pi : {M_PI, -M_PI, 3.0 * M_PI, -3.0 * M_PI}) {
    double lo = pi, hi = pi;
    angles.push_back(pi);
    for (int k = 0; k < 4; ++k) {
      lo = std::nextafter(lo, -inf);
      hi = std::nextafter(hi, inf);
      angles.push_back(lo);
      angles.push_back(hi);
    }
  }
  // Multiples of 2π, exact and off by one ulp, up to |a| = 1e6.
  for (double k = -160000.0; k <= 160000.0; k += 997.0) {
    const double a = k * 2.0 * M_PI;
    angles.insert(angles.end(),
                  {a, std::nextafter(a, -inf), std::nextafter(a, inf)});
  }
  // Random angles of every magnitude up to 1e6.
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> exponent(-6.0, 6.0);
  for (int i = 0; i < 200000; ++i) {
    const double magnitude = std::pow(10.0, exponent(rng));
    angles.push_back(i % 2 == 0 ? magnitude : -magnitude);
  }
  for (const double a : angles) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(wrap_angle(a)),
              std::bit_cast<std::uint64_t>(wrap_angle_fmod(a)))
        << "a = " << a;
  }
}

TEST(Segment, DistanceToPoint) {
  Segment s{{0.0, 0.0}, {10.0, 0.0}};
  EXPECT_DOUBLE_EQ(s.distance_to({5.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(s.distance_to({-4.0, 3.0}), 5.0);  // clamps to endpoint
  EXPECT_DOUBLE_EQ(s.length(), 10.0);
  // Degenerate segment behaves as a point.
  Segment p{{1.0, 1.0}, {1.0, 1.0}};
  EXPECT_DOUBLE_EQ(p.distance_to({4.0, 5.0}), 5.0);
}

TEST(RaySegment, HitsAndMisses) {
  Segment wall{{5.0, -1.0}, {5.0, 1.0}};
  auto t = ray_segment_intersection({0.0, 0.0}, {1.0, 0.0}, wall);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 5.0, 1e-12);

  // Pointing away.
  EXPECT_FALSE(
      ray_segment_intersection({0.0, 0.0}, {-1.0, 0.0}, wall).has_value());
  // Parallel.
  EXPECT_FALSE(
      ray_segment_intersection({0.0, 0.0}, {0.0, 1.0}, wall).has_value());
  // Beyond the segment extent.
  EXPECT_FALSE(
      ray_segment_intersection({0.0, 5.0}, {1.0, 0.0}, wall).has_value());
}

TEST(RaySegment, NonUnitDirectionScalesParameter) {
  Segment wall{{4.0, -1.0}, {4.0, 1.0}};
  auto t = ray_segment_intersection({0.0, 0.0}, {2.0, 0.0}, wall);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 2.0, 1e-12);
}

TEST(Segments, IntersectionCases) {
  EXPECT_TRUE(segments_intersect({0, 0}, {2, 2}, {0, 2}, {2, 0}));
  EXPECT_FALSE(segments_intersect({0, 0}, {1, 1}, {2, 2}, {3, 3}));
  // Collinear overlap.
  EXPECT_TRUE(segments_intersect({0, 0}, {2, 0}, {1, 0}, {3, 0}));
  // Touching at an endpoint.
  EXPECT_TRUE(segments_intersect({0, 0}, {1, 0}, {1, 0}, {1, 5}));
}

TEST(Aabb, ContainsAndInflate) {
  Aabb box{{0.0, 0.0}, {2.0, 1.0}};
  EXPECT_TRUE(box.contains({1.0, 0.5}));
  EXPECT_TRUE(box.contains({0.0, 0.0}));  // boundary inclusive
  EXPECT_FALSE(box.contains({2.1, 0.5}));
  EXPECT_DOUBLE_EQ(box.width(), 2.0);
  EXPECT_DOUBLE_EQ(box.height(), 1.0);
  EXPECT_EQ(box.center(), (Vec2{1.0, 0.5}));

  const Aabb big = box.inflated(0.5);
  EXPECT_TRUE(big.contains({-0.4, -0.4}));
  EXPECT_THROW(box.inflated(-2.0), CheckError);
  EXPECT_THROW(Aabb({1.0, 0.0}, {0.0, 1.0}), CheckError);
}

TEST(Aabb, SegmentIntersection) {
  Aabb box{{1.0, 1.0}, {2.0, 2.0}};
  EXPECT_TRUE(box.intersects_segment({0.0, 1.5}, {3.0, 1.5}));  // crosses
  EXPECT_TRUE(box.intersects_segment({1.5, 1.5}, {5.0, 5.0}));  // starts in
  EXPECT_FALSE(box.intersects_segment({0.0, 0.0}, {0.5, 3.0}));
  EXPECT_EQ(box.edges().size(), 4u);
}

TEST(FitLine, ExactHorizontal) {
  const FittedLine line =
      fit_line({{0.0, 2.0}, {1.0, 2.0}, {2.0, 2.0}, {5.0, 2.0}});
  EXPECT_NEAR(std::abs(line.direction.y), 0.0, 1e-12);
  EXPECT_NEAR(line.rms_error, 0.0, 1e-12);
  EXPECT_NEAR(line.distance_to({0.0, 5.0}), 3.0, 1e-12);
}

TEST(FitLine, ExactDiagonalAndErrors) {
  const FittedLine line = fit_line({{0.0, 0.0}, {1.0, 1.0}, {2.0, 2.0}});
  EXPECT_NEAR(std::abs(line.direction.x), std::sqrt(0.5), 1e-9);
  EXPECT_NEAR(std::abs(line.direction.y), std::sqrt(0.5), 1e-9);
  EXPECT_THROW(fit_line({{1.0, 1.0}}), CheckError);
  EXPECT_THROW(fit_line({{1.0, 1.0}, {1.0, 1.0}}), CheckError);
}

TEST(FitLine, VerticalLineHandled) {
  const FittedLine line = fit_line({{3.0, 0.0}, {3.0, 1.0}, {3.0, 9.0}});
  EXPECT_NEAR(std::abs(line.direction.x), 0.0, 1e-12);
  EXPECT_NEAR(line.distance_to({5.0, 4.0}), 2.0, 1e-12);
}

}  // namespace
}  // namespace roboads::geom

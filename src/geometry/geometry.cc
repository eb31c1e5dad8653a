#include "geometry/geometry.h"

#include <algorithm>
#include <cmath>

namespace roboads::geom {

Vec2 Vec2::normalized() const {
  const double n = norm();
  ROBOADS_CHECK(n > 0.0, "cannot normalize a zero vector");
  return {x / n, y / n};
}

Vec2 Vec2::rotated(double angle) const {
  const double c = std::cos(angle);
  const double s = std::sin(angle);
  return {c * x - s * y, s * x + c * y};
}

double wrap_angle(double a) {
  // fmod returns an argument already inside (0, 2π) unchanged, and the
  // `<= 0` fix-up leaves it alone, so the fast path is the fmod form's value.
  double shifted = a + M_PI;
  if (shifted > 0.0 && shifted < 2.0 * M_PI) return shifted - M_PI;
  shifted = std::fmod(shifted, 2.0 * M_PI);
  if (shifted <= 0.0) shifted += 2.0 * M_PI;
  return shifted - M_PI;
}

double angle_diff(double a, double b) { return wrap_angle(a - b); }

double Segment::distance_to(const Vec2& p) const {
  const Vec2 ab = b - a;
  const double len2 = ab.norm_squared();
  if (len2 == 0.0) return distance(p, a);
  const double t = std::clamp((p - a).dot(ab) / len2, 0.0, 1.0);
  return distance(p, a + ab * t);
}

std::optional<double> ray_segment_intersection(const Vec2& origin,
                                               const Vec2& dir,
                                               const Segment& seg) {
  // Solve origin + t*dir = seg.a + s*(seg.b - seg.a), t >= 0, s in [0,1].
  const Vec2 e = seg.b - seg.a;
  const double denom = dir.cross(e);
  if (std::abs(denom) < 1e-15) return std::nullopt;  // parallel
  const Vec2 diff = seg.a - origin;
  const double t = diff.cross(e) / denom;
  const double s = diff.cross(dir) / denom;
  if (t < 0.0 || s < -1e-12 || s > 1.0 + 1e-12) return std::nullopt;
  return t;
}

Aabb Aabb::inflated(double margin) const {
  ROBOADS_CHECK(width() + 2 * margin >= 0 && height() + 2 * margin >= 0,
                "inflation would invert the AABB");
  return Aabb({min.x - margin, min.y - margin},
              {max.x + margin, max.y + margin});
}

double FittedLine::distance_to(const Vec2& p) const {
  return std::abs((p - point).cross(direction));
}

FittedLine fit_line(std::span<const Vec2> points) {
  ROBOADS_CHECK(points.size() >= 2, "line fit needs at least 2 points");
  Vec2 centroid;
  for (const Vec2& p : points) centroid = centroid + p;
  centroid = centroid / static_cast<double>(points.size());

  // 2x2 scatter matrix; principal eigenvector is the line direction.
  double sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (const Vec2& p : points) {
    const Vec2 d = p - centroid;
    sxx += d.x * d.x;
    sxy += d.x * d.y;
    syy += d.y * d.y;
  }
  ROBOADS_CHECK(sxx + syy > 0.0, "line fit needs nonzero point spread");

  // Closed-form principal direction of [[sxx, sxy], [sxy, syy]].
  const double theta = 0.5 * std::atan2(2.0 * sxy, sxx - syy);
  FittedLine line;
  line.point = centroid;
  line.direction = {std::cos(theta), std::sin(theta)};

  double err2 = 0.0;
  for (const Vec2& p : points) {
    const double d = line.distance_to(p);
    err2 += d * d;
  }
  line.rms_error = std::sqrt(err2 / static_cast<double>(points.size()));
  return line;
}

}  // namespace roboads::geom

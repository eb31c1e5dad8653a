#include "geometry/geometry.h"

#include <algorithm>
#include <cmath>

namespace roboads::geom {

double Vec2::norm() const { return std::hypot(x, y); }

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

double distance(const Vec2& a, const Vec2& b) { return (a - b).norm(); }

double wrap_angle(double a) {
  a = std::fmod(a + M_PI, 2.0 * M_PI);
  if (a <= 0.0) a += 2.0 * M_PI;
  return a - M_PI;
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

int orientation(const Vec2& a, const Vec2& b, const Vec2& c) {
  const double v = (b - a).cross(c - a);
  if (v > 1e-15) return 1;
  if (v < -1e-15) return -1;
  return 0;
}

namespace {

bool on_segment(const Vec2& a, const Vec2& b, const Vec2& p) {
  return std::min(a.x, b.x) - 1e-15 <= p.x && p.x <= std::max(a.x, b.x) + 1e-15 &&
         std::min(a.y, b.y) - 1e-15 <= p.y && p.y <= std::max(a.y, b.y) + 1e-15;
}

}  // namespace

bool segments_intersect(const Vec2& a1, const Vec2& a2, const Vec2& b1,
                        const Vec2& b2) {
  const int o1 = orientation(a1, a2, b1);
  const int o2 = orientation(a1, a2, b2);
  const int o3 = orientation(b1, b2, a1);
  const int o4 = orientation(b1, b2, a2);
  if (o1 != o2 && o3 != o4) return true;
  if (o1 == 0 && on_segment(a1, a2, b1)) return true;
  if (o2 == 0 && on_segment(a1, a2, b2)) return true;
  if (o3 == 0 && on_segment(b1, b2, a1)) return true;
  if (o4 == 0 && on_segment(b1, b2, a2)) return true;
  return false;
}

Aabb Aabb::inflated(double margin) const {
  ROBOADS_CHECK(width() + 2 * margin >= 0 && height() + 2 * margin >= 0,
                "inflation would invert the AABB");
  return Aabb({min.x - margin, min.y - margin},
              {max.x + margin, max.y + margin});
}

std::array<Segment, 4> Aabb::edges() const {
  const Vec2 bl = min;
  const Vec2 br{max.x, min.y};
  const Vec2 tr = max;
  const Vec2 tl{min.x, max.y};
  return {{{bl, br}, {br, tr}, {tr, tl}, {tl, bl}}};
}

bool Aabb::intersects_segment(const Vec2& a, const Vec2& b) const {
  if (contains(a) || contains(b)) return true;
  for (const Segment& e : edges()) {
    if (segments_intersect(a, b, e.a, e.b)) return true;
  }
  return false;
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

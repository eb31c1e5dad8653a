// 2-D geometry primitives for the arena world, LiDAR ray casting, and the
// RRT* planner's collision checks.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <span>
#include <vector>

#include "common/check.h"

namespace roboads::geom {

struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  Vec2() = default;
  Vec2(double x_, double y_) : x(x_), y(y_) {}

  Vec2 operator+(const Vec2& o) const { return {x + o.x, y + o.y}; }
  Vec2 operator-(const Vec2& o) const { return {x - o.x, y - o.y}; }
  Vec2 operator*(double s) const { return {x * s, y * s}; }
  Vec2 operator/(double s) const { return {x / s, y / s}; }
  bool operator==(const Vec2& o) const { return x == o.x && y == o.y; }

  double dot(const Vec2& o) const { return x * o.x + y * o.y; }
  // z-component of the 3-D cross product; >0 when `o` is CCW from *this.
  double cross(const Vec2& o) const { return x * o.y - y * o.x; }
  double norm() const { return std::hypot(x, y); }
  double norm_squared() const { return x * x + y * y; }
  Vec2 normalized() const;
  // Rotated counter-clockwise by `angle` radians.
  Vec2 rotated(double angle) const;
};

inline double distance(const Vec2& a, const Vec2& b) {
  return (a - b).norm();
}

// Wraps an angle into (-π, π].
double wrap_angle(double a);
// Signed smallest difference a - b wrapped into (-π, π].
double angle_diff(double a, double b);

// A line segment between two points.
struct Segment {
  Vec2 a;
  Vec2 b;

  double length() const { return distance(a, b); }
  // Closest distance from `p` to the segment.
  double distance_to(const Vec2& p) const;
};

// Intersection parameter t >= 0 along a ray origin + t*dir (unit dir not
// required) with a segment; returns the smallest non-negative t, or nullopt.
std::optional<double> ray_segment_intersection(const Vec2& origin,
                                               const Vec2& dir,
                                               const Segment& seg);

// The collision predicates below are inline: the planner's segment tests
// (planning/free_space.h) call them thousands of times per plan.

// Side of the line a→b that `c` lies on: +1 left, -1 right, 0 when the
// cross product is within 1e-15 of zero.
inline int orientation(const Vec2& a, const Vec2& b, const Vec2& c) {
  const double v = (b - a).cross(c - a);
  if (v > 1e-15) return 1;
  if (v < -1e-15) return -1;
  return 0;
}

namespace detail {

// `p` lies in the bounding box of [a,b], widened by 1e-15.
inline bool on_segment(const Vec2& a, const Vec2& b, const Vec2& p) {
  return std::min(a.x, b.x) - 1e-15 <= p.x &&
         p.x <= std::max(a.x, b.x) + 1e-15 &&
         std::min(a.y, b.y) - 1e-15 <= p.y &&
         p.y <= std::max(a.y, b.y) + 1e-15;
}

}  // namespace detail

// True when segments [a1,a2] and [b1,b2] intersect (inclusive of endpoints).
// Collinearity is decided by orientation()'s absolute 1e-15, so a segment
// nearly parallel to [b1,b2]'s line can count as touching it well beyond
// its end.
inline bool segments_intersect(const Vec2& a1, const Vec2& a2, const Vec2& b1,
                               const Vec2& b2) {
  const int o1 = orientation(a1, a2, b1);
  const int o2 = orientation(a1, a2, b2);
  const int o3 = orientation(b1, b2, a1);
  const int o4 = orientation(b1, b2, a2);
  if (o1 != o2 && o3 != o4) return true;
  if (o1 == 0 && detail::on_segment(a1, a2, b1)) return true;
  if (o2 == 0 && detail::on_segment(a1, a2, b2)) return true;
  if (o3 == 0 && detail::on_segment(b1, b2, a1)) return true;
  if (o4 == 0 && detail::on_segment(b1, b2, a2)) return true;
  return false;
}

// Axis-aligned rectangle, used for arena obstacles.
struct Aabb {
  Vec2 min;
  Vec2 max;

  Aabb() = default;
  Aabb(const Vec2& mn, const Vec2& mx) : min(mn), max(mx) {
    ROBOADS_CHECK(mn.x <= mx.x && mn.y <= mx.y, "inverted AABB corners");
  }

  double width() const { return max.x - min.x; }
  double height() const { return max.y - min.y; }
  Vec2 center() const { return (min + max) / 2.0; }

  bool contains(const Vec2& p) const {
    return p.x >= min.x && p.x <= max.x && p.y >= min.y && p.y <= max.y;
  }
  // Grows the box by `margin` on every side (negative shrinks).
  Aabb inflated(double margin) const;
  // The four boundary edges in CCW order.
  std::array<Segment, 4> edges() const {
    const Vec2 br{max.x, min.y};
    const Vec2 tl{min.x, max.y};
    return {{{min, br}, {br, max}, {max, tl}, {tl, min}}};
  }
  // True when segment [a,b] touches the box (either endpoint inside or an
  // edge crossing).
  bool intersects_segment(const Vec2& a, const Vec2& b) const {
    if (contains(a) || contains(b)) return true;
    for (const Segment& e : edges()) {
      if (segments_intersect(a, b, e.a, e.b)) return true;
    }
    return false;
  }
};

// Total least-squares line fit through points: returns (point on line, unit
// direction). Requires >= 2 points with nonzero spread.
struct FittedLine {
  Vec2 point;
  Vec2 direction;  // unit
  double rms_error = 0.0;

  // Perpendicular distance from `p` to the fitted line.
  double distance_to(const Vec2& p) const;
};
FittedLine fit_line(std::span<const Vec2> points);
inline FittedLine fit_line(const std::vector<Vec2>& points) {
  return fit_line(std::span<const Vec2>(points));
}

}  // namespace roboads::geom

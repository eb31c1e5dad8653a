#include "sim/world.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace roboads::sim {

World::World(double width, double height, std::vector<geom::Aabb> obstacles)
    : width_(width), height_(height), obstacles_(std::move(obstacles)) {
  ROBOADS_CHECK(width_ > 0.0 && height_ > 0.0, "arena must have positive size");
  for (const geom::Aabb& o : obstacles_) {
    ROBOADS_CHECK(o.min.x >= 0.0 && o.min.y >= 0.0 && o.max.x <= width_ &&
                      o.max.y <= height_,
                  "obstacle outside the arena");
  }
  const geom::Vec2 bl{0.0, 0.0};
  const geom::Vec2 br{width_, 0.0};
  const geom::Vec2 tr{width_, height_};
  const geom::Vec2 tl{0.0, height_};
  walls_ = {{bl, br}, {br, tr}, {tr, tl}, {tl, bl}};
  ray_targets_.reserve(4 + 4 * obstacles_.size());
  for (const geom::Segment& w : walls_) {
    ray_targets_.push_back({w.a, w.b - w.a});
  }
  for (const geom::Aabb& o : obstacles_) {
    for (const geom::Segment& e : o.edges()) {
      ray_targets_.push_back({e.a, e.b - e.a});
    }
  }
}

bool World::free(const geom::Vec2& p, double radius) const {
  if (p.x < radius || p.y < radius || p.x > width_ - radius ||
      p.y > height_ - radius) {
    return false;
  }
  for (const geom::Aabb& o : obstacles_) {
    if (o.inflated(radius).contains(p)) return false;
  }
  return true;
}

bool World::segment_free(const geom::Vec2& a, const geom::Vec2& b,
                         double radius) const {
  if (!free(a, radius) || !free(b, radius)) return false;
  for (const geom::Aabb& o : obstacles_) {
    if (o.inflated(radius).intersects_segment(a, b)) return false;
  }
  return true;
}

double World::raycast(const geom::Vec2& origin, double angle,
                      double max_range) const {
  ROBOADS_CHECK(max_range > 0.0, "raycast needs positive max range");
  const geom::Vec2 dir{std::cos(angle), std::sin(angle)};
  double best = max_range;
  // geom::ray_segment_intersection on each target, operation for operation.
  for (const RayTarget& target : ray_targets_) {
    const double denom = dir.cross(target.e);
    if (std::abs(denom) < 1e-15) continue;  // parallel
    const geom::Vec2 diff = target.a - origin;
    const double s = diff.cross(dir) / denom;
    if (s < -1e-12 || s > 1.0 + 1e-12) continue;
    const double t = diff.cross(target.e) / denom;
    if (t >= 0.0) best = std::min(best, t);
  }
  return best;
}

}  // namespace roboads::sim

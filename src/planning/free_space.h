// World::free and World::segment_free for one fixed robot radius
// (planning/rrt_star.cc). Private to the planner; a header only so
// tests/planning_test.cc can compare it with World directly.
//
// Exact by contract: every answer equals World's, bit for bit. The
// obstacles are inflated once, to the same boxes World inflates on every
// call. A segment skips an obstacle's edge tests only when those tests
// cannot succeed:
//   - each edge test (geom::segments_intersect) begins with the sides of
//     the edge's two corners against the line a→b. When all four corners
//     lie strictly on one side, no edge straddles or touches the line;
//   - the one way left to intersect is an endpoint of a→b lying on an edge
//     within the test's 1e-15 slack. That slack is the box grown by 1e-15,
//     computed with the same roundings, and `reach` is exactly that box.
// A bounding-box test alone is not enough: the slack is absolute on the
// cross product, so a segment nearly parallel to an edge's line counts as
// touching it centimeters beyond the box.
#pragma once

#include <vector>

#include "geometry/geometry.h"
#include "sim/world.h"

namespace roboads::planning::detail {

class FreeSpace {
 public:
  FreeSpace(const sim::World& world, double radius)
      : radius_(radius),
        x_max_(world.width() - radius),
        y_max_(world.height() - radius) {
    for (const geom::Aabb& o : world.obstacles()) {
      const geom::Aabb box = o.inflated(radius);
      boxes_.push_back({box, box.inflated(1e-15)});
    }
  }

  // World::free(p, radius).
  bool free(const geom::Vec2& p) const {
    if (p.x < radius_ || p.y < radius_ || p.x > x_max_ || p.y > y_max_) {
      return false;
    }
    for (const Box& o : boxes_) {
      if (o.box.contains(p)) return false;
    }
    return true;
  }

  // World::segment_free(a, b, radius).
  bool segment_free(const geom::Vec2& a, const geom::Vec2& b) const {
    return free(a) && free(b) && segment_clear(a, b);
  }

  // World::segment_free(a, b, radius) when free(a) and free(b) are already
  // known to hold: the obstacle tests alone.
  bool segment_clear(const geom::Vec2& a, const geom::Vec2& b) const {
    for (const Box& o : boxes_) {
      if (one_side(o.box, a, b) && !o.reach.contains(a) &&
          !o.reach.contains(b)) {
        continue;
      }
      if (o.box.intersects_segment(a, b)) return false;
    }
    return true;
  }

 private:
  struct Box {
    geom::Aabb box;    // the obstacle inflated by the radius
    geom::Aabb reach;  // box grown by segments_intersect's 1e-15 slack
  };

  // True when every corner of `box` lies strictly on one side of the line
  // a→b, by the orientation test segments_intersect applies to them.
  static bool one_side(const geom::Aabb& box, const geom::Vec2& a,
                       const geom::Vec2& b) {
    const int side = geom::orientation(a, b, box.min);
    return side != 0 &&
           geom::orientation(a, b, {box.max.x, box.min.y}) == side &&
           geom::orientation(a, b, box.max) == side &&
           geom::orientation(a, b, {box.min.x, box.max.y}) == side;
  }

  double radius_;
  double x_max_;
  double y_max_;
  std::vector<Box> boxes_;
};

}  // namespace roboads::planning::detail

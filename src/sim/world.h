// The experiment arena: a rectangular walled area with axis-aligned
// obstacles, mirroring the paper's indoor Vicon room (Fig. 5b). Provides the
// collision queries used by the RRT* planner and the ray casting used by the
// LiDAR simulation.
#pragma once

#include <optional>
#include <vector>

#include "geometry/geometry.h"

namespace roboads::sim {

class World {
 public:
  // Arena [0, width] x [0, height] with interior obstacles.
  World(double width, double height, std::vector<geom::Aabb> obstacles = {});

  double width() const { return width_; }
  double height() const { return height_; }
  const std::vector<geom::Aabb>& obstacles() const { return obstacles_; }

  // True when `p`, padded by `radius`, lies inside the arena and clear of
  // every obstacle.
  bool free(const geom::Vec2& p, double radius = 0.0) const;

  // True when the straight move a→b stays free for a robot of `radius`.
  bool segment_free(const geom::Vec2& a, const geom::Vec2& b,
                    double radius = 0.0) const;

  // Distance from `origin` along `angle` (global frame) to the first wall or
  // obstacle hit, clipped at max_range.
  double raycast(const geom::Vec2& origin, double angle,
                 double max_range) const;

  // The four arena wall segments.
  const std::vector<geom::Segment>& walls() const { return walls_; }

 private:
  // A ray target: a segment's start and its edge vector b - a, as
  // geom::ray_segment_intersection computes them.
  struct RayTarget {
    geom::Vec2 a;
    geom::Vec2 e;
  };

  double width_;
  double height_;
  std::vector<geom::Aabb> obstacles_;
  std::vector<geom::Segment> walls_;
  // The walls, then every obstacle's edges, in the order the per-segment
  // loop visited them: the nearest hit is a minimum, and std::min keeps the
  // first of a signed-zero tie, so the order is part of the result.
  std::vector<RayTarget> ray_targets_;
};

}  // namespace roboads::sim

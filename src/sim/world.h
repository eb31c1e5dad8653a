// The experiment arena: a rectangular walled area with axis-aligned
// obstacles, mirroring the paper's indoor Vicon room (Fig. 5b). Provides the
// collision queries used by the RRT* planner and the ray casting used by the
// LiDAR simulation.
#pragma once

#include <span>
#include <vector>

#include "geometry/geometry.h"

namespace roboads::sim {

// Segments laid out for casting many rays from one origin: World keeps its
// walls and obstacle edges in one. cast() answers, for every ray, the
// smallest t >= 0 geom::ray_segment_intersection returns over the segments,
// folded with std::min in segment order from max_range, bit for bit: the
// fold keeps the first of a signed-zero tie, so the order is part of the
// result.
class RayTargets {
 public:
  explicit RayTargets(std::span<const geom::Segment> segments);

  // ranges[i] for the ray from `origin` along heading + beam_angles[i]
  // (direction (cos, sin) of that sum), clipped at max_range.
  void cast(const geom::Vec2& origin, double heading,
            std::span<const double> beam_angles, double max_range,
            std::span<double> ranges) const;

 private:
  // Each segment's start a and edge e = b - a, by coordinate, padded to an
  // even count with a zero edge (a ray is parallel to it, so it never hits).
  std::vector<double> ax_;
  std::vector<double> ay_;
  std::vector<double> ex_;
  std::vector<double> ey_;
};

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
  // obstacle hit, clipped at max_range: raycast_beams' one-beam case.
  double raycast(const geom::Vec2& origin, double angle,
                 double max_range) const;

  // raycast(origin, heading + beam_angles[i], max_range) into ranges[i]
  // for every beam of one scan.
  void raycast_beams(const geom::Vec2& origin, double heading,
                     std::span<const double> beam_angles, double max_range,
                     std::span<double> ranges) const;

  // The four arena wall segments.
  const std::vector<geom::Segment>& walls() const { return walls_; }

 private:
  double width_;
  double height_;
  std::vector<geom::Aabb> obstacles_;
  std::vector<geom::Segment> walls_;
  // The walls, then every obstacle's edges, in the order the per-segment
  // loop visited them.
  RayTargets ray_targets_;
};

}  // namespace roboads::sim

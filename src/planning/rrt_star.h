// RRT* sampling-based motion planner (Karaman & Frazzoli), used by the
// paper's evaluation mission: "the planner calculates a collision-free path
// using optimal rapidly-exploring random trees (RRT*)" (§V-A).
#pragma once

#include <optional>
#include <vector>

#include "geometry/geometry.h"
#include "random/rng.h"
#include "sim/world.h"

namespace roboads::planning {

struct RrtStarConfig {
  std::size_t max_iterations = 4000;
  double step_size = 0.15;        // steering extension length [m]
  double goal_radius = 0.10;      // success distance to the goal [m]
  double rewire_radius = 0.40;    // neighborhood for parent choice/rewiring
  double goal_bias = 0.08;        // probability of sampling the goal
  double robot_radius = 0.06;     // collision padding [m]
};

struct PlannedPath {
  std::vector<geom::Vec2> waypoints;  // start → goal inclusive
  double cost = 0.0;                  // total length [m]

  bool empty() const { return waypoints.empty(); }
  double length() const;
};

class RrtStar {
 public:
  RrtStar(const sim::World& world, RrtStarConfig config = {});

  // Plans start → goal; nullopt when no path was found within the budget.
  std::optional<PlannedPath> plan(const geom::Vec2& start,
                                  const geom::Vec2& goal, Rng& rng) const;

  // Shortcut smoothing: repeatedly replaces waypoint subchains with straight
  // segments when collision-free. Deterministic given the rng.
  PlannedPath smooth(const PlannedPath& path, Rng& rng,
                     std::size_t attempts = 120) const;

 private:
  struct Node {
    geom::Vec2 position;
    std::size_t parent = 0;
  };

  const sim::World& world_;
  RrtStarConfig config_;
};

}  // namespace roboads::planning

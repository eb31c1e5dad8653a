#include "planning/rrt_star.h"

#include <algorithm>
#include <cmath>

#include "planning/free_space.h"
#include "planning/node_grid.h"

namespace roboads::planning {

using geom::Vec2;

double PlannedPath::length() const {
  double acc = 0.0;
  for (std::size_t i = 1; i < waypoints.size(); ++i)
    acc += geom::distance(waypoints[i - 1], waypoints[i]);
  return acc;
}

RrtStar::RrtStar(const sim::World& world, RrtStarConfig config)
    : world_(world), config_(config) {
  ROBOADS_CHECK(config_.step_size > 0.0, "step size must be positive");
  ROBOADS_CHECK(config_.goal_radius > 0.0, "goal radius must be positive");
  ROBOADS_CHECK(config_.rewire_radius >= config_.step_size,
                "rewire radius should cover the step size");
  ROBOADS_CHECK(config_.goal_bias >= 0.0 && config_.goal_bias < 1.0,
                "goal bias must lie in [0, 1)");
}

std::optional<PlannedPath> RrtStar::plan(const Vec2& start, const Vec2& goal,
                                         Rng& rng) const {
  const double r = config_.robot_radius;
  ROBOADS_CHECK(world_.free(start, r), "start pose is in collision");
  ROBOADS_CHECK(world_.free(goal, r), "goal pose is in collision");
  const detail::FreeSpace space(world_, r);

  // A node's cost lives in its grid entry (planning/node_grid.h).
  std::vector<Node> nodes;
  nodes.push_back({start, 0});
  std::optional<std::size_t> best_goal_node;
  double best_goal_cost = std::numeric_limits<double>::infinity();

  // Nearest-node queries and the neighbor passes go through a uniform grid
  // whose answers equal a scan over every node (planning/node_grid.h); a
  // cell of half the rewire radius keeps a pass to a block of about 5x5
  // cells.
  detail::NodeGrid grid(world_.width(), world_.height(),
                        config_.rewire_radius / 2.0);
  grid.insert(0, start, 0.0);

  // Set once a node sits exactly on the goal: every later goal sample's
  // nearest node is then at distance 0, and the iteration is skipped.
  bool node_on_goal = false;
  // geom::distance(to, goal) is above goal_radius whenever the squared
  // distance is above this: hypot and the rounded sum of squares agree to
  // a few ulps.
  const double goal_r2_out =
      config_.goal_radius * config_.goal_radius * (1.0 + 1e-9);

  for (std::size_t it = 0; it < config_.max_iterations; ++it) {
    // Sample (goal-biased). Every early `continue` below is an iteration
    // the steps after it would reject anyway, and none of them draws.
    const bool goal_sample = rng.uniform() < config_.goal_bias;
    if (goal_sample && node_on_goal) continue;
    const Vec2 sample = goal_sample ? goal
                                    : Vec2{rng.uniform(0.0, world_.width()),
                                           rng.uniform(0.0, world_.height())};

    // A sample in collision with a node within step_size would become `to`
    // itself and fail the segment test below (or sit at distance < 1e-9).
    // The goal was checked free above.
    const bool sample_free = goal_sample || space.free(sample);
    if (!sample_free && grid.any_within(sample, config_.step_size)) continue;

    // Nearest node: argmin of (squared distance, index).
    const detail::NodeGrid::Nearest nn = grid.nearest(sample);
    const std::size_t nearest = nn.index;

    // Steer toward the sample by at most step_size. `from` is a tree node,
    // so free; an unsteered `to` is the sample, free by the test above.
    const Vec2 from = nodes[nearest].position;
    const double dist = std::sqrt(nn.d2);
    if (dist < 1e-9) continue;
    const bool steered = dist > config_.step_size;
    const Vec2 to = steered
                        ? from + (sample - from) * (config_.step_size / dist)
                        : sample;
    if ((steered && !space.free(to)) || !space.segment_clear(from, to)) {
      continue;
    }

    // Choose the cheapest collision-free parent among the nodes with
    // geom::distance <= radius. This is the order-free form of scanning
    // them by index with a strict `<`: the minimum cost over segment-free
    // neighbors, where the nearest node wins any tie it is in and otherwise
    // the lowest index wins. The grid skips only neighbors whose cost plus
    // a lower bound of their distance exceeds `cost`: rounding is monotone,
    // so `cost + bound` never exceeds `cost + distance`, and such a
    // neighbor can neither win nor tie. Tree nodes and `to` are free, so
    // the segment tests here and below test the obstacles alone.
    std::size_t parent = nearest;
    double cost = nn.cost + geom::distance(from, to);
    grid.parent_candidates(
        to, config_.rewire_radius, cost,
        [&](const detail::NodeGrid::Entry& e, double d) {
          if (e.index == nearest) return;  // ties itself, never beats itself
          const double c = e.cost + d;
          const bool wins =
              c < cost || (c == cost && parent != nearest && e.index < parent);
          if (wins && space.segment_clear(e.position, to)) {
            cost = c;
            parent = e.index;
          }
        });

    const std::size_t new_index = nodes.size();
    nodes.push_back({to, parent});

    // Rewire the neighborhood through the new node when cheaper. Each
    // neighbor's test reads only its own cost and the new node's, so the
    // visiting order does not matter, and whatever the grid's bound test
    // skips, the exact test would reject too. The new node joins the grid
    // only afterwards.
    grid.rewire_candidates(
        to, config_.rewire_radius, cost,
        [&](detail::NodeGrid::Entry& e, double d) {
          const double through = cost + d;
          if (through + 1e-12 < e.cost && space.segment_clear(to, e.position)) {
            nodes[e.index].parent = new_index;
            e.cost = through;
          }
        });
    grid.insert(new_index, to, cost);
    node_on_goal = node_on_goal || to == goal;

    // Track the best node able to reach the goal directly.
    if ((to - goal).norm_squared() > goal_r2_out) continue;
    const double to_goal = geom::distance(to, goal);
    if (to_goal <= config_.goal_radius && space.segment_clear(to, goal)) {
      const double total = cost + to_goal;
      if (total < best_goal_cost) {
        best_goal_cost = total;
        best_goal_node = new_index;
      }
    }
  }

  if (!best_goal_node) return std::nullopt;

  // Recover the waypoint chain.
  std::vector<Vec2> reversed;
  reversed.push_back(goal);
  for (std::size_t i = *best_goal_node; i != 0; i = nodes[i].parent) {
    reversed.push_back(nodes[i].position);
  }
  reversed.push_back(start);
  std::reverse(reversed.begin(), reversed.end());

  PlannedPath path;
  path.waypoints = std::move(reversed);
  path.cost = best_goal_cost;
  return path;
}

PlannedPath RrtStar::smooth(const PlannedPath& path, Rng& rng,
                            std::size_t attempts) const {
  if (path.waypoints.size() <= 2) return path;
  const detail::FreeSpace space(world_, config_.robot_radius);
  std::vector<Vec2> pts = path.waypoints;
  for (std::size_t it = 0; it < attempts && pts.size() > 2; ++it) {
    const std::size_t i = rng.index(pts.size() - 2);
    const std::size_t j =
        i + 2 + rng.index(pts.size() - i - 2);  // j >= i + 2
    if (space.segment_free(pts[i], pts[j])) {
      pts.erase(pts.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                pts.begin() + static_cast<std::ptrdiff_t>(j));
    }
  }
  PlannedPath out;
  out.waypoints = std::move(pts);
  out.cost = out.length();
  return out;
}

}  // namespace roboads::planning

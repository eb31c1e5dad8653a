#include "planning/rrt_star.h"

#include <algorithm>
#include <cmath>

#include "planning/free_space.h"
#include "planning/node_grid.h"

namespace roboads::planning {

using geom::Vec2;

namespace {

// The neighbor's exact geom::distance(p, q), computed at most once and
// shared by the parent and rewire passes. geom::distance is symmetric bit
// for bit (std::hypot of negated differences), so it also stands for the
// rewire pass's distance(q, p).
double exact_distance(detail::NodeGrid::Near& n, const Vec2& q) {
  if (n.d < 0.0) n.d = geom::distance(n.entry->position, q);
  return n.d;
}

}  // namespace

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

  // Nearest and near-set queries go through a uniform grid whose answers
  // equal a scan over every node (planning/node_grid.h); a cell of half the
  // rewire radius keeps the near query to a block of about 5x5 cells.
  detail::NodeGrid grid(world_.width(), world_.height(),
                        config_.rewire_radius / 2.0);
  grid.insert(0, start, 0.0);
  std::vector<detail::NodeGrid::Near> near;

  for (std::size_t it = 0; it < config_.max_iterations; ++it) {
    // Sample (goal-biased).
    const Vec2 sample = rng.uniform() < config_.goal_bias
                            ? goal
                            : Vec2{rng.uniform(0.0, world_.width()),
                                   rng.uniform(0.0, world_.height())};

    // Nearest node: argmin of (squared distance, index).
    const detail::NodeGrid::Nearest nn = grid.nearest(sample);
    const std::size_t nearest = nn.index;

    // Steer toward the sample by at most step_size.
    const Vec2 from = nodes[nearest].position;
    const double dist = std::sqrt(nn.d2);
    if (dist < 1e-9) continue;
    const Vec2 to = dist <= config_.step_size
                        ? sample
                        : from + (sample - from) * (config_.step_size / dist);
    if (!space.segment_free(from, to)) continue;

    // The neighborhood: exactly the nodes with geom::distance <= radius.
    grid.near(to, config_.rewire_radius, near);

    // Choose the cheapest collision-free parent within the neighborhood.
    // This is the order-free form of scanning the neighbors by index with a
    // strict `<`: the minimum cost over segment-free neighbors, where the
    // nearest node wins any tie it is in and otherwise the lowest index
    // wins. Exact distances are computed only for candidates whose lower
    // bound can still win or tie: rounding is monotone, so `cost + bound`
    // never exceeds `cost + distance`.
    std::size_t parent = nearest;
    double cost = nn.cost + geom::distance(from, to);
    for (detail::NodeGrid::Near& n : near) {
      const detail::NodeGrid::Entry& e = *n.entry;
      if (e.index == nearest) continue;  // ties itself, never beats itself
      if (e.cost + n.bound > cost) continue;
      const double c = e.cost + exact_distance(n, to);
      const bool wins =
          c < cost || (c == cost && parent != nearest && e.index < parent);
      if (wins && space.segment_free(e.position, to)) {
        cost = c;
        parent = e.index;
      }
    }

    const std::size_t new_index = nodes.size();
    nodes.push_back({to, parent});

    // Rewire the neighborhood through the new node when cheaper. Each
    // neighbor's test reads only its own cost and the new node's, so the
    // visiting order does not matter. The bound from near() still decides
    // the skip when the parent pass has since found the exact distance:
    // whatever it skips, the exact test would reject too. The new node
    // joins the grid only afterwards, which keeps every `near` entry
    // pointer valid.
    for (detail::NodeGrid::Near& n : near) {
      detail::NodeGrid::Entry& e = *n.entry;
      if (cost + n.bound + 1e-12 >= e.cost) continue;
      const double through = cost + exact_distance(n, to);
      if (through + 1e-12 < e.cost && space.segment_free(to, e.position)) {
        nodes[e.index].parent = new_index;
        e.cost = through;
      }
    }
    grid.insert(new_index, to, cost);

    // Track the best node able to reach the goal directly.
    const double to_goal = geom::distance(to, goal);
    if (to_goal <= config_.goal_radius && space.segment_free(to, goal)) {
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

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "dynamics/bicycle.h"
#include "dynamics/diff_drive.h"
#include "eval/khepera.h"
#include "eval/tamiya.h"
#include "planning/free_space.h"
#include "planning/node_grid.h"
#include "planning/tracker.h"

namespace roboads::planning {
namespace {

sim::World arena() {
  return sim::World(2.0, 1.5, {geom::Aabb{{0.85, 0.55}, {1.15, 0.85}}});
}

// The planner as it was before the grid index, kept as the oracle the
// indexed planner must match bit for bit: the nearest node and the
// neighborhood are both found by scanning every node in index order.
std::optional<PlannedPath> linear_scan_plan(const sim::World& world,
                                            const RrtStarConfig& config,
                                            const geom::Vec2& start,
                                            const geom::Vec2& goal,
                                            Rng& rng) {
  using geom::Vec2;
  struct Node {
    Vec2 position;
    std::size_t parent = 0;
    double cost = 0.0;
  };
  const double r = config.robot_radius;
  std::vector<Node> nodes;
  nodes.push_back({start, 0, 0.0});
  std::optional<std::size_t> best_goal_node;
  double best_goal_cost = std::numeric_limits<double>::infinity();

  for (std::size_t it = 0; it < config.max_iterations; ++it) {
    const Vec2 sample = rng.uniform() < config.goal_bias
                            ? goal
                            : Vec2{rng.uniform(0.0, world.width()),
                                   rng.uniform(0.0, world.height())};

    std::size_t nearest = 0;
    double nearest_d2 = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const double d2 = (nodes[i].position - sample).norm_squared();
      if (d2 < nearest_d2) {
        nearest_d2 = d2;
        nearest = i;
      }
    }

    const Vec2 from = nodes[nearest].position;
    const double dist = std::sqrt(nearest_d2);
    if (dist < 1e-9) continue;
    const Vec2 to = dist <= config.step_size
                        ? sample
                        : from + (sample - from) * (config.step_size / dist);
    if (!world.segment_free(from, to, r)) continue;

    std::size_t parent = nearest;
    double cost = nodes[nearest].cost + geom::distance(from, to);
    std::vector<std::size_t> neighbors;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const double d = geom::distance(nodes[i].position, to);
      if (d > config.rewire_radius) continue;
      neighbors.push_back(i);
      const double c = nodes[i].cost + d;
      if (c < cost && world.segment_free(nodes[i].position, to, r)) {
        cost = c;
        parent = i;
      }
    }

    const std::size_t new_index = nodes.size();
    nodes.push_back({to, parent, cost});

    for (std::size_t i : neighbors) {
      const double through = cost + geom::distance(to, nodes[i].position);
      if (through + 1e-12 < nodes[i].cost &&
          world.segment_free(to, nodes[i].position, r)) {
        nodes[i].parent = new_index;
        nodes[i].cost = through;
      }
    }

    const double to_goal = geom::distance(to, goal);
    if (to_goal <= config.goal_radius && world.segment_free(to, goal, r)) {
      const double total = cost + to_goal;
      if (total < best_goal_cost) {
        best_goal_cost = total;
        best_goal_node = new_index;
      }
    }
  }

  if (!best_goal_node) return std::nullopt;
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

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

struct PlanCase {
  sim::World world;
  RrtStarConfig config;
  geom::Vec2 start;
  geom::Vec2 goal;
};

PlanCase plan_case(const std::string& name) {
  if (name == "khepera") {
    const eval::KheperaPlatform platform;
    const eval::KheperaConfig& c = platform.config();
    return {platform.world(), platform.planner_config(),
            {c.start_pose[0], c.start_pose[1]}, c.goal};
  }
  if (name == "tamiya") {
    const eval::TamiyaPlatform platform;
    const eval::TamiyaConfig& c = platform.config();
    return {platform.world(), platform.planner_config(),
            {c.start_state[0], c.start_state[1]}, c.goal};
  }
  if (name == "default") return {arena(), {}, {0.35, 0.30}, {1.60, 1.20}};
  // The synthetic cases run fewer iterations than the default 4000 to keep
  // the quadratic oracle quick.
  if (name == "open") {
    RrtStarConfig open;
    open.max_iterations = 2000;
    return {sim::World(2.0, 1.5), open, {0.35, 0.30}, {1.60, 1.20}};
  }
  if (name == "ties") {
    // Nearly every sample is the goal, so the tree grows along the line
    // y = 0.5 in exact binary steps of 1/8: every neighbor on the line
    // offers the new node exactly the same cost, and the parent choice
    // rests on the tie rule alone (the nearest node keeps its ties).
    RrtStarConfig ties;
    ties.step_size = 0.125;
    ties.goal_bias = 0.99;
    ties.max_iterations = 200;
    return {sim::World(2.0, 1.5), ties, {0.5, 0.5}, {1.5, 0.5}};
  }
  if (name == "goal") {
    // Half the samples are the goal: once a node lands on it, the planner
    // skips every later goal sample without a nearest query.
    RrtStarConfig goal;
    goal.goal_bias = 0.5;
    goal.max_iterations = 1500;
    return {arena(), goal, {0.35, 0.30}, {1.60, 1.20}};
  }
  if (name == "blocked") {
    // A 5 x 4 lattice of pillars leaves streets 0.08 wide for the robot's
    // centre, so about two thirds of the samples are in collision, most
    // within a step of a node in a street: the planner rejects those
    // before the nearest query. Steered points land beside pillars and in
    // the arena's wall margin, which only their own free test catches.
    std::vector<geom::Aabb> pillars;
    for (int i = 0; i < 5; ++i) {
      for (int j = 0; j < 4; ++j) {
        pillars.push_back({{0.06 + 0.4 * i, 0.06 + 0.4 * j},
                           {0.34 + 0.4 * i, 0.34 + 0.4 * j}});
      }
    }
    RrtStarConfig blocked;
    blocked.robot_radius = 0.02;
    blocked.step_size = 0.2;
    blocked.max_iterations = 2000;
    return {sim::World(2.0, 1.6, pillars), blocked, {0.4, 0.4}, {1.6, 1.2}};
  }
  // Every node is every other node's neighbor: the radius exceeds the
  // 2.5 m arena diagonal.
  RrtStarConfig wide;
  wide.rewire_radius = 2.6;
  wide.max_iterations = 1500;
  return {arena(), wide, {0.35, 0.30}, {1.60, 1.20}};
}

// (config, first seed): each config's 64 seeds run as two blocks of 32, so
// ctest can spread the quadratic oracle over its workers.
constexpr std::uint64_t kSeedBlock = 32;
class RrtStarOracle : public ::testing::TestWithParam<
                          std::tuple<std::string, std::uint64_t>> {};

// Paths, costs and the post-plan generator state are bitwise equal to the
// linear scan's, so every mission flown from the plan is too.
TEST_P(RrtStarOracle, PlansAreBitIdenticalToTheLinearScan) {
  const auto& [name, first_seed] = GetParam();
  const PlanCase c = plan_case(name);
  const RrtStar planner(c.world, c.config);
  std::size_t found = 0;
  for (std::uint64_t seed = first_seed; seed < first_seed + kSeedBlock;
       ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng expected_rng(seed), actual_rng(seed);
    const auto expected =
        linear_scan_plan(c.world, c.config, c.start, c.goal, expected_rng);
    const auto actual = planner.plan(c.start, c.goal, actual_rng);
    EXPECT_TRUE(expected_rng.engine() == actual_rng.engine());
    ASSERT_EQ(expected.has_value(), actual.has_value());
    if (!expected) continue;
    ++found;
    EXPECT_EQ(bits(expected->cost), bits(actual->cost));
    ASSERT_EQ(expected->waypoints.size(), actual->waypoints.size());
    for (std::size_t i = 0; i < expected->waypoints.size(); ++i) {
      EXPECT_EQ(bits(expected->waypoints[i].x), bits(actual->waypoints[i].x));
      EXPECT_EQ(bits(expected->waypoints[i].y), bits(actual->waypoints[i].y));
    }
  }
  EXPECT_GE(found, kSeedBlock - 2) << "the configs are meant to be solvable";
}

INSTANTIATE_TEST_SUITE_P(
    Configs, RrtStarOracle,
    ::testing::Combine(::testing::Values("khepera", "tamiya", "default",
                                         "open", "wide", "ties", "goal",
                                         "blocked"),
                       ::testing::Values(1, 1 + kSeedBlock)),
    [](const auto& info) {
      const std::uint64_t first = std::get<1>(info.param);
      return std::get<0>(info.param) + "_seeds" + std::to_string(first) +
             "to" + std::to_string(first + kSeedBlock - 1);
    });

using Grid = detail::NodeGrid;

struct GridNode {
  geom::Vec2 position;
  double cost;
};

Grid grid_of(const std::vector<GridNode>& nodes, double width, double height,
             double cell) {
  Grid grid(width, height, cell);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    grid.insert(i, nodes[i].position, nodes[i].cost);
  }
  return grid;
}

// NodeGrid::near() as the planner used it before the candidate scans, kept
// as the oracle of their membership and bound: a node is a neighbor when
// geom::distance <= radius, settled by the squared distance when clear of
// r^2 by a relative 1e-9; its bound is the exact distance when that was
// needed, else sqrt(d2) shrunk by a relative 1e-12.
std::optional<double> near_bound(const geom::Vec2& p, const geom::Vec2& q,
                                 double radius) {
  const double r2 = radius * radius;
  const double d2 = (p - q).norm_squared();
  if (d2 > r2 * (1.0 + 1e-9)) return std::nullopt;
  if (d2 < r2 * (1.0 - 1e-9)) return std::sqrt(d2) * (1.0 - 1e-12);
  const double d = geom::distance(p, q);
  if (d > radius) return std::nullopt;
  return d;
}

enum class Pass { kParent, kRewire };

// Every node of the old near set that the pass's bound test kept, by a
// linear scan: the parent pass skipped a neighbor when
// its cost + bound > the best cost, the rewire pass when
// the new cost + bound + 1e-12 >= the neighbor's cost.
std::vector<std::size_t> linear_candidates(const std::vector<GridNode>& nodes,
                                           const geom::Vec2& q, double radius,
                                           double cost, Pass pass) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const std::optional<double> bound =
        near_bound(nodes[i].position, q, radius);
    if (!bound) continue;
    const bool skip = pass == Pass::kParent
                          ? nodes[i].cost + *bound > cost
                          : cost + *bound + 1e-12 >= nodes[i].cost;
    if (!skip) out.push_back(i);
  }
  return out;
}

// The nodes a candidate scan visits, sorted; every visit carries the exact
// distance.
std::vector<std::size_t> scanned(Grid& grid, const geom::Vec2& q,
                                 double radius, double cost, Pass pass) {
  std::vector<std::size_t> out;
  const auto visit = [&](const Grid::Entry& e, double d) {
    EXPECT_EQ(bits(d), bits(geom::distance(e.position, q)));
    out.push_back(e.index);
  };
  if (pass == Pass::kParent) {
    grid.parent_candidates(q, radius, cost, visit);
  } else {
    grid.rewire_candidates(q, radius, cost, visit);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Pass costs at which some node within the radius sits exactly on its bound
// test's threshold, and one ulp either side, so the scans' margins are
// tested where a lost candidate would show.
std::vector<double> threshold_costs(const std::vector<GridNode>& nodes,
                                    const geom::Vec2& q, double radius,
                                    Pass pass) {
  std::vector<double> costs;
  for (const GridNode& n : nodes) {
    const std::optional<double> bound = near_bound(n.position, q, radius);
    if (!bound) continue;
    // Parent: n.cost + bound <= cost. Rewire: the largest cost whose
    // cost + bound + 1e-12 stays below n.cost, found by stepping down.
    const double up = std::numeric_limits<double>::infinity();
    double c = n.cost + *bound;
    if (pass == Pass::kRewire) {
      c = n.cost - *bound - 1e-12;
      while (c + *bound + 1e-12 >= n.cost) c = std::nextafter(c, -up);
      while (std::nextafter(c, up) + *bound + 1e-12 < n.cost) {
        c = std::nextafter(c, up);
      }
    }
    costs.insert(costs.end(),
                 {std::nextafter(c, -up), c, std::nextafter(c, up)});
    if (costs.size() >= 12) break;
  }
  return costs;
}

void expect_scans_match(Grid& grid, const std::vector<GridNode>& nodes,
                        const geom::Vec2& q, double radius,
                        const std::vector<double>& extra_costs = {}) {
  for (const Pass pass : {Pass::kParent, Pass::kRewire}) {
    std::vector<double> costs = threshold_costs(nodes, q, radius, pass);
    costs.insert(costs.end(), extra_costs.begin(), extra_costs.end());
    for (const double cost : costs) {
      EXPECT_EQ(scanned(grid, q, radius, cost, pass),
                linear_candidates(nodes, q, radius, cost, pass))
          << (pass == Pass::kParent ? "parent" : "rewire") << " q=" << q.x
          << "," << q.y << " r=" << radius << " cost=" << cost;
    }
  }
}

// NodeGrid::any_within against a scan over every node, at each node's own
// distance sqrt(d2) and one ulp either side of it, where a lost or extra
// node would show, and at `radii`.
void expect_any_within_matches(const Grid& grid,
                               const std::vector<GridNode>& nodes,
                               const geom::Vec2& q,
                               const std::vector<double>& radii = {}) {
  std::vector<double> rs = radii;
  for (const GridNode& n : nodes) {
    const double d = std::sqrt((n.position - q).norm_squared());
    const double up = std::numeric_limits<double>::infinity();
    rs.insert(rs.end(), {std::nextafter(d, -up), d, std::nextafter(d, up)});
    if (rs.size() >= radii.size() + 12) break;
  }
  for (const double r : rs) {
    if (!(r > 0.0)) continue;
    bool expected = false;
    for (const GridNode& n : nodes) {
      expected = expected || std::sqrt((n.position - q).norm_squared()) <= r;
    }
    EXPECT_EQ(grid.any_within(q, r), expected)
        << "q=" << q.x << "," << q.y << " r=" << r;
  }
}

TEST(NodeGrid, EquidistantNodesGoToTheLowestIndex) {
  Grid grid(2.0, 1.5, 0.25);
  // Four nodes 0.25 from q, in four different cells, lowest index third.
  grid.insert(7, {1.25, 0.75}, 0.7);
  grid.insert(5, {1.0, 1.0}, 0.5);
  grid.insert(3, {0.75, 0.75}, 0.3);
  grid.insert(4, {1.0, 0.5}, 0.4);
  const Grid::Nearest nn = grid.nearest({1.0, 0.75});
  EXPECT_EQ(nn.index, 3u);
  EXPECT_EQ(nn.cost, 0.3);
  EXPECT_EQ(nn.d2, 0.0625);
}

TEST(NodeGrid, TieAcrossACellBoundaryIsNotCutOffByTheRingBound) {
  // q sits mid-cell; one node in its own cell and one exactly on the next
  // cell's boundary are both 0.125 away — exactly the ring-0 bound. The
  // search must look past ring 0 and let the lower index win.
  for (const bool boundary_node_lower : {true, false}) {
    Grid grid(2.0, 1.5, 0.25);
    const std::size_t inner = boundary_node_lower ? 9 : 2;
    const std::size_t boundary = boundary_node_lower ? 2 : 9;
    grid.insert(inner, {1.0, 0.625}, 0.0);
    grid.insert(boundary, {1.25, 0.625}, 0.0);
    EXPECT_EQ(grid.nearest({1.125, 0.625}).index, 2u);
  }
}

TEST(NodeGrid, NodeExactlyAtTheRadiusIsANeighbor) {
  const double radius = 0.625;
  const geom::Vec2 q{1.0, 0.5};
  const std::vector<GridNode> nodes = {
      {{1.375, 1.0}, 0.0},  // (0.375, 0.5): a 3-4-5 triangle
      {{std::nextafter(1.375, 2.0), 1.0}, 0.0},
      {{0.375, 0.5}, 0.0},  // on the axis, exactly the radius
      {{1.0, 1.125}, 0.0},
      {{1.0, std::nextafter(1.125, 2.0)}, 0.0},
  };
  Grid grid = grid_of(nodes, 2.0, 1.5, radius / 2.0);
  // A parent cost of 1 keeps every neighbor; the rewire pass at cost 0
  // keeps none of these cost-0 nodes.
  EXPECT_EQ(scanned(grid, q, radius, 1.0, Pass::kParent),
            (std::vector<std::size_t>{0, 2, 3}));
  EXPECT_TRUE(scanned(grid, q, radius, 0.0, Pass::kRewire).empty());
  // On the boundary the bound is the exact distance, the radius itself:
  // a parent cost of exactly the radius still keeps all three.
  EXPECT_EQ(scanned(grid, q, radius, radius, Pass::kParent),
            (std::vector<std::size_t>{0, 2, 3}));
  EXPECT_TRUE(
      scanned(grid, q, radius, std::nextafter(radius, 0.0), Pass::kParent)
          .empty());
  expect_scans_match(grid, nodes, q, radius);
  // A node exactly at the radius is within it, one ulp closer is not.
  EXPECT_TRUE(grid.any_within(q, radius));
  EXPECT_FALSE(grid.any_within(q, std::nextafter(radius, 0.0)));
  for (const GridNode& n : nodes) {
    expect_any_within_matches(grid_of({n}, 2.0, 1.5, radius / 2.0), {n}, q);
  }
}

TEST(NodeGrid, EqualCostsOnExactBinaryStepsMatchALinearScan) {
  // Nodes on a lattice of exact eighths, all of cost 0.5: every distance
  // to a lattice query is exact, and many nodes tie on each threshold.
  std::vector<GridNode> nodes;
  for (int i = 0; i <= 16; ++i) {
    for (int j = 0; j <= 12; ++j) nodes.push_back({{i / 8.0, j / 8.0}, 0.5});
  }
  Grid grid = grid_of(nodes, 2.0, 1.5, 0.2);
  for (const geom::Vec2 q : {geom::Vec2{1.0, 0.75}, geom::Vec2{0.0, 0.0},
                             geom::Vec2{0.4, 0.6}, geom::Vec2{2.0, 1.5}}) {
    expect_scans_match(grid, nodes, q, 0.4,
                       {0.5, 0.625, 0.75, 0.875, 0.9, 0.25, 0.375, 0.0});
  }
}

TEST(NodeGrid, BoundariesEdgesAndCornersMatchALinearScan) {
  const double width = 2.0, height = 1.5, cell = 0.2;
  std::vector<GridNode> nodes;
  // Every cell corner (which includes the arena's corners and edges, and
  // the partial last row at y = 1.5), then random points; costs grow with
  // the distance from the origin, as path costs roughly do.
  Rng rng(5);
  for (int i = 0; i <= 10; ++i) {
    for (int j = 0; j <= 8; ++j) {
      const geom::Vec2 p{std::min(i * cell, width), std::min(j * cell, height)};
      nodes.push_back({p, p.norm() * rng.uniform(1.0, 1.5)});
    }
  }
  for (int k = 0; k < 300; ++k) {
    const geom::Vec2 p{rng.uniform(0.0, width), rng.uniform(0.0, height)};
    nodes.push_back({p, p.norm() * rng.uniform(1.0, 1.5)});
  }
  Grid grid = grid_of(nodes, width, height, cell);

  std::vector<geom::Vec2> queries;
  for (const GridNode& n : nodes) queries.push_back(n.position);
  for (int k = 0; k < 300; ++k) {
    queries.push_back({rng.uniform(-0.1, width + 0.1),
                       rng.uniform(-0.1, height + 0.1)});
  }
  for (const geom::Vec2& q : queries) {
    Grid::Nearest expected;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const double d2 = (nodes[i].position - q).norm_squared();
      if (d2 < expected.d2) expected = {i, d2};
    }
    const Grid::Nearest actual = grid.nearest(q);
    EXPECT_EQ(actual.index, expected.index) << q.x << "," << q.y;
    EXPECT_EQ(bits(actual.d2), bits(expected.d2));
    EXPECT_EQ(actual.cost, nodes[actual.index].cost);

    for (const double radius : {0.2, 0.4, 0.45}) {
      expect_scans_match(grid, nodes, q, radius, {0.0, 1.0, 4.0});
    }
    // Around the nearest node's own distance, and radii reaching across
    // cell boundaries.
    const double d = std::sqrt(actual.d2);
    expect_any_within_matches(grid, nodes, q,
                              {d, std::nextafter(d, 0.0),
                               std::nextafter(d, 1.0), 0.01, 0.15, 0.2});
  }
}

TEST(NodeGrid, RewiresLowerTheCellCostFloor) {
  // Node 0 sits alone in its cell at cost 5. A parent pass at cost 2 from
  // q, 0.3 away in another cell, skips it; once a rewire through a cheap
  // node lowers its cost, the same pass must find it, so the cell's cost
  // floor has to follow the rewire.
  std::vector<GridNode> nodes = {{{1.1, 0.7}, 5.0}};
  Grid grid = grid_of(nodes, 2.0, 1.5, 0.2);
  const geom::Vec2 q{0.8, 0.7};
  EXPECT_TRUE(scanned(grid, q, 0.4, 2.0, Pass::kParent).empty());

  const geom::Vec2 cheap{1.1, 0.5};
  const double cheap_cost = 0.25;
  std::vector<std::size_t> rewired;
  grid.rewire_candidates(cheap, 0.4, cheap_cost,
                         [&](Grid::Entry& e, double d) {
                           rewired.push_back(e.index);
                           e.cost = cheap_cost + d;
                         });
  ASSERT_EQ(rewired, (std::vector<std::size_t>{0}));
  nodes[0].cost = cheap_cost + geom::distance(nodes[0].position, cheap);
  EXPECT_EQ(scanned(grid, q, 0.4, 2.0, Pass::kParent),
            (std::vector<std::size_t>{0}));
  expect_scans_match(grid, nodes, q, 0.4);
}

TEST(NodeGrid, RandomTreesWithRewiresMatchALinearScan) {
  // Planner-like traffic: random nodes join with costs near their distance
  // from a root, and each rewire pass lowers the costs it visits, as the
  // planner does; the scans must keep matching the linear scan.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    const double radius = 0.4;
    std::vector<GridNode> nodes = {{{0.3, 0.3}, 0.0}};
    Grid grid = grid_of(nodes, 2.0, 1.5, radius / 2.0);
    for (std::size_t n = 1; n < 600; ++n) {
      const geom::Vec2 q{rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.5)};
      const double cost = geom::distance(q, nodes[0].position) *
                          rng.uniform(1.0, 1.3);
      if (n % 37 == 0) expect_scans_match(grid, nodes, q, radius, {cost});
      grid.rewire_candidates(q, radius, cost, [&](Grid::Entry& e, double d) {
        const double through = cost + d;
        if (through + 1e-12 < e.cost) {
          e.cost = through;
          nodes[e.index].cost = through;
        }
      });
      grid.insert(n, q, cost);
      nodes.push_back({q, cost});
    }
  }
}

TEST(NodeGrid, FineCellsAreCoarsenedWithoutChangingAnswers) {
  // 1e8 cells would be requested; the grid caps its size and stays exact.
  const std::vector<GridNode> nodes = {{{0.0, 0.0}, 0.0},
                                       {{50.0, 50.0}, 0.0},
                                       {{100.0, 100.0}, 0.0},
                                       {{49.99, 50.01}, 0.0}};
  Grid grid = grid_of(nodes, 100.0, 100.0, 0.01);
  EXPECT_EQ(grid.nearest({50.0, 50.0}).index, 1u);
  EXPECT_EQ(grid.nearest({99.0, 98.0}).index, 2u);
  EXPECT_EQ(scanned(grid, {50.0, 50.0}, 0.1, 1.0, Pass::kParent),
            (std::vector<std::size_t>{1, 3}));
}

// FreeSpace must answer exactly as World does, including where
// segments_intersect's absolute 1e-15 slack reaches past the box.
void expect_free_space_matches(const sim::World& world, double radius,
                               const std::vector<geom::Vec2>& points) {
  const detail::FreeSpace space(world, radius);
  std::size_t blocked = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const geom::Vec2& a = points[i];
    ASSERT_EQ(space.free(a), world.free(a, radius)) << a.x << "," << a.y;
    for (std::size_t j = i; j < points.size(); j += 7) {
      const geom::Vec2& b = points[j];
      const bool expected = world.segment_free(a, b, radius);
      blocked += expected ? 0 : 1;
      ASSERT_EQ(space.segment_free(a, b), expected)
          << "(" << a.x << "," << a.y << ") -> (" << b.x << "," << b.y
          << ") radius " << radius;
      ASSERT_EQ(space.segment_free(b, a), world.segment_free(b, a, radius));
      // Between free endpoints the obstacle tests alone decide.
      if (world.free(a, radius) && world.free(b, radius)) {
        ASSERT_EQ(space.segment_clear(a, b), expected)
            << "(" << a.x << "," << a.y << ") -> (" << b.x << "," << b.y
            << ") radius " << radius;
        ASSERT_EQ(space.segment_clear(b, a), world.segment_free(b, a, radius));
      }
    }
  }
  EXPECT_GT(blocked, 0u);
}

// Points that stress the prefilter: the inflated boxes' corners and edge
// lines, 1e-16 to 1e-12 either side of them, and random points.
std::vector<geom::Vec2> collision_points(const sim::World& world,
                                         double radius) {
  std::vector<double> xs = {0.0, radius, world.width() - radius,
                            world.width()};
  std::vector<double> ys = {0.0, radius, world.height() - radius,
                            world.height()};
  for (const geom::Aabb& o : world.obstacles()) {
    const geom::Aabb box = o.inflated(radius);
    for (const double offset : {0.0, 1e-16, -1e-16, 5e-16, -5e-16, 1e-15,
                                -1e-15, 3e-15, -3e-15, 1e-12, -1e-12}) {
      xs.push_back(box.min.x + offset);
      xs.push_back(box.max.x + offset);
      ys.push_back(box.min.y + offset);
      ys.push_back(box.max.y + offset);
    }
  }
  std::vector<geom::Vec2> points;
  for (const double x : xs) {
    for (const double y : ys) points.push_back({x, y});
  }
  Rng rng(29);
  for (int i = 0; i < 400; ++i) {
    points.push_back({rng.uniform(-0.1, world.width() + 0.1),
                      rng.uniform(-0.1, world.height() + 0.1)});
  }
  return points;
}

TEST(FreeSpace, MatchesWorldOnRandomTouchingAndDegenerateSegments) {
  const eval::KheperaPlatform khepera;
  const double khepera_radius = khepera.planner_config().robot_radius;
  expect_free_space_matches(khepera.world(), khepera_radius,
                            collision_points(khepera.world(), khepera_radius));
  const sim::World two(2.0, 1.5, {geom::Aabb{{0.3, 0.3}, {0.6, 0.5}},
                                  geom::Aabb{{1.2, 0.9}, {1.2, 1.4}}});
  for (const double radius : {0.0, 0.06}) {
    expect_free_space_matches(two, radius, collision_points(two, radius));
  }
}

TEST(FreeSpace, NearlyParallelSegmentsBeyondTheBoxMatchWorld) {
  // segments_intersect counts a segment that crosses an edge's line within
  // its 1e-15 slack as touching the edge, centimeters past the box. A
  // bounding-box reject would call these free; World does not.
  const sim::World world(2.0, 1.5, {geom::Aabb{{0.85, 0.55}, {1.15, 0.85}}});
  const double radius = 0.2;
  const detail::FreeSpace space(world, radius);
  const double edge_y = 0.55 - radius;
  std::size_t blocked = 0;
  for (const double gap : {0.01, 0.05, 0.1, 0.2, 0.3}) {
    for (const double tilt : {1e-15, 3e-15, 1e-14, 1e-13}) {
      const double x1 = 0.65 - gap;
      const geom::Vec2 a{x1 - 0.1, edge_y - tilt};
      const geom::Vec2 b{x1, edge_y + tilt};
      const bool expected = world.segment_free(a, b, radius);
      blocked += expected ? 0 : 1;
      EXPECT_EQ(space.segment_free(a, b), expected) << gap << " " << tilt;
      EXPECT_EQ(space.segment_clear(a, b), expected) << gap << " " << tilt;
    }
  }
  EXPECT_GT(blocked, 0u) << "the case this test pins no longer arises";
}

bool path_collision_free(const sim::World& world, const PlannedPath& path,
                         double radius) {
  for (std::size_t i = 1; i < path.waypoints.size(); ++i) {
    if (!world.segment_free(path.waypoints[i - 1], path.waypoints[i], radius))
      return false;
  }
  return true;
}

TEST(RrtStar, RejectsBadConfigAndEndpoints) {
  const sim::World world = arena();
  RrtStarConfig cfg;
  cfg.step_size = 0.0;
  EXPECT_THROW(RrtStar(world, cfg), CheckError);
  RrtStar planner(world);
  Rng rng(1);
  EXPECT_THROW(planner.plan({1.0, 0.7}, {1.6, 1.2}, rng), CheckError);
  EXPECT_THROW(planner.plan({0.3, 0.3}, {1.0, 0.7}, rng), CheckError);
}

TEST(RrtStar, FindsCollisionFreePathAroundObstacle) {
  const sim::World world = arena();
  RrtStar planner(world);
  Rng rng(42);
  const geom::Vec2 start{0.35, 0.30};
  const geom::Vec2 goal{1.60, 1.20};
  const auto path = planner.plan(start, goal, rng);
  ASSERT_TRUE(path.has_value());
  ASSERT_GE(path->waypoints.size(), 2u);
  EXPECT_EQ(path->waypoints.front(), start);
  EXPECT_EQ(path->waypoints.back(), goal);
  EXPECT_TRUE(path_collision_free(world, *path, RrtStarConfig{}.robot_radius));
  // Path cost is consistent with the waypoints and at least the straight-
  // line distance (which is blocked here).
  EXPECT_NEAR(path->cost, path->length(), 1e-9);
  EXPECT_GE(path->length(), geom::distance(start, goal) - 1e-9);
}

TEST(RrtStar, SmoothingShortensWithoutCollisions) {
  const sim::World world = arena();
  RrtStar planner(world);
  Rng rng(7);
  const auto path = planner.plan({0.35, 0.30}, {1.60, 1.20}, rng);
  ASSERT_TRUE(path.has_value());
  const PlannedPath smoothed = planner.smooth(*path, rng);
  EXPECT_LE(smoothed.length(), path->length() + 1e-9);
  EXPECT_TRUE(
      path_collision_free(world, smoothed, RrtStarConfig{}.robot_radius));
  EXPECT_EQ(smoothed.waypoints.front(), path->waypoints.front());
  EXPECT_EQ(smoothed.waypoints.back(), path->waypoints.back());
}

TEST(RrtStar, DeterministicPerSeed) {
  const sim::World world = arena();
  RrtStar planner(world);
  Rng a(9), b(9);
  const auto pa = planner.plan({0.35, 0.30}, {1.60, 1.20}, a);
  const auto pb = planner.plan({0.35, 0.30}, {1.60, 1.20}, b);
  ASSERT_TRUE(pa && pb);
  ASSERT_EQ(pa->waypoints.size(), pb->waypoints.size());
  for (std::size_t i = 0; i < pa->waypoints.size(); ++i)
    EXPECT_EQ(pa->waypoints[i], pb->waypoints[i]);
}

TEST(Pid, ProportionalAndClampedIntegral) {
  Pid pid(2.0, 1.0, 0.0, 0.1, 0.5);
  // First update: P + I only (no derivative history).
  EXPECT_NEAR(pid.update(1.0), 2.0 + 0.1, 1e-12);
  // Integral clamps at the limit under persistent error.
  double out = 0.0;
  for (int i = 0; i < 100; ++i) out = pid.update(1.0);
  EXPECT_NEAR(out, 2.0 + 0.5, 1e-12);
  pid.reset();
  EXPECT_NEAR(pid.update(0.0), 0.0, 1e-12);
  EXPECT_THROW(Pid(1.0, 0.0, 0.0, 0.0, 1.0), CheckError);
}

TEST(Pid, DerivativeKicksOnErrorChange) {
  Pid pid(0.0, 0.0, 1.0, 0.5, 1.0);
  EXPECT_NEAR(pid.update(1.0), 0.0, 1e-12);  // no previous error yet
  EXPECT_NEAR(pid.update(2.0), 2.0, 1e-12);  // (2-1)/0.5
}

TEST(DiffDriveTracker, DrivesTheModelToTheGoal) {
  const sim::World world = arena();
  RrtStar planner(world);
  Rng rng(11);
  const auto path = planner.plan({0.35, 0.30}, {1.60, 1.20}, rng);
  ASSERT_TRUE(path.has_value());

  dyn::DiffDrive model({.axle_length = 0.089, .dt = 0.1});
  DiffDrivePathTracker tracker(planner.smooth(*path, rng), model.dt());

  Vector pose{0.35, 0.30, 0.6};
  bool reached = false;
  for (int k = 0; k < 1200 && !reached; ++k) {
    const Vector u = tracker.control(pose);
    EXPECT_LE(std::abs(u[0]), DiffDriveTrackerConfig{}.max_wheel_speed + 1e-9);
    EXPECT_LE(std::abs(u[1]), DiffDriveTrackerConfig{}.max_wheel_speed + 1e-9);
    pose = model.step(pose, u);
    reached = tracker.reached(pose);
    ASSERT_TRUE(world.free({pose[0], pose[1]}))
        << "collision at iteration " << k;
  }
  EXPECT_TRUE(reached);
  EXPECT_NEAR(pose[0], 1.60, 0.1);
  EXPECT_NEAR(pose[1], 1.20, 0.1);
}

TEST(DiffDriveTracker, StopsAtGoal) {
  PlannedPath path;
  path.waypoints = {{0.0, 0.0}, {1.0, 0.0}};
  DiffDrivePathTracker tracker(path, 0.1);
  const Vector u = tracker.control(Vector{1.0, 0.0, 0.0});
  EXPECT_EQ(u, (Vector{0.0, 0.0}));
  EXPECT_TRUE(tracker.reached(Vector{1.0, 0.0, 0.0}));
}

TEST(BicycleTracker, DrivesTheCarToTheGoal) {
  const sim::World world(8.0, 6.0, {geom::Aabb{{3.2, 2.2}, {4.4, 3.4}}});
  RrtStarConfig rrt_cfg;
  rrt_cfg.step_size = 0.5;
  rrt_cfg.rewire_radius = 1.2;
  rrt_cfg.goal_radius = 0.3;
  rrt_cfg.robot_radius = 0.2;
  RrtStar planner(world, rrt_cfg);
  Rng rng(23);
  const auto path = planner.plan({1.0, 1.0}, {6.8, 4.8}, rng);
  ASSERT_TRUE(path.has_value());

  dyn::KinematicBicycle model;
  BicyclePathTracker tracker(planner.smooth(*path, rng), model.dt());

  Vector pose{1.0, 1.0, 0.5};
  bool reached = false;
  for (int k = 0; k < 1500 && !reached; ++k) {
    const Vector u = tracker.control(pose);
    EXPECT_LE(std::abs(u[1]), BicycleTrackerConfig{}.max_steer + 1e-9);
    EXPECT_GE(u[0], 0.0);
    EXPECT_LE(u[0], BicycleTrackerConfig{}.cruise_speed + 1e-9);
    pose = model.step(pose, u);
    reached = tracker.reached(pose);
  }
  EXPECT_TRUE(reached);
}

TEST(BicycleTracker, StopsAtGoal) {
  PlannedPath path;
  path.waypoints = {{0.0, 0.0}, {1.0, 0.0}};
  BicyclePathTracker tracker(path, 0.1);
  EXPECT_EQ(tracker.control(Vector{1.0, 0.0, 0.0}), (Vector{0.0, 0.0}));
}

TEST(WaypointFollower, AdvancesThroughWaypoints) {
  PlannedPath path;
  path.waypoints = {{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}};
  WaypointFollower follower(path, 0.3, 0.1);
  // Far from the first waypoint: carrot is waypoint 1.
  EXPECT_EQ(follower.carrot({0.0, 0.0}), (geom::Vec2{1.0, 0.0}));
  // Within lookahead of waypoint 1: advances to the final waypoint.
  EXPECT_EQ(follower.carrot({0.85, 0.0}), (geom::Vec2{2.0, 0.0}));
  EXPECT_FALSE(follower.reached({1.0, 0.0}));
  EXPECT_TRUE(follower.reached({1.95, 0.0}));
  PlannedPath degenerate;
  degenerate.waypoints = {{0.0, 0.0}};
  EXPECT_THROW(WaypointFollower(degenerate, 0.3, 0.1), CheckError);
}

}  // namespace
}  // namespace roboads::planning

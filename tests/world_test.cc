#include "sim/world.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "random/rng.h"

namespace roboads::sim {
namespace {

World arena() {
  return World(2.0, 1.5, {geom::Aabb{{0.8, 0.6}, {1.2, 0.9}}});
}

TEST(World, RejectsInvalidConstruction) {
  EXPECT_THROW(World(0.0, 1.0), CheckError);
  EXPECT_THROW(World(2.0, 1.5, {geom::Aabb{{1.5, 0.5}, {2.5, 0.9}}}),
               CheckError);
}

TEST(World, FreeSpaceQueries) {
  const World w = arena();
  EXPECT_TRUE(w.free({0.3, 0.3}));
  EXPECT_FALSE(w.free({1.0, 0.7}));   // inside the obstacle
  EXPECT_FALSE(w.free({-0.1, 0.5}));  // outside the arena
  EXPECT_FALSE(w.free({2.1, 0.5}));
  // Radius padding shrinks free space near walls and obstacles.
  EXPECT_TRUE(w.free({0.05, 0.05}));
  EXPECT_FALSE(w.free({0.05, 0.05}, 0.1));
  EXPECT_TRUE(w.free({0.7, 0.5}));
  EXPECT_FALSE(w.free({0.75, 0.55}, 0.1));
}

TEST(World, SegmentQueries) {
  const World w = arena();
  EXPECT_TRUE(w.segment_free({0.2, 0.2}, {0.6, 1.2}));
  // Straight through the obstacle.
  EXPECT_FALSE(w.segment_free({0.5, 0.75}, {1.5, 0.75}));
  // Endpoint out of the arena.
  EXPECT_FALSE(w.segment_free({0.5, 0.5}, {2.5, 0.5}));
}

TEST(World, RaycastHitsWalls) {
  const World w = arena();
  EXPECT_NEAR(w.raycast({0.5, 0.5}, M_PI, 10.0), 0.5, 1e-9);       // west
  EXPECT_NEAR(w.raycast({0.5, 0.5}, -M_PI / 2.0, 10.0), 0.5, 1e-9);  // south
  EXPECT_NEAR(w.raycast({0.5, 0.5}, M_PI / 2.0, 10.0), 1.0, 1e-9);   // north
  EXPECT_NEAR(w.raycast({0.5, 0.25}, 0.0, 10.0), 1.5, 1e-9);         // east
}

TEST(World, RaycastHitsObstacleBeforeWall) {
  const World w = arena();
  // Ray from the west toward the east wall at obstacle height.
  EXPECT_NEAR(w.raycast({0.5, 0.75}, 0.0, 10.0), 0.3, 1e-9);
}

TEST(World, RaycastClipsAtMaxRange) {
  const World w = arena();
  EXPECT_DOUBLE_EQ(w.raycast({0.5, 0.25}, 0.0, 0.7), 0.7);
  EXPECT_THROW(w.raycast({0.5, 0.25}, 0.0, 0.0), CheckError);
}

TEST(World, WallsAreClosedRectangle) {
  const World w = arena();
  ASSERT_EQ(w.walls().size(), 4u);
  double perimeter = 0.0;
  for (const geom::Segment& s : w.walls()) perimeter += s.length();
  EXPECT_NEAR(perimeter, 2.0 * (2.0 + 1.5), 1e-12);
}

// The ray cast as it was before the flat segment array, kept as the oracle
// World::raycast and every beam of the batched scan must match bit for bit:
// every segment in order through geom::ray_segment_intersection.
double per_segment_raycast(const std::vector<geom::Segment>& segments,
                           const geom::Vec2& origin, double angle,
                           double max_range) {
  const geom::Vec2 dir{std::cos(angle), std::sin(angle)};
  double best = max_range;
  for (const geom::Segment& s : segments) {
    if (const auto t = geom::ray_segment_intersection(origin, dir, s)) {
      best = std::min(best, *t);
    }
  }
  return best;
}

// Every wall, then every obstacle's edges.
std::vector<geom::Segment> segments_of(const World& w) {
  std::vector<geom::Segment> segments = w.walls();
  for (const geom::Aabb& o : w.obstacles()) {
    for (const geom::Segment& e : o.edges()) segments.push_back(e);
  }
  return segments;
}

double per_segment_raycast(const World& w, const geom::Vec2& origin,
                           double angle, double max_range) {
  return per_segment_raycast(segments_of(w), origin, angle, max_range);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_raycast_matches(const World& w, const geom::Vec2& origin,
                            double angle, double max_range) {
  EXPECT_EQ(bits(w.raycast(origin, angle, max_range)),
            bits(per_segment_raycast(w, origin, angle, max_range)))
      << "origin (" << origin.x << ", " << origin.y << ") angle " << angle
      << " max " << max_range;
}

// The 81 beam angles of the default LiDAR (240° field of view).
std::vector<double> lidar_beams() {
  std::vector<double> beams;
  for (int i = 0; i < 81; ++i) {
    beams.push_back((i / 80.0 - 0.5) * 4.0 * M_PI / 3.0);
  }
  return beams;
}

// The ranges of one batched scan equal the per-segment loop over
// `segments` on every beam.
void expect_beams_match(const std::vector<double>& ranges,
                        const std::vector<geom::Segment>& segments,
                        const geom::Vec2& origin, double heading,
                        const std::vector<double>& beams, double max_range) {
  ASSERT_EQ(ranges.size(), beams.size());
  for (std::size_t i = 0; i < beams.size(); ++i) {
    EXPECT_EQ(bits(ranges[i]),
              bits(per_segment_raycast(segments, origin, heading + beams[i],
                                       max_range)))
        << segments.size() << " targets, origin (" << origin.x << ", "
        << origin.y << ") heading " << heading << " beam " << beams[i]
        << " max " << max_range;
  }
}

void expect_scan_matches(const RayTargets& targets,
                         const std::vector<geom::Segment>& segments,
                         const geom::Vec2& origin, double heading,
                         const std::vector<double>& beams, double max_range) {
  std::vector<double> ranges(beams.size(), -1.0);
  targets.cast(origin, heading, beams, max_range, ranges);
  expect_beams_match(ranges, segments, origin, heading, beams, max_range);
}

void expect_scan_matches(const World& w, const geom::Vec2& origin,
                         double heading, const std::vector<double>& beams,
                         double max_range) {
  std::vector<double> ranges(beams.size(), -1.0);
  w.raycast_beams(origin, heading, beams, max_range, ranges);
  expect_beams_match(ranges, segments_of(w), origin, heading, beams,
                     max_range);
}

// Two obstacles, one touching the south wall, so rays can meet edges that
// share a line with a wall.
World cluttered() {
  return World(2.0, 1.5, {geom::Aabb{{0.8, 0.6}, {1.2, 0.9}},
                          geom::Aabb{{1.5, 0.0}, {1.7, 0.25}}});
}

TEST(WorldRaycastOracle, RandomRaysMatchThePerSegmentLoop) {
  Rng rng(17);
  const std::vector<double> beams = lidar_beams();
  for (const World& w : {arena(), cluttered(), World(2.0, 1.5)}) {
    for (int i = 0; i < 4000; ++i) {
      // Origins inside, on and just outside the arena.
      const geom::Vec2 origin{rng.uniform(-0.1, 2.1), rng.uniform(-0.1, 1.6)};
      const double max_range = i % 3 == 0 ? rng.uniform(0.05, 1.0) : 5.0;
      expect_raycast_matches(w, origin, rng.uniform(-4.0, 4.0), max_range);
      // A whole scan, its headings also far outside (-π, π].
      if (i % 10 == 0) {
        const double heading =
            i % 20 == 0 ? rng.uniform(-4.0, 4.0) : rng.uniform(-1e3, 1e3);
        expect_scan_matches(w, origin, heading, beams, max_range);
      }
    }
  }
  // Target counts the world never has, an odd one among them: the last
  // SSE2 lane pair is then half padding.
  const std::vector<geom::Segment> all = segments_of(cluttered());
  for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                              std::size_t{9}, all.size()}) {
    const std::vector<geom::Segment> segments(all.begin(), all.begin() + n);
    const RayTargets targets(segments);
    for (int i = 0; i < 200; ++i) {
      const geom::Vec2 origin{rng.uniform(-0.1, 2.1), rng.uniform(-0.1, 1.6)};
      expect_scan_matches(targets, segments, origin, rng.uniform(-4.0, 4.0),
                          beams, i % 2 == 0 ? 5.0 : rng.uniform(0.05, 1.0));
    }
  }
  // More targets than one hoisted block holds.
  std::vector<geom::Segment> many;
  for (int k = 0; k < 41; ++k) {
    const double x = 0.04 * (k + 1);
    many.push_back({{x, 0.2 + 0.01 * k}, {x + 0.02, 1.3 - 0.01 * k}});
  }
  const RayTargets targets(many);
  for (int i = 0; i < 100; ++i) {
    const geom::Vec2 origin{rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.5)};
    expect_scan_matches(targets, many, origin, rng.uniform(-4.0, 4.0), beams,
                        5.0);
  }
  // A NaN heading or beam hits nothing; a max range shorter than every hit
  // clips every beam; headings outside (-π, π], and -0.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const World& w : {arena(), cluttered()}) {
    expect_scan_matches(w, {0.5, 0.5}, nan, beams, 5.0);
    expect_scan_matches(w, {0.5, 0.5}, 0.3, {nan, 0.0}, 5.0);
    expect_scan_matches(w, {0.5, 0.5}, 0.3, beams, 1e-3);
    for (const double heading : {3.0 * M_PI, -7.5, 1e6, -1e-300, -0.0}) {
      expect_scan_matches(w, {0.4, 1.1}, heading, beams, 5.0);
    }
  }
}

TEST(WorldRaycastOracle, GrazingCornerAndParallelRaysMatch) {
  const World w = cluttered();
  std::vector<geom::Vec2> corners;
  for (const geom::Aabb& o : w.obstacles()) {
    for (const geom::Segment& e : o.edges()) corners.push_back(e.a);
  }
  for (const geom::Segment& s : w.walls()) corners.push_back(s.a);
  Rng rng(23);
  std::vector<geom::Vec2> origins = corners;
  for (int i = 0; i < 40; ++i) {
    origins.push_back({rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.5)});
  }
  // Origins on the wall and edge lines themselves.
  origins.push_back({0.5, 0.0});
  origins.push_back({0.0, 0.75});
  origins.push_back({0.5, 0.6});
  origins.push_back({1.2, 0.3});
  origins.push_back({1.0, 0.6});
  origins.push_back({0.8, 0.75});
  origins.push_back({1.6, 0.0});
  origins.push_back({1.7, 0.1});
  const std::vector<double> beams = lidar_beams();
  const std::vector<double> parallel = {
      0.0,   M_PI / 2.0, M_PI, -M_PI / 2.0, -M_PI, std::nextafter(0.0, 1.0),
      -0.0,  std::nextafter(M_PI, 4.0),      M_PI / 4.0, -3.0 * M_PI / 4.0};
  for (const geom::Vec2& origin : origins) {
    // Exactly at every corner: the ray meets two edges at their shared end.
    for (const geom::Vec2& c : corners) {
      const geom::Vec2 d = c - origin;
      if (d.norm_squared() == 0.0) continue;
      const double at = std::atan2(d.y, d.x);
      expect_raycast_matches(w, origin, at, 5.0);
      expect_raycast_matches(w, origin, std::nextafter(at, 4.0), 5.0);
      expect_raycast_matches(w, origin, std::nextafter(at, -4.0), 5.0);
    }
    // Parallel to every wall and edge, both ways, and a hair off.
    for (const double at : {0.0, -0.0, M_PI / 2.0, M_PI, -M_PI / 2.0, -M_PI}) {
      expect_raycast_matches(w, origin, at, 5.0);
      expect_raycast_matches(w, origin, std::nextafter(at, 4.0), 5.0);
      expect_raycast_matches(w, origin, at + 1e-15, 5.0);
    }
    // The same beams as one batched scan, and the LiDAR's fan: from an
    // origin on a wall or an edge, targets tie at t = ±0 (at (1.6, 0) the
    // south wall and the second obstacle's bottom edge share a line).
    for (const double heading : {0.0, -0.0, M_PI / 2.0, 1.0, -2.5}) {
      expect_scan_matches(w, origin, heading, parallel, 5.0);
      expect_scan_matches(w, origin, heading, beams, 5.0);
    }
  }
}

}  // namespace
}  // namespace roboads::sim

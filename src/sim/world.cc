#include "sim/world.h"

#include <emmintrin.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace roboads::sim {

namespace {

std::vector<geom::Segment> arena_walls(double width, double height) {
  const geom::Vec2 bl{0.0, 0.0};
  const geom::Vec2 br{width, 0.0};
  const geom::Vec2 tr{width, height};
  const geom::Vec2 tl{0.0, height};
  return {{bl, br}, {br, tr}, {tr, tl}, {tl, bl}};
}

std::vector<geom::Segment> ray_segments(
    const std::vector<geom::Segment>& walls,
    const std::vector<geom::Aabb>& obstacles) {
  std::vector<geom::Segment> segments = walls;
  for (const geom::Aabb& o : obstacles) {
    for (const geom::Segment& e : o.edges()) segments.push_back(e);
  }
  return segments;
}

}  // namespace

RayTargets::RayTargets(std::span<const geom::Segment> segments) {
  const std::size_t padded = segments.size() + segments.size() % 2;
  ax_.assign(padded, 0.0);
  ay_.assign(padded, 0.0);
  ex_.assign(padded, 0.0);
  ey_.assign(padded, 0.0);
  for (std::size_t k = 0; k < segments.size(); ++k) {
    const geom::Vec2 e = segments[k].b - segments[k].a;
    ax_[k] = segments[k].a.x;
    ay_[k] = segments[k].a.y;
    ex_[k] = e.x;
    ey_[k] = e.y;
  }
}

// geom::ray_segment_intersection on every target, two targets per SSE2
// lane pair and without a branch, then the std::min fold in target order.
// Per target, with dir = (cos, sin) of the beam's angle and
// diff = a - origin:
//   denom = dir.x e.y - dir.y e.x,  s = (diff.x dir.y - diff.y dir.x) / denom,
//   t = (diff.x e.y - diff.y e.x) / denom,
// each operation the function's own, in its order (no FMA: the build keeps
// -ffp-contract=off). diff and t's numerator depend on the origin only, so
// they are computed once per scan, a block of kBlock targets at a time. A
// lane hits when !(|denom| < 1e-15), !(s < -1e-12), !(s > 1 + 1e-12) and
// t >= 0 — the function's rejections negated, so a NaN fails exactly the
// tests it fails there — and then carries t, sign bit included; a missed
// lane carries +inf, which std::min(best, +inf) ignores.
void RayTargets::cast(const geom::Vec2& origin, double heading,
                      std::span<const double> beam_angles, double max_range,
                      std::span<double> ranges) const {
  ROBOADS_CHECK(max_range > 0.0, "raycast needs positive max range");
  ROBOADS_CHECK_EQ(ranges.size(), beam_angles.size(),
                   "one range per beam angle");
  constexpr std::size_t kBlock = 32;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const __m128d abs_mask =
      _mm_castsi128_pd(_mm_set1_epi64x(0x7fffffffffffffff));
  const __m128d parallel = _mm_set1_pd(1e-15);
  const __m128d s_lo = _mm_set1_pd(-1e-12);
  const __m128d s_hi = _mm_set1_pd(1.0 + 1e-12);
  const __m128d zero = _mm_setzero_pd();
  const __m128d inf = _mm_set1_pd(kInf);

  std::fill(ranges.begin(), ranges.end(), max_range);
  const std::size_t padded = ax_.size();
  for (std::size_t first = 0; first < padded; first += kBlock) {
    const std::size_t count = std::min(kBlock, padded - first);
    alignas(16) std::array<double, kBlock> dx{}, dy{}, num_t{};
    for (std::size_t k = 0; k < count; ++k) {
      const geom::Vec2 diff =
          geom::Vec2{ax_[first + k], ay_[first + k]} - origin;
      dx[k] = diff.x;
      dy[k] = diff.y;
      num_t[k] = diff.cross({ex_[first + k], ey_[first + k]});
    }
    for (std::size_t i = 0; i < beam_angles.size(); ++i) {
      const double angle = heading + beam_angles[i];
      const __m128d dir_x = _mm_set1_pd(std::cos(angle));
      const __m128d dir_y = _mm_set1_pd(std::sin(angle));
      double best = ranges[i];
      for (std::size_t k = 0; k < count; k += 2) {
        const __m128d ex = _mm_loadu_pd(&ex_[first + k]);
        const __m128d ey = _mm_loadu_pd(&ey_[first + k]);
        const __m128d denom =
            _mm_sub_pd(_mm_mul_pd(dir_x, ey), _mm_mul_pd(dir_y, ex));
        const __m128d s = _mm_div_pd(
            _mm_sub_pd(_mm_mul_pd(_mm_load_pd(&dx[k]), dir_y),
                       _mm_mul_pd(_mm_load_pd(&dy[k]), dir_x)),
            denom);
        const __m128d t = _mm_div_pd(_mm_load_pd(&num_t[k]), denom);
        const __m128d miss = _mm_or_pd(
            _mm_cmplt_pd(_mm_and_pd(denom, abs_mask), parallel),
            _mm_or_pd(_mm_cmplt_pd(s, s_lo), _mm_cmpgt_pd(s, s_hi)));
        const __m128d hit = _mm_andnot_pd(miss, _mm_cmpge_pd(t, zero));
        const __m128d cand =
            _mm_or_pd(_mm_and_pd(hit, t), _mm_andnot_pd(hit, inf));
        best = std::min(best, _mm_cvtsd_f64(cand));
        best = std::min(best, _mm_cvtsd_f64(_mm_unpackhi_pd(cand, cand)));
      }
      ranges[i] = best;
    }
  }
}

World::World(double width, double height, std::vector<geom::Aabb> obstacles)
    : width_(width),
      height_(height),
      obstacles_(std::move(obstacles)),
      walls_(arena_walls(width_, height_)),
      ray_targets_(ray_segments(walls_, obstacles_)) {
  ROBOADS_CHECK(width_ > 0.0 && height_ > 0.0, "arena must have positive size");
  for (const geom::Aabb& o : obstacles_) {
    ROBOADS_CHECK(o.min.x >= 0.0 && o.min.y >= 0.0 && o.max.x <= width_ &&
                      o.max.y <= height_,
                  "obstacle outside the arena");
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
  // The one-beam case, beam angle 0. angle + 0.0 is angle but for -0.0,
  // which becomes +0.0, so dir.y is +0.0 where it was -0.0. No result
  // depends on that zero's sign: it only adds a signed zero to a product,
  // and a zero denominator (parallel) or a zero s passes the same tests
  // with either sign.
  const double beam = 0.0;
  double range = 0.0;
  raycast_beams(origin, angle, {&beam, 1}, max_range, {&range, 1});
  return range;
}

void World::raycast_beams(const geom::Vec2& origin, double heading,
                          std::span<const double> beam_angles,
                          double max_range, std::span<double> ranges) const {
  ray_targets_.cast(origin, heading, beam_angles, max_range, ranges);
}

}  // namespace roboads::sim

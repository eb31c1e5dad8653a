#include "sim/lidar.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <span>

#include "geometry/geometry.h"

namespace roboads::sim {

using geom::Vec2;

LidarScanner::LidarScanner(const LidarConfig& config) : config_(config) {
  ROBOADS_CHECK(config_.beam_count >= 2, "lidar needs at least 2 beams");
  ROBOADS_CHECK(config_.fov > 0.0 && config_.fov <= 2.0 * M_PI,
                "lidar FOV must lie in (0, 2π]");
  ROBOADS_CHECK(config_.max_range > 0.0, "lidar max range must be positive");
  ROBOADS_CHECK(config_.range_noise_stddev >= 0.0,
                "lidar noise must be non-negative");
  for (std::size_t i = 0; i < config_.beam_count; ++i) {
    const double frac = static_cast<double>(i) /
                        static_cast<double>(config_.beam_count - 1);
    const double angle = (frac - 0.5) * config_.fov;
    beam_angles_.push_back(angle);
    beam_cos_.push_back(std::cos(angle));
    beam_sin_.push_back(std::sin(angle));
  }
}

double LidarScanner::beam_angle(std::size_t beam) const {
  ROBOADS_CHECK(beam < config_.beam_count, "beam index out of range");
  return beam_angles_[beam];
}

Vector LidarScanner::scan(const World& world, const Vector& pose,
                          Rng& rng) const {
  Vector ranges;
  scan(world, pose, rng, ranges);
  return ranges;
}

void LidarScanner::scan(const World& world, const Vector& pose, Rng& rng,
                        Vector& ranges) const {
  ROBOADS_CHECK(pose.size() >= 3, "lidar pose needs (x, y, θ)");
  const Vec2 origin{pose[0], pose[1]};
  if (ranges.size() != config_.beam_count) {
    ranges = Vector(config_.beam_count);
  }
  const std::size_t n = config_.beam_count;
  double* out = ranges.data();
  world.raycast_beams(origin, pose[2], beam_angles_, config_.max_range,
                      {out, n});
  // Range noise for every beam that hit, in beam order: the ray casts draw
  // nothing, so these are the draws the beam-by-beam loop made. A block of
  // hits at a time goes through Rng's batched draw.
  std::array<std::size_t, Rng::kGaussianBlock> hit{};
  std::array<double, Rng::kGaussianBlock> noise{};
  for (std::size_t i = 0; i < n;) {
    std::size_t count = 0;
    for (; i < n && count < hit.size(); ++i) {
      if (out[i] < config_.max_range) hit[count++] = i;
    }
    rng.gaussian(0.0, config_.range_noise_stddev, {noise.data(), count});
    for (std::size_t j = 0; j < count; ++j) {
      double& r = out[hit[j]];
      r = std::clamp(r + noise[j], 0.0, config_.max_range);
    }
  }
}

ScanProcessor::ScanProcessor(const ScanProcessorConfig& config,
                             double arena_width, double arena_height,
                             std::vector<geom::Aabb> obstacles)
    : config_(config),
      arena_width_(arena_width),
      arena_height_(arena_height),
      obstacles_(std::move(obstacles)) {
  ROBOADS_CHECK(arena_width_ > 0.0 && arena_height_ > 0.0,
                "arena dimensions must be positive");
  ROBOADS_CHECK(config_.min_points >= 2, "line needs at least 2 points");
  for (const geom::Aabb& o : obstacles_) {
    east_faces_.push_back(o.max.x);    // seen looking west from x > o.max.x
    west_faces_.push_back(o.min.x);    // seen looking east from x < o.min.x
    top_faces_.push_back(o.max.y);     // seen looking south from above
    bottom_faces_.push_back(o.min.y);  // seen looking north from below
  }
}

namespace {

// Squared distance from `p` to the chord, through the same foot point as
// Segment::distance_to.
double chord_distance_squared(const geom::Segment& chord, const Vec2& p) {
  const Vec2 ab = chord.b - chord.a;
  const double len2 = ab.norm_squared();
  if (len2 == 0.0) return (p - chord.a).norm_squared();
  const double t = std::clamp((p - chord.a).dot(ab) / len2, 0.0, 1.0);
  return (p - (chord.a + ab * t)).norm_squared();
}

// Recursive split step of split-and-merge (iterative end-point fit). A
// chunk splits at the first point with the largest Segment::distance_to
// from its chord. The squared distance through the same foot point is
// within a few ulps of the exact distance squared, so the farthest point,
// and every point tied with it, lies within a relative 1e-12 of the
// largest squared distance: only those points need the exact distance.
// Outside the normal range of doubles (a degenerate or absurd chunk) every
// point takes the exact distance.
void split_chunk(const std::vector<Vec2>& pts, std::size_t first,
                 std::size_t last, double threshold, std::size_t min_points,
                 std::vector<double>& d2,
                 std::vector<std::pair<std::size_t, std::size_t>>& out) {
  const std::size_t count = last - first + 1;
  if (count < min_points) return;
  const geom::Segment chord{pts[first], pts[last]};
  double d2_max = 0.0;
  for (std::size_t i = first + 1; i < last; ++i) {
    d2[i] = chord_distance_squared(chord, pts[i]);
    d2_max = std::max(d2_max, d2[i]);
  }
  const double floor = d2_max > 1e-280 && d2_max < 1e280
                           ? d2_max * (1.0 - 1e-12)
                           : -std::numeric_limits<double>::infinity();
  double worst = -1.0;
  std::size_t worst_idx = first;
  for (std::size_t i = first + 1; i < last; ++i) {
    if (!(d2[i] >= floor)) continue;
    const double d = chord.distance_to(pts[i]);
    if (d > worst) {
      worst = d;
      worst_idx = i;
    }
  }
  if (worst > threshold) {
    split_chunk(pts, first, worst_idx, threshold, min_points, d2, out);
    split_chunk(pts, worst_idx, last, threshold, min_points, d2, out);
  } else {
    out.emplace_back(first, last);
  }
}

struct WallHypothesis {
  std::size_t output_slot;   // 0=west, 1=south, 2=east, 3=north (θ only)
  double global_perp_angle;  // direction from interior toward the wall
  double expected_distance;  // from the hint pose
};

}  // namespace

std::vector<ExtractedLine> ScanProcessor::extract_lines(
    const LidarScanner& scanner, const Vector& ranges) const {
  extract_into(scanner, ranges);
  return work_.lines;
}

void ScanProcessor::extract_into(const LidarScanner& scanner,
                                 const Vector& ranges) const {
  const LidarConfig& lc = scanner.config();
  ROBOADS_CHECK_EQ(ranges.size(), lc.beam_count, "scan size mismatch");
  // Capacity for the largest scan this beam count can produce, so later
  // calls never grow a buffer.
  Workspace& w = work_;
  w.points.reserve(lc.beam_count);
  w.chunk_starts.reserve(lc.beam_count + 1);
  w.chord_d2.resize(lc.beam_count);
  w.spans.reserve(lc.beam_count);
  w.lines.reserve(lc.beam_count);
  w.aligned.reserve(lc.beam_count);
  w.candidates.reserve(lc.beam_count * (1 + obstacles_.size()));

  // Valid returns to robot-frame points, preserving beam order; track range
  // discontinuities to pre-chunk the scan.
  std::vector<Vec2>& pts = w.points;
  std::vector<std::size_t>& chunk_starts = w.chunk_starts;  // into pts
  pts.clear();
  chunk_starts.clear();
  const double* r_data = ranges.data();
  const std::span<const double> beam_cos = scanner.beam_cos();
  const std::span<const double> beam_sin = scanner.beam_sin();
  double prev_range = -1.0;
  bool prev_valid = false;
  for (std::size_t i = 0; i < lc.beam_count; ++i) {
    const double r = r_data[i];
    const bool valid = r >= config_.min_valid_range && r < lc.max_range * 0.999;
    if (!valid) {
      prev_valid = false;
      continue;
    }
    if (!prev_valid || std::abs(r - prev_range) > config_.jump_threshold) {
      chunk_starts.push_back(pts.size());
    }
    pts.push_back({r * beam_cos[i], r * beam_sin[i]});
    prev_range = r;
    prev_valid = true;
  }
  chunk_starts.push_back(pts.size());  // sentinel

  std::vector<ExtractedLine>& lines = w.lines;
  lines.clear();
  for (std::size_t c = 0; c + 1 < chunk_starts.size(); ++c) {
    const std::size_t first = chunk_starts[c];
    const std::size_t last_excl = chunk_starts[c + 1];
    if (last_excl - first < config_.min_points) continue;
    w.spans.clear();
    split_chunk(pts, first, last_excl - 1, config_.split_threshold,
                config_.min_points, w.chord_d2, w.spans);
    for (const auto& [s, e] : w.spans) {
      const std::span<const Vec2> seg_pts(pts.data() + s, e - s + 1);
      const geom::FittedLine fit = geom::fit_line(seg_pts);
      // Perpendicular foot from the robot (origin in the robot frame).
      const double along = fit.point.dot(fit.direction);
      const Vec2 foot = fit.point - fit.direction * along;
      const double dist = foot.norm();
      if (dist < config_.min_valid_range) continue;
      ExtractedLine line;
      line.distance = dist;
      line.perp_angle = std::atan2(foot.y, foot.x);
      line.points = seg_pts.size();
      line.rms_error = fit.rms_error;
      lines.push_back(line);
    }
  }
}

std::optional<Vector> ScanProcessor::relocalize(
    const std::vector<ExtractedLine>& lines, double stale_theta) const {
  // Look for a pair of opposite lines whose distances sum to one of the
  // arena spans: r_west + r_east = W or r_south + r_north = H. That
  // identifies the axis; the stale heading resolves the remaining 180°
  // rotational ambiguity of the rectangle.
  constexpr double kSumTol = 0.08;
  constexpr double kOppositeTol = 0.2;  // deviation from π between perps
  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (std::size_t j = i + 1; j < lines.size(); ++j) {
      const double perp_gap = std::abs(geom::angle_diff(
          lines[i].perp_angle, lines[j].perp_angle));
      if (std::abs(perp_gap - M_PI) > kOppositeTol) continue;
      const double sum = lines[i].distance + lines[j].distance;
      const bool x_axis = std::abs(sum - arena_width_) < kSumTol;
      const bool y_axis = std::abs(sum - arena_height_) < kSumTol;
      if (!x_axis && !y_axis) continue;
      if (x_axis && y_axis) continue;  // square-ish arena: ambiguous pair
      // Hypothesis A: line i is the lower wall of the axis (west/south).
      const double wall_angle = x_axis ? M_PI : -M_PI / 2.0;
      const double theta_a =
          geom::wrap_angle(wall_angle - lines[i].perp_angle);
      const double theta_b = geom::wrap_angle(theta_a + M_PI);
      const double theta =
          std::abs(geom::angle_diff(theta_a, stale_theta)) <=
                  std::abs(geom::angle_diff(theta_b, stale_theta))
              ? theta_a
              : theta_b;
      // With θ fixed, assign every line to its nearest wall by angle and
      // read the position off the west/east and south/north distances.
      Vector pose(3);
      pose[0] = arena_width_ / 2.0;
      pose[1] = arena_height_ / 2.0;
      pose[2] = theta;
      for (const ExtractedLine& line : lines) {
        const double global_perp =
            geom::wrap_angle(line.perp_angle + theta);
        if (std::abs(geom::angle_diff(global_perp, M_PI)) <
            config_.angle_gate) {
          pose[0] = line.distance;  // west
        } else if (std::abs(geom::angle_diff(global_perp, -M_PI / 2.0)) <
                   config_.angle_gate) {
          pose[1] = line.distance;  // south
        }
      }
      return pose;
    }
  }
  return std::nullopt;
}

ProcessedScan ScanProcessor::process(const LidarScanner& scanner,
                                     const Vector& ranges,
                                     const Vector& hint_pose) const {
  ROBOADS_CHECK(hint_pose.size() >= 3, "hint pose needs (x, y, θ)");
  double hx = hint_pose[0];
  double hy = hint_pose[1];
  double htheta = hint_pose[2];

  ProcessedScan out;
  extract_into(scanner, ranges);
  const std::vector<ExtractedLine>& lines = work_.lines;
  out.lines_extracted = lines.size();

  // When the track was lost (e.g. across a DoS outage) the stale hint can
  // sit outside every matching gate. Re-localize from the scan itself —
  // opposite-wall distance sums identify the axes; the stale heading only
  // breaks the rectangle's 180° symmetry — and run the gated matching from
  // the fresh pose. First pass with the regular hint stays authoritative
  // when it still matches (cheap) — the relocalization result below is used
  // purely as a fallback hint.
  std::optional<Vector> relock;
  if (!lines.empty()) {
    relock = relocalize(lines, htheta);
  }

  // Greedy best-line-per-wall assignment behind angle + distance gates,
  // parameterized by the hint pose.
  const ExtractedLine* matched[4] = {nullptr, nullptr, nullptr, nullptr};
  const auto match_walls = [&](double px, double py, double ptheta) {
    WallHypothesis walls[] = {
        {0, M_PI, px},                        // west  (x = 0)
        {1, -M_PI / 2.0, py},                 // south (y = 0)
        {2, 0.0, arena_width_ - px},          // east  (x = W)
        {3, M_PI / 2.0, arena_height_ - py},  // north (θ support only)
    };
    for (auto& slot : matched) slot = nullptr;
    bool any = false;
    for (const ExtractedLine& line : lines) {
      const double global_perp = geom::wrap_angle(line.perp_angle + ptheta);
      for (const WallHypothesis& w : walls) {
        if (std::abs(geom::angle_diff(global_perp, w.global_perp_angle)) >
            config_.angle_gate) {
          continue;
        }
        if (std::abs(line.distance - w.expected_distance) >
            config_.range_gate) {
          continue;
        }
        const ExtractedLine*& slot = matched[w.output_slot];
        if (slot == nullptr || line.points > slot->points) slot = &line;
        any = true;
      }
    }
    return any;
  };

  out.any_wall_matched = match_walls(hx, hy, htheta);
  if (!out.any_wall_matched && relock.has_value()) {
    // The track is lost (e.g. the pose drifted across a DoS outage):
    // restart the match from the scan's own localization solution.
    hx = (*relock)[0];
    hy = (*relock)[1];
    htheta = (*relock)[2];
    out.any_wall_matched = match_walls(hx, hy, htheta);
  }
  if (!out.any_wall_matched) {
    // Nothing recognizable in the scan (e.g. DoS'd ranges): the workflow
    // reports zeros in every direction, matching scenario #6's symptom.
    return out;
  }

  // Heading estimate from the matched walls (circular mean of θ = wall_perp
  // − β weighted by supporting points); recomputed after the consistency
  // passes below may drop matches.
  static constexpr double kWallPerpAngles[4] = {M_PI, -M_PI / 2.0, 0.0,
                                                M_PI / 2.0};
  const auto heading_from_matches = [&]() {
    double sin_acc = 0.0, cos_acc = 0.0;
    for (std::size_t w = 0; w < 4; ++w) {
      const ExtractedLine* line = matched[w];
      if (line == nullptr) continue;
      const double theta =
          geom::wrap_angle(kWallPerpAngles[w] - line->perp_angle);
      const double weight = static_cast<double>(line->points);
      sin_acc += weight * std::sin(theta);
      cos_acc += weight * std::cos(theta);
    }
    return std::atan2(sin_acc, cos_acc);
  };
  double theta_est = heading_from_matches();

  // Per-axis coordinate estimation by hypothesis scoring over every aligned
  // line, each interpretable as the lower wall, the upper wall, or a face
  // of a known map obstacle (§V-A: the mission map is available to every
  // consumer). Every interpretation proposes a robot coordinate; the
  // candidate explaining the scan with the least point-weighted residual
  // wins. This resolves wall-vs-obstacle ambiguities and poisoned-track
  // lock-ins in one mechanism. An *unknown* obstruction (scenario #7's
  // board over the sensor window) is not in the map, so its well-supported
  // line simply wins as "the wall" — producing the paper's incorrect-
  // distance symptom instead of being silently repaired.
  const auto axis_lines =
      [&](std::size_t lower_slot,
          std::size_t upper_slot) -> const std::vector<AlignedLine>& {
    std::vector<AlignedLine>& out_lines = work_.aligned;
    out_lines.clear();
    for (const ExtractedLine& line : lines) {
      const double global_perp =
          geom::wrap_angle(line.perp_angle + theta_est);
      if (std::abs(geom::angle_diff(
              global_perp, kWallPerpAngles[lower_slot])) <=
          config_.angle_gate) {
        out_lines.push_back({&line, true});
      } else if (std::abs(geom::angle_diff(
                     global_perp, kWallPerpAngles[upper_slot])) <=
                 config_.angle_gate) {
        out_lines.push_back({&line, false});
      }
    }
    return out_lines;
  };

  struct AxisEstimate {
    bool resolved = false;
    double coordinate = 0.0;       // robot position along the axis
    const ExtractedLine* lower_wall = nullptr;  // line explained as walls
    const ExtractedLine* upper_wall = nullptr;
  };
  // `lo_faces`/`hi_faces` are the obstacle-face coordinates visible when
  // looking toward the lower/upper wall (e.g. for y: tops o.max.y seen from
  // above; bottoms o.min.y seen from below).
  const auto estimate_axis = [&](std::size_t lower_slot,
                                 std::size_t upper_slot, double span,
                                 const std::vector<double>& lo_faces,
                                 const std::vector<double>& hi_faces,
                                 double hint_coord) {
    constexpr double kResidualTol = 0.08;
    constexpr double kUnexplained = 0.2;  // capped residual per point
    // Continuity tie-breaker: when an occlusion leaves two configurations
    // that both explain the scan (e.g. robot west vs east of an obstacle),
    // prefer the one near the track. Weighted far below the geometric
    // evidence so a poisoned track cannot override a contradicting scan.
    constexpr double kHintWeight = 2.0;  // err-points per meter
    const std::vector<AlignedLine>& aligned =
        axis_lines(lower_slot, upper_slot);
    AxisEstimate best;
    if (aligned.empty()) return best;

    // Candidate coordinates from every interpretation of every line.
    std::vector<double>& candidates = work_.candidates;
    candidates.clear();
    for (const AlignedLine& al : aligned) {
      const double d = al.line->distance;
      if (al.lower) {
        candidates.push_back(d);  // lower wall
        for (double f : lo_faces) candidates.push_back(d + f);
      } else {
        candidates.push_back(span - d);  // upper wall
        for (double f : hi_faces) candidates.push_back(f - d);
      }
    }

    double best_err = std::numeric_limits<double>::infinity();
    for (double c : candidates) {
      if (c < 0.0 || c > span) continue;
      double err = kHintWeight * std::abs(c - hint_coord);
      const ExtractedLine* lower_wall = nullptr;
      const ExtractedLine* upper_wall = nullptr;
      for (const AlignedLine& al : aligned) {
        const double d = al.line->distance;
        double resid;
        bool as_wall;
        if (al.lower) {
          resid = std::abs(d - c);
          as_wall = true;
          for (double f : lo_faces) {
            if (c > f && std::abs(d - (c - f)) < resid) {
              resid = std::abs(d - (c - f));
              as_wall = false;
            }
          }
        } else {
          resid = std::abs(d - (span - c));
          as_wall = true;
          for (double f : hi_faces) {
            if (c < f && std::abs(d - (f - c)) < resid) {
              resid = std::abs(d - (f - c));
              as_wall = false;
            }
          }
        }
        const double weight = static_cast<double>(al.line->points);
        if (resid > kResidualTol) {
          err += weight * kUnexplained;
          continue;
        }
        err += weight * resid;
        if (as_wall) {
          const ExtractedLine*& slot = al.lower ? lower_wall : upper_wall;
          if (slot == nullptr || al.line->points > slot->points) {
            slot = al.line;
          }
        }
      }
      if (err < best_err) {
        best_err = err;
        best.resolved = lower_wall != nullptr || upper_wall != nullptr;
        best.coordinate = c;
        best.lower_wall = lower_wall;
        best.upper_wall = upper_wall;
      }
    }
    return best;
  };

  const AxisEstimate x_axis =
      estimate_axis(0, 2, arena_width_, east_faces_, west_faces_, hx);
  const AxisEstimate y_axis =
      estimate_axis(1, 3, arena_height_, top_faces_, bottom_faces_, hy);

  // Adopt the wall assignments for the final heading estimate.
  matched[0] = x_axis.lower_wall;
  matched[2] = x_axis.upper_wall;
  matched[1] = y_axis.lower_wall;
  matched[3] = y_axis.upper_wall;
  out.any_wall_matched = x_axis.resolved || y_axis.resolved;
  if (!out.any_wall_matched) return out;
  theta_est = heading_from_matches();

  // Distances from the axis estimates; an unresolved axis coasts on the
  // workflow's own track (never fed back into the matcher's geometry).
  const double x = x_axis.resolved ? x_axis.coordinate : hx;
  const double y = y_axis.resolved ? y_axis.coordinate : hy;
  out.all_walls_matched =
      x_axis.lower_wall != nullptr && x_axis.upper_wall != nullptr &&
      y_axis.lower_wall != nullptr;
  out.reading[0] = x;
  out.reading[1] = y;
  out.reading[2] = arena_width_ - x;
  out.reading[3] = theta_est;
  return out;
}

}  // namespace roboads::sim

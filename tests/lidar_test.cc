// LiDAR simulation and scan-processing pipeline tests, including the
// calibration property the estimator depends on: the processed navigation
// reading must match the LidarNavSensor measurement model within its
// configured noise.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "attacks/injector.h"
#include "eval/khepera.h"
#include "scenario/compile.h"
#include "scenario/library.h"
#include "sim/lidar.h"
#include "sim/workflow.h"

namespace roboads::sim {
namespace {

World empty_arena() { return World(2.0, 1.5); }

using geom::Vec2;

// The split step and wall hypotheses of the old processor below.
namespace oracle {

// Recursive split step of split-and-merge (iterative end-point fit).
void split_chunk(const std::vector<Vec2>& pts, std::size_t first,
                 std::size_t last, double threshold, std::size_t min_points,
                 std::vector<std::pair<std::size_t, std::size_t>>& out) {
  const std::size_t count = last - first + 1;
  if (count < min_points) return;
  const Vec2& a = pts[first];
  const Vec2& b = pts[last];
  const geom::Segment chord{a, b};
  double worst = -1.0;
  std::size_t worst_idx = first;
  for (std::size_t i = first + 1; i < last; ++i) {
    const double d = chord.distance_to(pts[i]);
    if (d > worst) {
      worst = d;
      worst_idx = i;
    }
  }
  if (worst > threshold) {
    split_chunk(pts, first, worst_idx, threshold, min_points, out);
    split_chunk(pts, worst_idx, last, threshold, min_points, out);
  } else {
    out.emplace_back(first, last);
  }
}

struct WallHypothesis {
  std::size_t output_slot;   // 0=west, 1=south, 2=east, 3=north (θ only)
  double global_perp_angle;  // direction from interior toward the wall
  double expected_distance;  // from the hint pose
};

}  // namespace oracle

// The scan processor as it was before its buffers were reused and its
// split step ranked points by squared distance, kept as the oracle the
// library's processor must match bit for bit. relocalize() did not change,
// so the oracle borrows it.
struct OracleProcessor {
  ScanProcessorConfig config_;
  double arena_width_;
  double arena_height_;
  std::vector<geom::Aabb> obstacles_;
  ScanProcessor relocalizer{config_, arena_width_, arena_height_, obstacles_};

  std::vector<ExtractedLine> extract_lines(const LidarScanner& scanner,
                                           const Vector& ranges) const {
    const LidarConfig& lc = scanner.config();
    ROBOADS_CHECK_EQ(ranges.size(), lc.beam_count, "scan size mismatch");

    // Valid returns to robot-frame points, preserving beam order; track range
    // discontinuities to pre-chunk the scan.
    std::vector<Vec2> pts;
    std::vector<std::size_t> chunk_starts;  // index into pts
    pts.reserve(lc.beam_count);
    double prev_range = -1.0;
    bool prev_valid = false;
    for (std::size_t i = 0; i < lc.beam_count; ++i) {
      const double r = ranges[i];
      const bool valid = r >= config_.min_valid_range && r < lc.max_range * 0.999;
      if (!valid) {
        prev_valid = false;
        continue;
      }
      if (!prev_valid || std::abs(r - prev_range) > config_.jump_threshold) {
        chunk_starts.push_back(pts.size());
      }
      const double a = scanner.beam_angle(i);
      pts.push_back({r * std::cos(a), r * std::sin(a)});
      prev_range = r;
      prev_valid = true;
    }
    chunk_starts.push_back(pts.size());  // sentinel

    std::vector<ExtractedLine> lines;
    for (std::size_t c = 0; c + 1 < chunk_starts.size(); ++c) {
      const std::size_t first = chunk_starts[c];
      const std::size_t last_excl = chunk_starts[c + 1];
      if (last_excl - first < config_.min_points) continue;
      std::vector<std::pair<std::size_t, std::size_t>> segments;
      oracle::split_chunk(pts, first, last_excl - 1, config_.split_threshold,
                  config_.min_points, segments);
      for (const auto& [s, e] : segments) {
        std::vector<Vec2> seg_pts(pts.begin() + s, pts.begin() + e + 1);
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
    return lines;
  }

  ProcessedScan process(const LidarScanner& scanner, const Vector& ranges,
                        const Vector& hint_pose) const {
    ROBOADS_CHECK(hint_pose.size() >= 3, "hint pose needs (x, y, θ)");
    double hx = hint_pose[0];
    double hy = hint_pose[1];
    double htheta = hint_pose[2];

    ProcessedScan out;
    const std::vector<ExtractedLine> lines = extract_lines(scanner, ranges);
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
      relock = relocalizer.relocalize(lines, htheta);
    }

    // Greedy best-line-per-wall assignment behind angle + distance gates,
    // parameterized by the hint pose.
    const ExtractedLine* matched[4] = {nullptr, nullptr, nullptr, nullptr};
    const auto match_walls = [&](double px, double py, double ptheta) {
      oracle::WallHypothesis walls[] = {
          {0, M_PI, px},                        // west  (x = 0)
          {1, -M_PI / 2.0, py},                 // south (y = 0)
          {2, 0.0, arena_width_ - px},          // east  (x = W)
          {3, M_PI / 2.0, arena_height_ - py},  // north (θ support only)
      };
      for (auto& slot : matched) slot = nullptr;
      bool any = false;
      for (const ExtractedLine& line : lines) {
        const double global_perp = geom::wrap_angle(line.perp_angle + ptheta);
        for (const oracle::WallHypothesis& w : walls) {
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
    struct AlignedLine {
      const ExtractedLine* line;
      bool lower;  // aligned with the lower wall's perp direction
    };
    const auto axis_lines = [&](std::size_t lower_slot,
                                std::size_t upper_slot) {
      std::vector<AlignedLine> out_lines;
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
      const std::vector<AlignedLine> aligned =
          axis_lines(lower_slot, upper_slot);
      AxisEstimate best;
      if (aligned.empty()) return best;

      // Candidate coordinates from every interpretation of every line.
      std::vector<double> candidates;
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

    std::vector<double> east_faces, west_faces, top_faces, bottom_faces;
    for (const geom::Aabb& o : obstacles_) {
      east_faces.push_back(o.max.x);    // seen looking west from x > o.max.x
      west_faces.push_back(o.min.x);    // seen looking east from x < o.min.x
      top_faces.push_back(o.max.y);     // seen looking south from above
      bottom_faces.push_back(o.min.y);  // seen looking north from below
    }
    const AxisEstimate x_axis =
        estimate_axis(0, 2, arena_width_, east_faces, west_faces, hx);
    const AxisEstimate y_axis =
        estimate_axis(1, 3, arena_height_, top_faces, bottom_faces, hy);

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
};

LidarConfig noiseless_config() {
  LidarConfig cfg;
  cfg.fov = 2.0 * M_PI;
  cfg.beam_count = 81;
  cfg.max_range = 5.0;
  cfg.range_noise_stddev = 0.0;
  return cfg;
}

TEST(LidarScanner, RejectsBadConfig) {
  LidarConfig cfg;
  cfg.beam_count = 1;
  EXPECT_THROW(LidarScanner{cfg}, CheckError);
  cfg = LidarConfig{};
  cfg.fov = 0.0;
  EXPECT_THROW(LidarScanner{cfg}, CheckError);
  cfg = LidarConfig{};
  cfg.max_range = -1.0;
  EXPECT_THROW(LidarScanner{cfg}, CheckError);
}

TEST(LidarScanner, BeamAnglesSpanFov) {
  LidarScanner scanner(noiseless_config());
  EXPECT_NEAR(scanner.beam_angle(0), -M_PI, 1e-12);
  EXPECT_NEAR(scanner.beam_angle(80), M_PI, 1e-12);
  EXPECT_NEAR(scanner.beam_angle(40), 0.0, 1e-12);
  EXPECT_THROW(scanner.beam_angle(81), CheckError);
}

TEST(LidarScanner, RangesMatchGeometry) {
  const World world = empty_arena();
  LidarScanner scanner(noiseless_config());
  Rng rng(1);
  // Robot at the center facing east: front beam hits the east wall.
  const Vector ranges = scanner.scan(world, Vector{1.0, 0.75, 0.0}, rng);
  EXPECT_NEAR(ranges[40], 1.0, 1e-9);   // east at 1.0 m
  EXPECT_NEAR(ranges[0], 1.0, 1e-9);    // west behind at 1.0 m
  EXPECT_NEAR(ranges[20], 0.75, 1e-9);  // south at 0.75 m (beam -π/2)
  EXPECT_NEAR(ranges[60], 0.75, 1e-9);  // north
}

TEST(LidarScanner, NoiseIsBoundedAndSeeded) {
  const World world = empty_arena();
  LidarConfig cfg = noiseless_config();
  cfg.range_noise_stddev = 0.01;
  LidarScanner scanner(cfg);
  Rng a(7), b(7);
  const Vector ra = scanner.scan(world, Vector{1.0, 0.75, 0.3}, a);
  const Vector rb = scanner.scan(world, Vector{1.0, 0.75, 0.3}, b);
  EXPECT_EQ(ra, rb);  // deterministic per seed
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_GE(ra[i], 0.0);
    EXPECT_LE(ra[i], cfg.max_range);
  }
}

TEST(ScanProcessor, ExtractsFourWallsFromCleanScan) {
  const World world = empty_arena();
  LidarScanner scanner(noiseless_config());
  ScanProcessor processor(ScanProcessorConfig{}, 2.0, 1.5);
  Rng rng(3);
  const Vector pose{0.6, 0.5, 0.4};
  const Vector ranges = scanner.scan(world, pose, rng);
  const auto lines = processor.extract_lines(scanner, ranges);
  // An empty rectangular arena yields the four wall lines; the wall crossing
  // the ±π scan wrap may split into two chunks.
  EXPECT_GE(lines.size(), 4u);
  EXPECT_LE(lines.size(), 6u);
}

TEST(ScanProcessor, ReadingMatchesMeasurementModel) {
  const World world = empty_arena();
  LidarScanner scanner(noiseless_config());
  ScanProcessor processor(ScanProcessorConfig{}, 2.0, 1.5);
  Rng rng(5);
  const Vector pose{0.6, 0.5, 0.4};
  const ProcessedScan out =
      processor.process(scanner, scanner.scan(world, pose, rng), pose);
  ASSERT_TRUE(out.any_wall_matched);
  EXPECT_TRUE(out.all_walls_matched);
  EXPECT_NEAR(out.reading[0], 0.6, 0.01);        // d_west = x
  EXPECT_NEAR(out.reading[1], 0.5, 0.01);        // d_south = y
  EXPECT_NEAR(out.reading[2], 2.0 - 0.6, 0.01);  // d_east = W - x
  EXPECT_NEAR(out.reading[3], 0.4, 0.01);        // θ
}

TEST(ScanProcessor, ToleratesStaleHint) {
  // The hint may lag the true pose by several centimeters / a few degrees
  // (its role is only wall disambiguation).
  const World world = empty_arena();
  LidarScanner scanner(noiseless_config());
  ScanProcessor processor(ScanProcessorConfig{}, 2.0, 1.5);
  Rng rng(5);
  const Vector pose{0.6, 0.5, 0.4};
  const Vector stale_hint{0.52, 0.56, 0.3};
  const ProcessedScan out =
      processor.process(scanner, scanner.scan(world, pose, rng), stale_hint);
  ASSERT_TRUE(out.any_wall_matched);
  EXPECT_NEAR(out.reading[0], 0.6, 0.02);
  EXPECT_NEAR(out.reading[3], 0.4, 0.02);
}

TEST(ScanProcessor, DosScanYieldsZeros) {
  LidarScanner scanner(noiseless_config());
  ScanProcessor processor(ScanProcessorConfig{}, 2.0, 1.5);
  const Vector zero_ranges(81);
  const ProcessedScan out =
      processor.process(scanner, zero_ranges, Vector{1.0, 0.75, 0.0});
  EXPECT_FALSE(out.any_wall_matched);
  EXPECT_EQ(out.reading, (Vector{0.0, 0.0, 0.0, 0.0}));
}

TEST(ScanProcessor, ObstacleLinesAreRejectedByGating) {
  // Obstacle faces sit far from any expected wall distance and are gated
  // out of the wall assignment.
  const World world(2.0, 1.5, {geom::Aabb{{0.9, 0.6}, {1.1, 0.9}}});
  LidarScanner scanner(noiseless_config());
  ScanProcessor processor(ScanProcessorConfig{}, 2.0, 1.5);
  Rng rng(9);
  const Vector pose{0.4, 0.75, 0.0};  // obstacle 0.5 m ahead
  const ProcessedScan out =
      processor.process(scanner, scanner.scan(world, pose, rng), pose);
  ASSERT_TRUE(out.any_wall_matched);
  EXPECT_NEAR(out.reading[0], 0.4, 0.02);   // west unobstructed
  EXPECT_NEAR(out.reading[1], 0.75, 0.02);  // south unobstructed
}

TEST(ScanProcessorCalibration, CleanResidualsWithinModelNoise) {
  // Property the estimator relies on: over a sweep of poses, the processed
  // reading's error against h(x) = (x, y, W−x, θ) stays within the
  // estimator-side noise model (range σ = 0.015, heading σ = 0.02).
  const World world = empty_arena();
  LidarConfig cfg = noiseless_config();
  cfg.range_noise_stddev = 0.008;
  LidarScanner scanner(cfg);
  ScanProcessor processor(ScanProcessorConfig{}, 2.0, 1.5);
  Rng rng(11);

  double worst_range_err = 0.0;
  double worst_heading_err = 0.0;
  for (int trial = 0; trial < 40; ++trial) {
    const Vector pose{rng.uniform(0.3, 1.7), rng.uniform(0.3, 1.2),
                      rng.uniform(-M_PI, M_PI)};
    const ProcessedScan out =
        processor.process(scanner, scanner.scan(world, pose, rng), pose);
    ASSERT_TRUE(out.all_walls_matched);
    worst_range_err =
        std::max({worst_range_err, std::abs(out.reading[0] - pose[0]),
                  std::abs(out.reading[1] - pose[1]),
                  std::abs(out.reading[2] - (2.0 - pose[0]))});
    worst_heading_err =
        std::max(worst_heading_err,
                 std::abs(geom::angle_diff(out.reading[3], pose[2])));
  }
  // 3σ of the estimator model bounds the worst observed extraction error.
  EXPECT_LT(worst_range_err, 3.0 * 0.015);
  EXPECT_LT(worst_heading_err, 3.0 * 0.02);
}

TEST(LidarWorkflow, TracksPoseAndSurvivesDos) {
  const World world = empty_arena();
  LidarConfig cfg = noiseless_config();
  cfg.range_noise_stddev = 0.008;
  LidarSensingWorkflow workflow(world, cfg, ScanProcessorConfig{},
                                Vector{0.5, 0.5, 0.0});
  // DoS between iterations 10 and 20.
  workflow.attach_raw_injector(std::make_shared<attacks::ReplaceInjector>(
      attacks::Window{10, 20}, cfg.beam_count, 0.0));
  Rng rng(13);

  Vector pose{0.5, 0.5, 0.0};
  for (std::size_t k = 1; k <= 30; ++k) {
    pose[0] += 0.005;  // slow eastward drift
    const Vector reading = workflow.sense(k, pose, rng);
    if (k >= 10 && k < 20) {
      EXPECT_EQ(reading, (Vector{0.0, 0.0, 0.0, 0.0})) << "k=" << k;
    } else if (k >= 22) {
      // Recovers after the DoS because the hint re-locks via wall gating.
      EXPECT_NEAR(reading[0], pose[0], 0.05) << "k=" << k;
    }
  }
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_lines(const std::vector<ExtractedLine>& expected,
                       const std::vector<ExtractedLine>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(bits(expected[i].distance), bits(actual[i].distance)) << i;
    EXPECT_EQ(bits(expected[i].perp_angle), bits(actual[i].perp_angle)) << i;
    EXPECT_EQ(expected[i].points, actual[i].points) << i;
    EXPECT_EQ(bits(expected[i].rms_error), bits(actual[i].rms_error)) << i;
  }
}

void expect_same_scan(const ProcessedScan& expected,
                      const ProcessedScan& actual) {
  ASSERT_EQ(expected.reading.size(), actual.reading.size());
  for (std::size_t i = 0; i < expected.reading.size(); ++i) {
    EXPECT_EQ(bits(expected.reading[i]), bits(actual.reading[i])) << i;
  }
  EXPECT_EQ(expected.any_wall_matched, actual.any_wall_matched);
  EXPECT_EQ(expected.all_walls_matched, actual.all_walls_matched);
  EXPECT_EQ(expected.lines_extracted, actual.lines_extracted);
}

// One processor and its oracle over the same arena. The processor is
// reused for every scan, as a workflow reuses it.
struct ProcessorPair {
  ProcessorPair(const World& world, const ScanProcessorConfig& config = {})
      : processor(config, world.width(), world.height(), world.obstacles()),
        oracle{config, world.width(), world.height(), world.obstacles()} {}

  void expect_match(const LidarScanner& scanner, const Vector& ranges,
                    const Vector& hint) {
    expect_same_lines(oracle.extract_lines(scanner, ranges),
                      processor.extract_lines(scanner, ranges));
    expect_same_scan(oracle.process(scanner, ranges, hint),
                     processor.process(scanner, ranges, hint));
  }

  ScanProcessor processor;
  OracleProcessor oracle;
};

// The Khepera mission's scanner, as the platform builds it.
LidarScanner khepera_scanner(const eval::KheperaPlatform& platform) {
  SensingStack stack =
      platform.make_sensing(attacks::Scenario("clean", "", {}));
  return dynamic_cast<LidarSensingWorkflow&>(stack.workflow_named("lidar"))
      .scanner();
}

Vector random_free_pose(const World& world, Rng& rng) {
  while (true) {
    const geom::Vec2 p{rng.uniform(0.0, world.width()),
                       rng.uniform(0.0, world.height())};
    if (world.free(p, 0.05)) {
      return Vector{p.x, p.y, rng.uniform(-M_PI, M_PI)};
    }
  }
}

TEST(ScanProcessorOracle, RandomPosesMatchTheOldProcessorBytewise) {
  const eval::KheperaPlatform platform;
  LidarConfig wide = noiseless_config();
  wide.range_noise_stddev = 0.008;
  LidarConfig narrow;  // the 240° default
  narrow.beam_count = 121;
  for (const World& world : {platform.world(), empty_arena()}) {
    for (const LidarScanner& scanner :
         {khepera_scanner(platform), LidarScanner(wide),
          LidarScanner(narrow)}) {
      ProcessorPair pair(world);
      Rng rng(31);
      for (int i = 0; i < 256; ++i) {
        SCOPED_TRACE("pose " + std::to_string(i));
        const Vector pose = random_free_pose(world, rng);
        const Vector ranges = scanner.scan(world, pose, rng);
        // The true pose, a stale hint, and one far off (relocalization).
        pair.expect_match(scanner, ranges, pose);
        pair.expect_match(scanner, ranges,
                          Vector{pose[0] + rng.uniform(-0.05, 0.05),
                                 pose[1] + rng.uniform(-0.05, 0.05),
                                 pose[2] + rng.uniform(-0.1, 0.1)});
        pair.expect_match(scanner, ranges, random_free_pose(world, rng));
      }
    }
  }
}

TEST(ScanProcessorOracle, SymmetricAndDegenerateScansMatch) {
  // Noiseless scans from symmetric poses put mirror points at exactly equal
  // distances from a chord, where the first index must win the split.
  const World world = empty_arena();
  const LidarScanner scanner(noiseless_config());
  ProcessorPair pair(world);
  Rng rng(3);
  for (const Vector& pose :
       {Vector{1.0, 0.75, 0.0}, Vector{1.0, 0.75, M_PI / 2.0},
        Vector{0.5, 0.5, M_PI / 4.0}, Vector{1.5, 0.25, -M_PI}}) {
    pair.expect_match(scanner, scanner.scan(world, pose, rng), pose);
  }
  const Vector hint{1.0, 0.75, 0.0};
  pair.expect_match(scanner, Vector(81), hint);       // DoS zeros
  pair.expect_match(scanner, Vector(81, 5.0), hint);  // no returns
  pair.expect_match(scanner, Vector(81, 0.5), hint);  // a circle
  pair.expect_match(
      scanner, Vector(81, std::numeric_limits<double>::quiet_NaN()), hint);
}

TEST(ScanProcessorOracle, NearlyTiedSplitPointsMatch) {
  // A sector of beams sees a flat face whose two end beams sit a few
  // centimeters farther out, so every interior point lies at nearly the
  // same distance from the chord: the farthest one is decided in the last
  // ulps, where squared distances and std::hypot can rank points apart.
  const LidarScanner scanner(noiseless_config());
  ProcessorPair pair(empty_arena());
  Rng rng(43);
  for (int i = 0; i < 2000; ++i) {
    const std::size_t count = 6 + rng.index(22);
    const std::size_t first = rng.index(81 - count);
    const double normal =
        scanner.beam_angle(first + count / 2) + rng.uniform(-0.05, 0.05);
    const double dist = rng.uniform(0.3, 1.5);
    const double offset = rng.uniform(0.03, 0.1);
    Vector ranges(81);  // zero: no return
    for (std::size_t b = first; b < first + count; ++b) {
      const bool end = b == first || b + 1 == first + count;
      ranges[b] = (end ? dist + offset : dist) /
                  std::cos(scanner.beam_angle(b) - normal);
    }
    pair.expect_match(scanner, ranges, Vector{1.0, 0.75, 0.0});
  }
}

TEST(ScanProcessorOracle, TableTwoRawScanAttacksMatch) {
  // #6 zeroes every range (DoS); #7 lays a flat board over a sector.
  const eval::KheperaPlatform platform;
  const LidarScanner scanner = khepera_scanner(platform);
  for (const std::size_t number : {6, 7}) {
    const attacks::Scenario compiled = scenario::compile_spec(
        scenario::khepera_table2_spec(number), platform);
    const std::vector<attacks::InjectorPtr> injectors = compiled.injectors_for(
        attacks::InjectionPoint::kLidarRawScan, "lidar");
    ASSERT_FALSE(injectors.empty()) << number;
    const std::size_t k = injectors.front()->window().start;
    ProcessorPair pair(platform.world());
    Rng rng(37);
    for (int i = 0; i < 128; ++i) {
      SCOPED_TRACE("#" + std::to_string(number) + " pose " +
                   std::to_string(i));
      const Vector pose = random_free_pose(platform.world(), rng);
      Vector ranges = scanner.scan(platform.world(), pose, rng);
      for (const attacks::InjectorPtr& inj : injectors) inj->apply(k, ranges);
      pair.expect_match(scanner, ranges, pose);
      pair.expect_match(scanner, ranges,
                        random_free_pose(platform.world(), rng));
    }
  }
}

}  // namespace
}  // namespace roboads::sim

// LiDAR simulation and the scan-processing utility pipeline.
//
// The paper's Khepera carries a laser range finder that "scans laser beams
// in 240 degrees and receives reflection to obtain distances from
// surrounding walls" (§V-A); its sensing workflow reduces the raw scan to
// wall distances + heading (Fig. 6 plot 3). We reproduce both halves:
//
//   LidarScanner  — casts beams against the arena, adds range noise;
//   ScanProcessor — split-and-merge line extraction over the scan points,
//                   matches lines to the known arena walls using the
//                   workflow's own pose track, and emits the
//                   (d_west, d_south, d_east, θ) navigation reading the
//                   LidarNavSensor measurement model describes.
//
// Raw-scan attack injectors (DoS zeroing, sector blocking — scenarios #6,
// #7) corrupt the range array *before* processing, so the corruption
// propagates through the real reduction code exactly as a physical-channel
// attack would.
#pragma once

#include <cmath>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "matrix/matrix.h"
#include "random/rng.h"
#include "sim/world.h"

namespace roboads::sim {

struct LidarConfig {
  double fov = 4.0 * M_PI / 3.0;  // 240°
  std::size_t beam_count = 81;
  double max_range = 5.0;          // [m]
  double range_noise_stddev = 0.008;
};

class LidarScanner {
 public:
  explicit LidarScanner(const LidarConfig& config = {});

  const LidarConfig& config() const { return config_; }

  // Beam angle in the robot frame, evenly spaced across the FOV, front
  // centered (beam i=beam_count/2 looks along the heading).
  double beam_angle(std::size_t beam) const;
  // std::cos and std::sin of every beam_angle, in beam order.
  std::span<const double> beam_cos() const { return beam_cos_; }
  std::span<const double> beam_sin() const { return beam_sin_; }

  // Ranges for every beam from `pose` = (x, y, θ), with Gaussian range
  // noise; values clip at max_range (no return).
  Vector scan(const World& world, const Vector& pose, Rng& rng) const;
  // The same scan written into `ranges`, whose storage is reused when it
  // already holds beam_count values.
  void scan(const World& world, const Vector& pose, Rng& rng,
            Vector& ranges) const;

 private:
  LidarConfig config_;
  std::vector<double> beam_angles_;
  std::vector<double> beam_cos_;
  std::vector<double> beam_sin_;
};

struct ScanProcessorConfig {
  double min_valid_range = 0.02;   // shorter returns are dropped as invalid
  double split_threshold = 0.025;  // max point-to-chord deviation [m]
  double jump_threshold = 0.25;    // range discontinuity starting a new chunk
  std::size_t min_points = 5;      // per extracted line
  double angle_gate = 0.4;         // wall-match heading gate [rad]
  double range_gate = 0.5;         // wall-match distance gate [m]
};

// A line extracted from the scan, in the robot frame.
struct ExtractedLine {
  double distance = 0.0;     // perpendicular distance from the robot
  double perp_angle = 0.0;   // robot-frame angle of the perpendicular foot
  std::size_t points = 0;    // supporting point count
  double rms_error = 0.0;
};

struct ProcessedScan {
  // (d_west, d_south, d_east, θ) — the LidarNavSensor reading layout.
  // All-zero when no wall could be matched (e.g. a DoS'd scan).
  Vector reading{0.0, 0.0, 0.0, 0.0};
  bool any_wall_matched = false;
  // true when west, south and east were all matched directly (no coasting).
  bool all_walls_matched = false;
  std::size_t lines_extracted = 0;
};

class ScanProcessor {
 public:
  // `obstacles` is the known arena map (the mission provides it to every
  // consumer, §V-A: "the robot receives map information"); wall matching
  // uses it to recognize obstacle faces masquerading as walls.
  ScanProcessor(const ScanProcessorConfig& config, double arena_width,
                double arena_height,
                std::vector<geom::Aabb> obstacles = {});

  // Line extraction only (exposed for tests): split-and-merge over the
  // beam-ordered scan points.
  std::vector<ExtractedLine> extract_lines(const LidarScanner& scanner,
                                           const Vector& ranges) const;

  // Full reduction. `hint_pose` = (x, y, θ) is the workflow's own pose
  // track, used to disambiguate which wall each line belongs to; distances
  // for unmatched walls coast on the hint.
  ProcessedScan process(const LidarScanner& scanner, const Vector& ranges,
                        const Vector& hint_pose) const;

  // Scan-only localization fallback: identifies an axis from a pair of
  // opposite lines whose distances sum to the arena span, and resolves the
  // rectangle's 180° rotational ambiguity with the (possibly stale) heading.
  // Returns a full (x, y, θ) pose, or nullopt when no such pair exists.
  std::optional<Vector> relocalize(const std::vector<ExtractedLine>& lines,
                                   double stale_theta) const;

 private:
  // Fills work_.lines with extract_lines' result.
  void extract_into(const LidarScanner& scanner, const Vector& ranges) const;

  // A line aligned with one axis of the arena.
  struct AlignedLine {
    const ExtractedLine* line;
    bool lower;  // aligned with the lower wall's perp direction
  };

  // Buffers every call reuses, so a steady-state process() does not touch
  // the heap. They make one processor serve one caller at a time.
  struct Workspace {
    std::vector<geom::Vec2> points;
    std::vector<std::size_t> chunk_starts;
    std::vector<double> chord_d2;
    std::vector<std::pair<std::size_t, std::size_t>> spans;
    std::vector<ExtractedLine> lines;
    std::vector<AlignedLine> aligned;
    std::vector<double> candidates;
  };

  ScanProcessorConfig config_;
  double arena_width_;
  double arena_height_;
  std::vector<geom::Aabb> obstacles_;
  // Obstacle-face coordinates seen looking west, east, south and north.
  std::vector<double> east_faces_;
  std::vector<double> west_faces_;
  std::vector<double> top_faces_;
  std::vector<double> bottom_faces_;
  mutable Workspace work_;
};

}  // namespace roboads::sim

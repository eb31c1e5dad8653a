// Misbehavior injection framework (paper §II-B, Table I).
//
// The paper's key modeling step is that *every* attack or failure — GPS
// spoofing, ultrasonic jamming, CAN packet injection, logic bombs, tire
// blowouts — reduces to a data corruption somewhere along one sensing or
// actuation workflow, "regardless of where and how they originate". An
// Injector is exactly that: a time-windowed transformation of one workflow's
// data vector. Scenario objects (scenarios.h) compose injectors into the
// paper's Table II attack/failure scenarios and provide the ground-truth
// timeline the evaluation harness scores against.
#pragma once

#include <cstdint>
#include <optional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "matrix/matrix.h"

namespace roboads::attacks {

// Half-open activity window in control iterations.
struct Window {
  std::size_t start = 0;
  std::size_t end = static_cast<std::size_t>(-1);

  bool contains(std::size_t k) const { return k >= start && k < end; }
};

class Injector {
 public:
  explicit Injector(Window window) : window_(window) {
    ROBOADS_CHECK(window.start < window.end, "empty injection window");
  }
  virtual ~Injector() = default;

  virtual std::string describe() const = 0;

  bool active(std::size_t k) const { return window_.contains(k); }
  const Window& window() const { return window_; }

  // Corrupts `data` in place when active at iteration k. Stateful injectors
  // (e.g. stuck-at) may also observe clean data while inactive.
  void apply(std::size_t k, Vector& data) {
    if (active(k)) {
      corrupt(k, data);
    } else {
      observe(k, data);
    }
  }

 protected:
  virtual void corrupt(std::size_t k, Vector& data) = 0;
  virtual void observe(std::size_t, const Vector&) {}

 private:
  Window window_;
};

using InjectorPtr = std::shared_ptr<Injector>;

// Adds a constant offset — the shape of logic bombs (#1, #3, #5, #8),
// spoofing (#4), and packet-injection attacks.
class BiasInjector final : public Injector {
 public:
  BiasInjector(Window window, Vector offset);
  std::string describe() const override;

 protected:
  void corrupt(std::size_t, Vector& data) override;

 private:
  Vector offset_;
};

// Replaces selected components with fixed values — DoS (#6: all-zero LiDAR
// ranges), physical jamming (#2: wheel speed forced to 0).
class ReplaceInjector final : public Injector {
 public:
  // `mask[i]` selects which components are overwritten with `values[i]`.
  ReplaceInjector(Window window, std::vector<bool> mask, Vector values);
  // Overwrites every component with `value`.
  ReplaceInjector(Window window, std::size_t dim, double value);
  std::string describe() const override;

 protected:
  void corrupt(std::size_t, Vector& data) override;

 private:
  std::vector<bool> mask_;
  Vector values_;
};

// Multiplies selected components — miscalibration-style corruption.
class ScaleInjector final : public Injector {
 public:
  ScaleInjector(Window window, Vector gains);
  std::string describe() const override;

 protected:
  void corrupt(std::size_t, Vector& data) override;

 private:
  Vector gains_;
};

// Freezes the data at the last clean value — a stalled workflow/replay.
class StuckAtInjector final : public Injector {
 public:
  explicit StuckAtInjector(Window window);
  std::string describe() const override;

 protected:
  void corrupt(std::size_t, Vector& data) override;
  void observe(std::size_t, const Vector& data) override;

 private:
  Vector held_;
  bool has_held_ = false;
};

// Linearly growing offset — a slow-drift evasive attack (§V-H).
class RampInjector final : public Injector {
 public:
  // Offset at iteration k (active) is `slope * (k - window.start)`.
  RampInjector(Window window, Vector slope);
  std::string describe() const override;

 protected:
  void corrupt(std::size_t k, Vector& data) override;

 private:
  Vector slope_;
};

// Adds zero-mean Gaussian noise on top of the clean reading — jamming that
// degrades rather than replaces a signal (ultrasonic interference, RF noise
// floor raising). Owns a private seeded stream so a compiled scenario is
// deterministic for a fixed seed regardless of what else draws from the
// mission Rng.
class NoiseInjector final : public Injector {
 public:
  // `stddev[i]` scales the noise added to component i (0 = untouched).
  NoiseInjector(Window window, Vector stddev, std::uint64_t seed);
  std::string describe() const override;

 protected:
  void corrupt(std::size_t, Vector& data) override;

 private:
  Vector stddev_;
  std::mt19937_64 engine_;
};

// A flat board held in front of the scanner window (#7's physical-channel
// blocking, modeled with correct plane geometry): beams in [first, last)
// return r(φ) = distance / cos(φ − φ_center), i.e. a straight line in the
// scan — exactly what a real obstruction plane reflects, and what downstream
// line extraction will confidently treat as a wall.
class FlatObstructionInjector final : public Injector {
 public:
  // `fov` and `beam_count` describe the scanner the injector attacks (beam
  // i sits at angle (i/(beam_count−1) − 1/2)·fov in the sensor frame).
  // `center_angle`, when given, fixes the board's normal direction — use it
  // to compose one physical plane out of two beam-index segments when the
  // covered direction straddles the scan's ±π wrap.
  FlatObstructionInjector(Window window, std::size_t first_beam,
                          std::size_t last_beam, double distance, double fov,
                          std::size_t beam_count,
                          std::optional<double> center_angle = std::nullopt);
  std::string describe() const override;

 protected:
  void corrupt(std::size_t, Vector& ranges) override;

 private:
  double beam_angle(std::size_t beam) const;

  std::size_t first_beam_;
  std::size_t last_beam_;
  double distance_;
  double fov_;
  std::size_t beam_count_;
  double center_;
};

}  // namespace roboads::attacks

#include "attacks/injector.h"

#include <cmath>
#include <random>
#include <sstream>

namespace roboads::attacks {

BiasInjector::BiasInjector(Window window, Vector offset)
    : Injector(window), offset_(std::move(offset)) {
  ROBOADS_CHECK(!offset_.empty(), "bias offset must be non-empty");
}

std::string BiasInjector::describe() const {
  std::ostringstream os;
  os << "bias " << offset_;
  return os.str();
}

void BiasInjector::corrupt(std::size_t, Vector& data) {
  data += offset_;
}

ReplaceInjector::ReplaceInjector(Window window, std::vector<bool> mask,
                                 Vector values)
    : Injector(window), mask_(std::move(mask)), values_(std::move(values)) {
  ROBOADS_CHECK_EQ(mask_.size(), values_.size(),
                   "replace mask/values size mismatch");
  ROBOADS_CHECK(!mask_.empty(), "replace mask must be non-empty");
}

ReplaceInjector::ReplaceInjector(Window window, std::size_t dim, double value)
    : ReplaceInjector(window, std::vector<bool>(dim, true),
                      Vector(dim, value)) {}

std::string ReplaceInjector::describe() const {
  std::ostringstream os;
  os << "replace " << values_;
  return os.str();
}

void ReplaceInjector::corrupt(std::size_t, Vector& data) {
  ROBOADS_CHECK_EQ(data.size(), mask_.size(), "replace target size mismatch");
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (mask_[i]) data[i] = values_[i];
  }
}

ScaleInjector::ScaleInjector(Window window, Vector gains)
    : Injector(window), gains_(std::move(gains)) {
  ROBOADS_CHECK(!gains_.empty(), "scale gains must be non-empty");
}

std::string ScaleInjector::describe() const {
  std::ostringstream os;
  os << "scale " << gains_;
  return os.str();
}

void ScaleInjector::corrupt(std::size_t, Vector& data) {
  ROBOADS_CHECK_EQ(data.size(), gains_.size(), "scale target size mismatch");
  for (std::size_t i = 0; i < data.size(); ++i) data[i] *= gains_[i];
}

StuckAtInjector::StuckAtInjector(Window window) : Injector(window) {}

std::string StuckAtInjector::describe() const { return "stuck-at-last"; }

void StuckAtInjector::observe(std::size_t, const Vector& data) {
  held_ = data;
  has_held_ = true;
}

void StuckAtInjector::corrupt(std::size_t, Vector& data) {
  if (has_held_) {
    ROBOADS_CHECK_EQ(data.size(), held_.size(),
                     "stuck-at target size mismatch");
    data = held_;
  }
  // Without an observed clean value (attack active from k=0) the first
  // corrupted value becomes the held one.
  held_ = data;
  has_held_ = true;
}

RampInjector::RampInjector(Window window, Vector slope)
    : Injector(window), slope_(std::move(slope)) {
  ROBOADS_CHECK(!slope_.empty(), "ramp slope must be non-empty");
}

std::string RampInjector::describe() const {
  std::ostringstream os;
  os << "ramp " << slope_ << "/iter";
  return os.str();
}

void RampInjector::corrupt(std::size_t k, Vector& data) {
  const double steps = static_cast<double>(k - window().start);
  data += slope_ * steps;
}

NoiseInjector::NoiseInjector(Window window, Vector stddev, std::uint64_t seed)
    : Injector(window), stddev_(std::move(stddev)), engine_(seed) {
  ROBOADS_CHECK(!stddev_.empty(), "noise stddev must be non-empty");
  for (std::size_t i = 0; i < stddev_.size(); ++i) {
    ROBOADS_CHECK(stddev_[i] >= 0.0, "noise stddev must be non-negative");
  }
}

std::string NoiseInjector::describe() const {
  std::ostringstream os;
  os << "noise " << stddev_;
  return os.str();
}

void NoiseInjector::corrupt(std::size_t, Vector& data) {
  ROBOADS_CHECK_EQ(data.size(), stddev_.size(), "noise target size mismatch");
  std::normal_distribution<double> normal(0.0, 1.0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (stddev_[i] > 0.0) data[i] += stddev_[i] * normal(engine_);
  }
}

FlatObstructionInjector::FlatObstructionInjector(
    Window window, std::size_t first_beam, std::size_t last_beam,
    double distance, double fov, std::size_t beam_count,
    std::optional<double> center_angle)
    : Injector(window),
      first_beam_(first_beam),
      last_beam_(last_beam),
      distance_(distance),
      fov_(fov),
      beam_count_(beam_count),
      center_(0.0) {
  ROBOADS_CHECK(first_beam_ < last_beam_ && last_beam_ <= beam_count_,
                "invalid obstruction sector");
  ROBOADS_CHECK(distance_ > 0.0, "obstruction distance must be positive");
  ROBOADS_CHECK(fov_ > 0.0 && beam_count_ >= 2, "invalid scanner geometry");
  center_ = center_angle.value_or(
      0.5 * (beam_angle(first_beam_) + beam_angle(last_beam_ - 1)));
  // The plane must stay in front of every covered beam.
  for (std::size_t i = first_beam_; i < last_beam_; ++i) {
    ROBOADS_CHECK(std::abs(beam_angle(i) - center_) < M_PI / 2.0 - 0.03,
                  "obstruction sector too wide for a flat board");
  }
}

double FlatObstructionInjector::beam_angle(std::size_t beam) const {
  return (static_cast<double>(beam) / static_cast<double>(beam_count_ - 1) -
          0.5) *
         fov_;
}

std::string FlatObstructionInjector::describe() const {
  std::ostringstream os;
  os << "flat obstruction over beams [" << first_beam_ << ", " << last_beam_
     << ") at " << distance_ << " m";
  return os.str();
}

void FlatObstructionInjector::corrupt(std::size_t, Vector& ranges) {
  ROBOADS_CHECK_EQ(ranges.size(), beam_count_,
                   "obstruction scanner geometry mismatch");
  for (std::size_t i = first_beam_; i < last_beam_; ++i) {
    ranges[i] = distance_ / std::cos(beam_angle(i) - center_);
  }
}

}  // namespace roboads::attacks

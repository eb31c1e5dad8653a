// Measurement models (paper §III-A, eq. 1 second row):
//
//   z_k = h(x_k) + ξ_k,   ξ_k ~ N(0, R)
//
// Each sensing workflow on the robot contributes one SensorModel: the
// estimator-side description of what that workflow's output means in terms
// of robot state. The suite stacks models in a fixed order and can slice any
// subset — the mechanism the multi-mode engine uses to split sensors into
// "testing" (subscript 1) and "reference" (subscript 2) groups per mode.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "matrix/matrix.h"

namespace roboads::sensors {

// The most sensors a detector's suite may hold: an availability mask keeps
// one bit per sensor, and NUISE builds one pattern per set of missing
// sensors, 2^p of them (core/nuise.h).
inline constexpr std::size_t kMaxSuiteSensors = 8;

// Which suite sensors delivered a reading in one iteration: bit i set marks
// sensor i missing (a dropped frame, sim/faults.h; a lost packet,
// fleet/session.h; a non-finite reading, core/roboads.h). The default mask
// is the complete step, every sensor delivered. bits() indexes NUISE's
// pattern table.
class SensorMask {
 public:
  bool available(std::size_t i) const {
    return i >= kMaxSuiteSensors || ((bits_ >> i) & 1u) == 0;
  }
  void set_missing(std::size_t i) {
    ROBOADS_CHECK(i < kMaxSuiteSensors,
                  "availability mask index past kMaxSuiteSensors (8)");
    bits_ |= static_cast<std::uint8_t>(1u << i);
  }
  void set_available(std::size_t i) {
    if (i < kMaxSuiteSensors) bits_ &= static_cast<std::uint8_t>(~(1u << i));
  }
  bool complete() const { return bits_ == 0; }
  // True when no sensor at or past `count` is marked missing: the mask
  // fits a suite of `count` sensors.
  bool within(std::size_t count) const {
    return count >= kMaxSuiteSensors || (bits_ >> count) == 0;
  }
  std::uint8_t bits() const { return bits_; }

  bool operator==(const SensorMask&) const = default;

 private:
  std::uint8_t bits_ = 0;
};

class SensorModel {
 public:
  virtual ~SensorModel() = default;

  virtual std::string name() const = 0;
  // Dimension of this sensor's reading vector.
  virtual std::size_t dim() const = 0;
  // Dimension of the state this model measures.
  virtual std::size_t state_dim() const = 0;

  // Measurement function h_i(x).
  Vector measure(const Vector& x) const;
  // Jacobian C_i = ∂h_i/∂x evaluated at x.
  Matrix jacobian(const Vector& x) const;

  // The array forms the two calls above wrap, one body per sensor: x holds
  // state_dim() doubles and `out` receives every element of h_i(x) (dim())
  // or of C_i (dim() × state_dim(), row-major). No dimension is checked;
  // `out` must not overlap x.
  virtual void measure_into(const double* x, double* out) const = 0;
  virtual void jacobian_into(const double* x, double* out) const = 0;
  // Measurement noise covariance R_i (constant per sensor).
  virtual const Matrix& noise_covariance() const = 0;

  // angle_mask()[j] is true when component j is an angle: residuals on such
  // components must be wrapped into (-π, π].
  virtual std::vector<bool> angle_mask() const {
    return std::vector<bool>(dim(), false);
  }

  // Residual z - h(x) with angle components wrapped.
  Vector residual(const Vector& z, const Vector& x) const;
};

using SensorPtr = std::shared_ptr<const SensorModel>;

// An ordered collection of sensors; the order defines the layout of the
// stacked reading vector z = (z_1; z_2; ...; z_p).
class SensorSuite {
 public:
  SensorSuite() = default;
  explicit SensorSuite(std::vector<SensorPtr> sensors);

  std::size_t count() const { return sensors_.size(); }
  std::size_t total_dim() const { return total_dim_; }
  const SensorModel& sensor(std::size_t i) const;
  const std::vector<SensorPtr>& sensors() const { return sensors_; }

  // Offset of sensor i's block within the stacked vector.
  std::size_t offset(std::size_t i) const;

  // Index of the sensor with the given name, or nullopt when absent.
  std::optional<std::size_t> find(std::string_view name) const;
  // Index of the sensor with the given name; throws if absent.
  std::size_t index_of(const std::string& name) const;

  // Stacked h(x) over the given sensor subset (in suite order).
  Vector measure(const std::vector<std::size_t>& subset,
                 const Vector& x) const;
  // Stacked Jacobian over the subset.
  Matrix jacobian(const std::vector<std::size_t>& subset,
                  const Vector& x) const;
  // Block-diagonal noise covariance over the subset.
  Matrix noise_covariance(const std::vector<std::size_t>& subset) const;
  // Extracts the subset's readings from a full stacked reading vector.
  Vector slice(const std::vector<std::size_t>& subset,
               const Vector& z_full) const;
  // Stacked angle mask over the subset.
  std::vector<bool> angle_mask(const std::vector<std::size_t>& subset) const;

  // Stacked residual z_subset - h_subset(x) with angle wrapping.
  Vector residual(const std::vector<std::size_t>& subset,
                  const Vector& z_subset, const Vector& x) const;

  // As above, with a caller-cached stacked angle mask (from
  // angle_mask(subset)). The estimator hot path caches the mask per mode so
  // the steady-state residual performs no allocation.
  Vector residual(const std::vector<std::size_t>& subset,
                  const Vector& z_subset, const Vector& x,
                  const std::vector<bool>& mask) const;

  // The array forms behind slice, measure, jacobian and residual. The
  // subset must be strictly increasing and in range, which these do not
  // check: the estimator passes a mode's own subsets, which validate_modes
  // checked at construction, or a filtered copy of one. `out` receives the
  // subset's stacked dimension d of values (jacobian: d rows of the state
  // dimension, row-major); z_full holds total_dim() readings, x the state,
  // z_subset the subset's d stacked readings, and `mask` is
  // angle_mask(subset), of size d. Nothing is allocated.
  void slice_into(const std::vector<std::size_t>& subset,
                  const double* z_full, double* out) const;
  void measure_into(const std::vector<std::size_t>& subset, const double* x,
                    double* out) const;
  void jacobian_into(const std::vector<std::size_t>& subset, const double* x,
                     double* out) const;
  void residual_into(const std::vector<std::size_t>& subset,
                     const double* z_subset, const double* x,
                     const std::vector<bool>& mask, double* out) const;

  // All sensor indices [0, count).
  std::vector<std::size_t> all() const;
  // All indices except those in `excluded`.
  std::vector<std::size_t> complement(
      const std::vector<std::size_t>& excluded) const;

 private:
  void check_subset(const std::vector<std::size_t>& subset) const;
  // Stacked dimension of a checked subset.
  std::size_t subset_dim(const std::vector<std::size_t>& subset) const;
  // Checks that x has the state dimension the subset's sensors measure.
  void check_state(const std::vector<std::size_t>& subset,
                   const Vector& x) const;

  std::vector<SensorPtr> sensors_;
  std::vector<std::string> names_;  // sensor(i).name(), cached for find()
  std::vector<std::size_t> offsets_;
  std::vector<std::size_t> dims_;  // sensor(i).dim(), for the array forms
  std::size_t total_dim_ = 0;
  std::size_t state_dim_ = 0;  // shared by every sensor (0 when empty)
};

}  // namespace roboads::sensors

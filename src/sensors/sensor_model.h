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

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "matrix/matrix.h"

namespace roboads::sensors {

class SensorModel {
 public:
  virtual ~SensorModel() = default;

  virtual std::string name() const = 0;
  // Dimension of this sensor's reading vector.
  virtual std::size_t dim() const = 0;
  // Dimension of the state this model measures.
  virtual std::size_t state_dim() const = 0;

  // Measurement function h_i(x).
  virtual Vector measure(const Vector& x) const = 0;
  // Jacobian C_i = ∂h_i/∂x evaluated at x.
  virtual Matrix jacobian(const Vector& x) const = 0;
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

  // All sensor indices [0, count).
  std::vector<std::size_t> all() const;
  // All indices except those in `excluded`.
  std::vector<std::size_t> complement(
      const std::vector<std::size_t>& excluded) const;

 private:
  void check_subset(const std::vector<std::size_t>& subset) const;
  // Stacked dimension of a checked subset.
  std::size_t subset_dim(const std::vector<std::size_t>& subset) const;

  std::vector<SensorPtr> sensors_;
  std::vector<std::string> names_;  // sensor(i).name(), cached for find()
  std::vector<std::size_t> offsets_;
  std::size_t total_dim_ = 0;
};

}  // namespace roboads::sensors

#include "sensors/sensor_model.h"

#include <algorithm>

#include "geometry/geometry.h"

namespace roboads::sensors {

Vector SensorModel::residual(const Vector& z, const Vector& x) const {
  ROBOADS_CHECK_EQ(z.size(), dim(), "reading dimension mismatch");
  Vector r = z - measure(x);
  const std::vector<bool> mask = angle_mask();
  for (std::size_t i = 0; i < r.size(); ++i) {
    if (mask[i]) r[i] = geom::wrap_angle(r[i]);
  }
  return r;
}

SensorSuite::SensorSuite(std::vector<SensorPtr> sensors)
    : sensors_(std::move(sensors)) {
  names_.reserve(sensors_.size());
  offsets_.reserve(sensors_.size());
  for (const SensorPtr& s : sensors_) {
    ROBOADS_CHECK(s != nullptr, "null sensor in suite");
    ROBOADS_CHECK(s->dim() > 0, "sensor with zero dimension");
    if (!sensors_.empty()) {
      ROBOADS_CHECK_EQ(s->state_dim(), sensors_.front()->state_dim(),
                       "sensors disagree on state dimension");
    }
    names_.push_back(s->name());
    offsets_.push_back(total_dim_);
    total_dim_ += s->dim();
  }
}

const SensorModel& SensorSuite::sensor(std::size_t i) const {
  ROBOADS_CHECK(i < sensors_.size(), "sensor index out of range");
  return *sensors_[i];
}

std::size_t SensorSuite::offset(std::size_t i) const {
  ROBOADS_CHECK(i < offsets_.size(), "sensor index out of range");
  return offsets_[i];
}

std::optional<std::size_t> SensorSuite::find(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  return std::nullopt;
}

std::size_t SensorSuite::index_of(const std::string& name) const {
  const std::optional<std::size_t> i = find(name);
  ROBOADS_CHECK(i.has_value(), "no sensor named '" + name + "' in suite");
  return *i;
}

void SensorSuite::check_subset(const std::vector<std::size_t>& subset) const {
  for (std::size_t i = 0; i < subset.size(); ++i) {
    ROBOADS_CHECK(subset[i] < sensors_.size(), "subset index out of range");
    if (i > 0) {
      ROBOADS_CHECK(subset[i - 1] < subset[i],
                    "subset must be strictly increasing (suite order)");
    }
  }
}

std::size_t SensorSuite::subset_dim(
    const std::vector<std::size_t>& subset) const {
  check_subset(subset);
  std::size_t dim = 0;
  for (std::size_t i : subset) dim += sensors_[i]->dim();
  return dim;
}

Vector SensorSuite::measure(const std::vector<std::size_t>& subset,
                            const Vector& x) const {
  Vector out = Vector::for_overwrite(subset_dim(subset));
  std::size_t at = 0;
  for (std::size_t i : subset) {
    const Vector h = sensors_[i]->measure(x);
    ROBOADS_CHECK_EQ(h.size(), sensors_[i]->dim(),
                     "sensor measurement dimension mismatch");
    std::copy(h.data(), h.data() + h.size(), out.data() + at);
    at += h.size();
  }
  return out;
}

Matrix SensorSuite::jacobian(const std::vector<std::size_t>& subset,
                             const Vector& x) const {
  const std::size_t rows = subset_dim(subset);
  if (rows == 0) return Matrix();
  const std::size_t cols = sensors_[subset.front()]->state_dim();
  Matrix out = Matrix::for_overwrite(rows, cols);
  std::size_t at = 0;
  for (std::size_t i : subset) {
    const Matrix c = sensors_[i]->jacobian(x);
    ROBOADS_CHECK(c.rows() == sensors_[i]->dim() && c.cols() == cols,
                  "sensor Jacobian shape mismatch");
    // Full-width rows: the block is one contiguous run of the output.
    std::copy(c.data(), c.data() + c.rows() * cols, out.data() + at * cols);
    at += c.rows();
  }
  return out;
}

Matrix SensorSuite::noise_covariance(
    const std::vector<std::size_t>& subset) const {
  const std::size_t dim = subset_dim(subset);
  Matrix out(dim, dim);
  std::size_t at = 0;
  for (std::size_t i : subset) {
    out.set_block(at, at, sensors_[i]->noise_covariance());
    at += sensors_[i]->dim();
  }
  return out;
}

Vector SensorSuite::slice(const std::vector<std::size_t>& subset,
                          const Vector& z_full) const {
  Vector out = Vector::for_overwrite(subset_dim(subset));
  ROBOADS_CHECK_EQ(z_full.size(), total_dim_, "full reading size mismatch");
  std::size_t at = 0;
  for (std::size_t i : subset) {
    const double* block = z_full.data() + offsets_[i];
    std::copy(block, block + sensors_[i]->dim(), out.data() + at);
    at += sensors_[i]->dim();
  }
  return out;
}

std::vector<bool> SensorSuite::angle_mask(
    const std::vector<std::size_t>& subset) const {
  check_subset(subset);
  std::vector<bool> out;
  for (std::size_t i : subset) {
    const std::vector<bool> m = sensors_[i]->angle_mask();
    out.insert(out.end(), m.begin(), m.end());
  }
  return out;
}

Vector SensorSuite::residual(const std::vector<std::size_t>& subset,
                             const Vector& z_subset, const Vector& x) const {
  return residual(subset, z_subset, x, angle_mask(subset));
}

Vector SensorSuite::residual(const std::vector<std::size_t>& subset,
                             const Vector& z_subset, const Vector& x,
                             const std::vector<bool>& mask) const {
  Vector r = z_subset - measure(subset, x);
  ROBOADS_CHECK_EQ(r.size(), mask.size(), "residual size mismatch");
  for (std::size_t i = 0; i < r.size(); ++i) {
    if (mask[i]) r[i] = geom::wrap_angle(r[i]);
  }
  return r;
}

std::vector<std::size_t> SensorSuite::all() const {
  std::vector<std::size_t> out(sensors_.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = i;
  return out;
}

std::vector<std::size_t> SensorSuite::complement(
    const std::vector<std::size_t>& excluded) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < sensors_.size(); ++i) {
    if (std::find(excluded.begin(), excluded.end(), i) == excluded.end())
      out.push_back(i);
  }
  return out;
}

}  // namespace roboads::sensors

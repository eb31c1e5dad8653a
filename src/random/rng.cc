#include "random/rng.h"

#include <cmath>
#include <random>

#include "matrix/decomp.h"

namespace roboads {

Mt19937_64::Mt19937_64(result_type seed) : index_(kStateSize) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateSize; ++i) {
    const result_type prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::twist() {
  constexpr result_type kMatrixA = 0xb5026f5aa96619e9ULL;
  constexpr result_type kUpperMask = ~result_type{0} << 31;
  constexpr std::size_t kShift = 156;
  const auto mix = [](result_type upper, result_type lower,
                      result_type shifted) {
    const result_type y = (upper & kUpperMask) | (lower & ~kUpperMask);
    return shifted ^ (y >> 1) ^ (-(y & 1) & kMatrixA);
  };
  std::size_t k = 0;
  for (; k < kStateSize - kShift; ++k) {
    state_[k] = mix(state_[k], state_[k + 1], state_[k + kShift]);
  }
  for (; k < kStateSize - 1; ++k) {
    state_[k] =
        mix(state_[k], state_[k + 1], state_[k + kShift - kStateSize]);
  }
  state_[kStateSize - 1] =
      mix(state_[kStateSize - 1], state_[0], state_[kShift - 1]);
  index_ = 0;
}

double Rng::uniform(double lo, double hi) {
  ROBOADS_CHECK(lo <= hi, "uniform range inverted");
  return canonical(engine_()) * (hi - lo) + lo;
}

std::size_t Rng::index(std::size_t n) {
  ROBOADS_CHECK(n > 0, "index() on empty range");
  return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
}

double Rng::gaussian(double mean, double stddev) {
  ROBOADS_CHECK(stddev >= 0.0, "negative standard deviation");
  if (stddev == 0.0) return mean;
  return polar(mean, stddev);
}

double Rng::polar(double mean, double stddev) {
  double x, y, r2;
  do {
    x = 2.0 * uniform() - 1.0;
    y = 2.0 * uniform() - 1.0;
    r2 = x * x + y * y;
  } while (r2 > 1.0 || r2 == 0.0);
  const double mult = std::sqrt(-2 * std::log(r2) / r2);
  return y * mult * stddev + mean;
}

Vector Rng::gaussian_vector(std::size_t n) {
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = gaussian();
  return v;
}

GaussianSampler::GaussianSampler(const Matrix& cov) : cov_(cov) {
  ROBOADS_CHECK(cov.square(), "covariance must be square");
  ROBOADS_CHECK(cov.is_symmetric(1e-8), "covariance must be symmetric");
  Cholesky chol(cov_);
  if (chol.ok()) {
    factor_ = chol.l();
    return;
  }
  // PSD fallback: factor via the symmetric eigendecomposition, clamping tiny
  // negative eigenvalues born of floating-point noise to zero.
  const SymmetricEigen eig = eigen_symmetric(cov_);
  Matrix scaled = eig.eigenvectors;
  for (std::size_t j = 0; j < scaled.cols(); ++j) {
    const double lam = eig.eigenvalues[j];
    ROBOADS_CHECK(lam > -1e-9 * std::max(1.0, cov_.norm_inf()),
                  "covariance has a significantly negative eigenvalue");
    const double s = lam > 0.0 ? std::sqrt(lam) : 0.0;
    for (std::size_t i = 0; i < scaled.rows(); ++i) scaled(i, j) *= s;
  }
  factor_ = scaled;
}

Vector GaussianSampler::sample(Rng& rng) const {
  if (dimension() == 0) return Vector();
  return factor_ * rng.gaussian_vector(factor_.cols());
}

}  // namespace roboads

// Deterministic random number generation for simulation and tests.
//
// Every stochastic component in the repository draws from an explicitly
// seeded Rng so that experiments are reproducible run-to-run: the benches
// that regenerate the paper's tables fix their seeds, and property tests
// sweep seeds via parameterization.
//
// The streams are those of the standard library's 64-bit Mersenne Twister
// and libstdc++'s distributions, bit for bit: every golden trace and
// pinned outcome was recorded from them. The engine and the real-valued draws are written out
// here because the library versions pay for branches the values never need
// (tests/rng_test.cc holds the standard library as their oracle).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "matrix/matrix.h"

namespace roboads {

// MT19937-64: the same seeding, twist and tempering as the standard
// library's engine, so equal seeds give equal streams. The twist selects the matrix term with a
// mask, -(y & 1) & kMatrixA, where libstdc++ branches on the low bit, which
// is a coin flip per word. A uniform random bit generator, so the standard
// distributions run on it unchanged.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(result_type seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (index_ >= kStateSize) twist();
    result_type z = state_[index_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

  // Equal state words and position, as the standard engine's operator==.
  friend bool operator==(const Mt19937_64&, const Mt19937_64&) = default;

 private:
  static constexpr std::size_t kStateSize = 312;

  void twist();

  std::array<result_type, kStateSize> state_;
  std::size_t index_;
};

// std::generate_canonical<double, 53> of one 64-bit draw x, as libstdc++
// computes it: double(x) / 2^64, clamped below 1 when x >= 2^64 - 2^10
// rounds up to 2^64. double(x) is the sum of x's two 32-bit halves, each
// converted exactly and the sum rounded once, which is the correctly
// rounded value the library's top-bit branch also produces. Scaling by
// 2^-64 is exact, and taking the smaller of v and nextafter(1, 0) equals
// the library's `>= 1` clamp because no double below 1 exceeds it.
inline double canonical(std::uint64_t x) {
  const double hi = static_cast<double>(static_cast<std::uint32_t>(x >> 32));
  const double lo = static_cast<double>(static_cast<std::uint32_t>(x));
  const double below_one = 0x1.fffffffffffffp-1;
  const double v = (hi * 0x1p32 + lo) * 0x1p-64;
  return v < below_one ? v : below_one;
}

// A seeded pseudo-random source with Gaussian sampling helpers. Each draw
// equals the std distribution named beside it on a same-seeded standard
// engine.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  // Uniform in [0, 1): std::generate_canonical<double, 53>.
  double uniform() { return canonical(engine_()); }
  // Uniform in [lo, hi): std::uniform_real_distribution<double>(lo, hi).
  double uniform(double lo, double hi);
  // Uniform integer in [0, n): std::uniform_int_distribution.
  std::size_t index(std::size_t n);
  // Standard normal: a fresh std::normal_distribution<double>(0, 1).
  double gaussian() { return polar(0.0, 1.0); }
  // Normal with the given mean / standard deviation; no draw when the
  // deviation is 0.
  double gaussian(double mean, double stddev);
  // out[i] = the i-th of out.size() successive gaussian(mean, stddev) calls,
  // bit for bit, the engine left where they would leave it. A block of
  // kGaussianBlock draws takes all its engine values first and its
  // logarithms after, so the libm calls overlap; each value is computed by
  // the same operations either way.
  void gaussian(double mean, double stddev, std::span<double> out);
  static constexpr std::size_t kGaussianBlock = 16;

  // Vector of iid standard normals.
  Vector gaussian_vector(std::size_t n);

  // Draws a fresh seed for a derived generator; lets components own
  // independent streams split off one master seed.
  std::uint64_t split() { return engine_(); }

  Mt19937_64& engine() { return engine_; }

 private:
  // libstdc++'s Marsaglia polar draw of a fresh normal_distribution, in two
  // halves: polar_point draws (x, y) until it lies in the unit disc, not at
  // its centre, and keeps y and r2 = x^2 + y^2; polar_value scales y. The
  // spare value x * mult is dropped with the distribution.
  struct PolarPoint {
    double y;
    double r2;
  };
  PolarPoint polar_point();
  static double polar_value(const PolarPoint& p, double mean, double stddev);
  double polar(double mean, double stddev);

  Mt19937_64 engine_;
};

// Samples from N(0, cov) using the Cholesky factor of `cov`. For positive
// semi-definite covariances with zero rows/columns (e.g. a disabled noise
// channel) the corresponding components are returned as exact zeros.
class GaussianSampler {
 public:
  explicit GaussianSampler(const Matrix& cov);

  const Matrix& covariance() const { return cov_; }
  std::size_t dimension() const { return cov_.rows(); }

  Vector sample(Rng& rng) const;

 private:
  Matrix cov_;
  Matrix factor_;  // lower-triangular such that factor * factor^T == cov
};

}  // namespace roboads

// Oracle for the Cholesky certificate in core::repair_covariance: on every
// input, the certified function must return the same bool and leave the
// covariance bit-identical to the eigen-only repair it replaced, kept here
// verbatim as the reference. The cases straddle the decision boundary
// (λmin at ±0.5 and ±2 psd_tol·max(1, λmax)), sit on it (exactly PSD,
// rank-deficient matrices; λmin = −1e-14·λmax), span scalings of 1e±8 and
// sizes 1–4 and 10, and include psd_tol = 0, where only the eigen path may
// decide.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "core/health.h"
#include "matrix/decomp.h"

namespace roboads::core {
namespace {

// repair_covariance before the certificate: always decides on the Jacobi
// eigendecomposition.
bool reference_repair(Matrix& cov, const HealthConfig& cfg) {
  if (cov.empty()) return false;
  const SymmetricEigen eig = eigen_symmetric(cov.symmetrized());
  const std::size_t n = eig.eigenvalues.size();
  const double lambda_max = std::max(eig.eigenvalues[0], 0.0);
  const double scale = std::max(1.0, lambda_max);
  if (eig.eigenvalues[n - 1] >= -cfg.psd_tol * scale) return false;

  const double floor = cfg.eigen_floor * scale;
  Matrix repaired(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const double lambda = std::max(eig.eigenvalues[i], floor);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        repaired(r, c) +=
            lambda * eig.eigenvectors(r, i) * eig.eigenvectors(c, i);
      }
    }
  }
  cov = repaired.symmetrized();
  return true;
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

// Runs both paths on copies of `m`; returns the reference decision.
bool expect_same_outcome(const Matrix& m, const HealthConfig& cfg,
                         const std::string& what) {
  Matrix got = m;
  Matrix want = m;
  const bool got_repaired = repair_covariance(got, cfg);
  const bool want_repaired = reference_repair(want, cfg);
  EXPECT_EQ(got_repaired, want_repaired) << what;
  EXPECT_TRUE(same_bits(got, want)) << what;
  return want_repaired;
}

std::vector<HealthConfig> configs() {
  std::vector<HealthConfig> out(4);
  out[1].psd_tol = 0.0;  // below every certificate margin
  out[2].psd_tol = 1e-6;
  out[3].eigen_floor = 1e-6;
  return out;
}

std::string describe(const HealthConfig& cfg) {
  return "psd_tol=" + std::to_string(cfg.psd_tol) +
         " eigen_floor=" + std::to_string(cfg.eigen_floor);
}

// Q·diag(λ)·Qᵀ for a random orthogonal Q (the eigenvectors of a random
// symmetric matrix), symmetrized as the detector's covariances are.
Matrix with_spectrum(std::mt19937_64& rng, const std::vector<double>& lambda) {
  const std::size_t n = lambda.size();
  std::normal_distribution<double> normal;
  Matrix r(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) r(i, j) = r(j, i) = normal(rng);
  const Matrix q = eigen_symmetric(r).eigenvectors;
  Matrix m = q * Matrix::diagonal(Vector(lambda)) * q.transpose();
  m.symmetrize();
  return m;
}

const std::size_t kSizes[] = {1, 2, 3, 4, 10};
const double kScalings[] = {1.0, 1e8, 1e-8};

TEST(RepairOracle, ExactlyPsdRankDeficientMatrices) {
  // B·Bᵀ with small-integer B is exact in doubles: exactly PSD, rank ≤ r.
  std::mt19937_64 rng(11);
  for (std::size_t n : kSizes) {
    for (std::size_t r = 0; r < n; ++r) {
      for (double scaling : kScalings) {
        for (int trial = 0; trial < 4; ++trial) {
          Matrix b(n, std::max<std::size_t>(r, 1));
          if (r > 0) {
            for (std::size_t i = 0; i < n; ++i)
              for (std::size_t j = 0; j < r; ++j)
                b(i, j) = static_cast<double>(static_cast<int>(rng() % 7) - 3);
          }
          const Matrix m = b * b.transpose() * scaling;
          for (const HealthConfig& cfg : configs()) {
            expect_same_outcome(m, cfg,
                                "n=" + std::to_string(n) +
                                    " rank<=" + std::to_string(r) + " " +
                                    describe(cfg));
          }
        }
      }
    }
  }
}

TEST(RepairOracle, SmallestEigenvalueAroundTheRepairThreshold) {
  std::mt19937_64 rng(12);
  std::uniform_real_distribution<double> unit(0.1, 1.0);
  std::size_t repaired = 0;
  std::size_t kept = 0;
  for (std::size_t n : kSizes) {
    for (double scaling : kScalings) {
      const double lambda_max = scaling;
      for (const HealthConfig& cfg : configs()) {
        const double threshold = cfg.psd_tol * std::max(1.0, lambda_max);
        for (double factor : {-2.0, -0.5, 0.5, 2.0}) {
          for (int trial = 0; trial < 3; ++trial) {
            std::vector<double> lambda(n);
            lambda[0] = lambda_max;
            for (std::size_t i = 1; i < n; ++i)
              lambda[i] = lambda_max * unit(rng);
            if (n > 1) lambda[n - 1] = factor * threshold;
            const Matrix m = with_spectrum(rng, lambda);
            const bool did = expect_same_outcome(
                m, cfg,
                "n=" + std::to_string(n) + " lambda_max=" +
                    std::to_string(lambda_max) + " lambda_min=" +
                    std::to_string(factor) + "*threshold " + describe(cfg));
            (did ? repaired : kept) += 1;
          }
        }
      }
    }
  }
  // Both sides of the boundary were exercised.
  EXPECT_GT(repaired, 50u);
  EXPECT_GT(kept, 50u);
}

TEST(RepairOracle, RoundingNoiseBelowTheThresholdIsKept) {
  std::mt19937_64 rng(13);
  for (std::size_t n : kSizes) {
    if (n == 1) continue;
    for (double scaling : kScalings) {
      for (int trial = 0; trial < 5; ++trial) {
        std::vector<double> lambda(n, scaling);
        for (std::size_t i = 1; i < n; ++i) lambda[i] = scaling / (i + 1.0);
        lambda[n - 1] = -1e-14 * scaling;
        const Matrix m = with_spectrum(rng, lambda);
        const HealthConfig cfg;
        EXPECT_FALSE(expect_same_outcome(
            m, cfg, "n=" + std::to_string(n) + " scale=" +
                        std::to_string(scaling)));
      }
    }
  }
}

// psd_tol = 0 lies below every certificate margin, so the eigen path must
// decide even where the factorization succeeds: find matrices whose
// Cholesky factorization completes although their computed smallest
// eigenvalue is negative, and check they are still repaired.
TEST(RepairOracle, ZeroToleranceStillTakesTheEigenPath) {
  std::mt19937_64 rng(14);
  HealthConfig zero_tol;
  zero_tol.psd_tol = 0.0;
  std::size_t found = 0;
  for (int trial = 0; trial < 2000 && found < 10; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(trial % 3);
    std::vector<double> lambda(n, 1.0);
    lambda[n - 1] = 1e-17 * static_cast<double>(trial % 5);
    const Matrix m = with_spectrum(rng, lambda);
    if (!Cholesky(m).ok()) continue;
    Matrix probe = m;
    if (!reference_repair(probe, zero_tol)) continue;
    ++found;
    EXPECT_TRUE(expect_same_outcome(m, zero_tol, "trial " +
                                                     std::to_string(trial)));
  }
  EXPECT_EQ(found, 10u);
}

}  // namespace
}  // namespace roboads::core

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "matrix/decomp.h"
#include "random/rng.h"
#include "stats/chi_square.h"
#include "stats/gaussian.h"
#include "stats/metrics.h"

namespace roboads::stats {
namespace {

TEST(LogGamma, KnownValues) {
  EXPECT_NEAR(log_gamma(1.0), 0.0, 1e-12);
  EXPECT_NEAR(log_gamma(2.0), 0.0, 1e-12);
  EXPECT_NEAR(log_gamma(5.0), std::log(24.0), 1e-11);
  EXPECT_NEAR(log_gamma(0.5), 0.5 * std::log(M_PI), 1e-11);
  EXPECT_THROW(log_gamma(0.0), roboads::CheckError);
}

TEST(RegularizedGamma, Complementarity) {
  for (double a : {0.5, 1.0, 2.5, 10.0}) {
    for (double x : {0.1, 1.0, 5.0, 20.0}) {
      EXPECT_NEAR(regularized_gamma_p(a, x) + regularized_gamma_q(a, x), 1.0,
                  1e-12);
    }
  }
}

TEST(ChiSquare, CdfKnownValues) {
  // χ²(1): CDF(x) = erf(sqrt(x/2)).
  EXPECT_NEAR(chi_square_cdf(1.0, 1), std::erf(std::sqrt(0.5)), 1e-10);
  // χ²(2) is Exp(1/2): CDF(x) = 1 - exp(-x/2).
  EXPECT_NEAR(chi_square_cdf(3.0, 2), 1.0 - std::exp(-1.5), 1e-12);
  EXPECT_EQ(chi_square_cdf(0.0, 3), 0.0);
  EXPECT_EQ(chi_square_cdf(-1.0, 3), 0.0);
}

TEST(ChiSquare, SurvivalComplementsCdf) {
  for (std::size_t dof : {1u, 2u, 3u, 7u}) {
    for (double x : {0.5, 2.0, 9.0, 30.0}) {
      EXPECT_NEAR(chi_square_cdf(x, dof) + chi_square_sf(x, dof), 1.0, 1e-12);
    }
  }
}

TEST(ChiSquare, QuantileTextbookValues) {
  // Standard table values.
  EXPECT_NEAR(chi_square_quantile(0.95, 1), 3.841, 5e-3);
  EXPECT_NEAR(chi_square_quantile(0.95, 2), 5.991, 5e-3);
  EXPECT_NEAR(chi_square_quantile(0.95, 3), 7.815, 5e-3);
  EXPECT_NEAR(chi_square_quantile(0.995, 3), 12.838, 5e-3);
  EXPECT_NEAR(chi_square_quantile(0.99, 10), 23.209, 5e-3);
}

TEST(ChiSquare, QuantileInvertsCdf) {
  for (std::size_t dof : {1u, 2u, 3u, 5u, 12u}) {
    for (double p : {0.005, 0.05, 0.5, 0.95, 0.995}) {
      const double x = chi_square_quantile(p, dof);
      EXPECT_NEAR(chi_square_cdf(x, dof), p, 1e-9)
          << "dof=" << dof << " p=" << p;
    }
  }
}

TEST(ChiSquare, ThresholdIsUpperQuantile) {
  EXPECT_NEAR(chi_square_threshold(0.05, 2), chi_square_quantile(0.95, 2),
              1e-12);
  EXPECT_THROW(chi_square_threshold(0.0, 2), roboads::CheckError);
  EXPECT_THROW(chi_square_threshold(1.0, 2), roboads::CheckError);
}

// The memo must hand back the direct solve's exact bits over the (α, dof)
// grid the detectors use: the paper's α = 0.005 / 0.05, the Fig. 7 sweep of
// fig7_decision_params, and every stacked dimension up to the largest
// suite's (10) with room to spare — on the solving call and on later hits.
TEST(ChiSquare, MemoizedThresholdIsBitIdenticalToDirect) {
  const double alphas[] = {0.0005, 0.001, 0.005, 0.01, 0.05, 0.1,  0.2,
                           0.4,    0.6,   0.8,   0.9,  0.95, 0.995};
  for (int pass = 0; pass < 2; ++pass) {
    for (double alpha : alphas) {
      for (std::size_t dof = 0; dof <= 16; ++dof) {
        const double direct = chi_square_threshold(alpha, dof);
        const double memo = chi_square_threshold_memo(alpha, dof);
        EXPECT_EQ(std::memcmp(&direct, &memo, sizeof(double)), 0)
            << "alpha=" << alpha << " dof=" << dof << " pass=" << pass;
      }
    }
  }
  // A bad α is rejected every time, never cached.
  for (int pass = 0; pass < 2; ++pass) {
    EXPECT_THROW(chi_square_threshold_memo(0.0, 2), roboads::CheckError);
    EXPECT_THROW(chi_square_threshold_memo(1.0, 2), roboads::CheckError);
  }
}

TEST(ChiSquare, ZeroDofThresholdIsZero) {
  // dof = 0 means a zero-dimensional statistic (identically 0): the
  // threshold degenerates to 0 instead of tripping the quantile's domain
  // check. The distribution functions themselves still require dof >= 1.
  EXPECT_DOUBLE_EQ(chi_square_threshold(0.05, 0), 0.0);
  EXPECT_DOUBLE_EQ(chi_square_threshold(0.995, 0), 0.0);
  EXPECT_THROW(chi_square_cdf(1.0, 0), roboads::CheckError);
  EXPECT_THROW(chi_square_sf(1.0, 0), roboads::CheckError);
  EXPECT_THROW(chi_square_quantile(0.5, 0), roboads::CheckError);
}

TEST(ChiSquare, QuantileExtremeTails) {
  for (std::size_t dof : {1u, 3u, 9u}) {
    // p → 0: quantile collapses toward 0 but stays finite and positive.
    // The safeguarded Newton resolves x only to ~1e-13 absolute, so for
    // dof = 1 (where x* ≈ 1e-24) the recovered CDF can only be bounded
    // small, not matched to p.
    const double lo = chi_square_quantile(1e-12, dof);
    EXPECT_TRUE(std::isfinite(lo));
    EXPECT_GT(lo, 0.0);
    EXPECT_LE(chi_square_cdf(lo, dof), 1e-6);
    // p → 1: quantile grows but stays finite, with the matching tiny
    // survival probability.
    const double hi = chi_square_quantile(1.0 - 1e-12, dof);
    EXPECT_TRUE(std::isfinite(hi));
    EXPECT_GT(hi, static_cast<double>(dof));
    EXPECT_NEAR(chi_square_sf(hi, dof), 1e-12, 1e-13);
    EXPECT_LT(lo, hi);
  }
  // The boundaries themselves stay out of the domain.
  EXPECT_THROW(chi_square_quantile(0.0, 3), roboads::CheckError);
  EXPECT_THROW(chi_square_quantile(1.0, 3), roboads::CheckError);
}

TEST(ChiSquare, HugeStatisticsSaturateCleanly) {
  // A wildly diverged anomaly statistic (the kind health supervision exists
  // to catch upstream) must still produce a clean probability, not NaN.
  for (std::size_t dof : {1u, 3u, 30u}) {
    for (double x : {1e6, 1e8, 1e12}) {
      const double cdf = chi_square_cdf(x, dof);
      const double sf = chi_square_sf(x, dof);
      EXPECT_TRUE(std::isfinite(cdf));
      EXPECT_TRUE(std::isfinite(sf));
      EXPECT_DOUBLE_EQ(cdf, 1.0) << "dof=" << dof << " x=" << x;
      EXPECT_GE(sf, 0.0);
      EXPECT_LE(sf, 1e-6);
    }
  }
}

TEST(ChiSquare, StatisticOfGaussianSamplesMatchesDistribution) {
  // Monte-Carlo: x^T Σ⁻¹ x for x ~ N(0, Σ) should exceed the α-threshold
  // with probability ≈ α.
  roboads::Matrix cov{{2.0, 0.3, 0.0}, {0.3, 1.0, -0.2}, {0.0, -0.2, 0.5}};
  roboads::GaussianSampler sampler(cov);
  roboads::Rng rng(123);
  const roboads::Matrix inv = roboads::inverse_spd(cov);
  const double alpha = 0.05;
  const double thresh = chi_square_threshold(alpha, 3);
  int exceed = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const roboads::Vector x = sampler.sample(rng);
    if (roboads::quadratic_form(inv, x) > thresh) ++exceed;
  }
  EXPECT_NEAR(static_cast<double>(exceed) / n, alpha, 0.01);
}

// Line 20's density from a covariance's rank, log pseudo-determinant and
// Mahalanobis form xᵀ cov⁺ x.
double log_pdf(const roboads::Vector& x, const roboads::Matrix& cov) {
  return degenerate_gaussian_log_pdf(
      roboads::rank(cov), roboads::log_pseudo_determinant(cov),
      roboads::quadratic_form(roboads::spd_pseudo_inverse(cov), x));
}

TEST(Gaussian, LogPdfMatchesClosedForm1D) {
  // N(0, 4) at x=2: -0.5*(log(2π) + log 4 + 1).
  const double expected = -0.5 * (std::log(2.0 * M_PI) + std::log(4.0) + 1.0);
  EXPECT_NEAR(log_pdf(roboads::Vector{2.0}, roboads::Matrix{{4.0}}), expected,
              1e-12);
}

TEST(Gaussian, DegenerateRankDeficient) {
  // cov = diag(1, 0): density reduces to the 1-D density on the support.
  roboads::Matrix cov = roboads::Matrix::diagonal(roboads::Vector{1.0, 0.0});
  roboads::Vector x{1.5, 0.0};
  const double expected = -0.5 * (std::log(2.0 * M_PI) + 1.5 * 1.5);
  EXPECT_NEAR(log_pdf(x, cov), expected, 1e-8);
}

TEST(Metrics, RatesAndF1) {
  ConfusionCounts c;
  c.true_positives = 8;
  c.false_positives = 2;
  c.true_negatives = 88;
  c.false_negatives = 2;
  EXPECT_NEAR(c.false_positive_rate(), 2.0 / 90.0, 1e-12);
  EXPECT_NEAR(c.false_negative_rate(), 0.2, 1e-12);
  EXPECT_NEAR(c.true_positive_rate(), 0.8, 1e-12);
  EXPECT_NEAR(c.precision(), 0.8, 1e-12);
  EXPECT_NEAR(c.f1(), 0.8, 1e-12);
  EXPECT_EQ(c.total(), 100u);
}

TEST(Metrics, EmptyDenominatorsAreZero) {
  ConfusionCounts c;
  EXPECT_EQ(c.false_positive_rate(), 0.0);
  EXPECT_EQ(c.false_negative_rate(), 0.0);
  EXPECT_EQ(c.precision(), 0.0);
  EXPECT_EQ(c.f1(), 0.0);
}

TEST(Metrics, Accumulation) {
  ConfusionCounts a;
  a.true_positives = 1;
  ConfusionCounts b;
  b.false_negatives = 2;
  a += b;
  EXPECT_EQ(a.true_positives, 1u);
  EXPECT_EQ(a.false_negatives, 2u);
}

TEST(Metrics, RocAucPerfectAndRandom) {
  // Perfect classifier: TPR=1 at FPR=0.
  EXPECT_NEAR(roc_auc({{0.0, 0.0, 1.0}}), 1.0, 1e-12);
  // Chance diagonal.
  EXPECT_NEAR(roc_auc({{0.0, 0.5, 0.5}}), 0.5, 1e-12);
}

TEST(Metrics, MeanAndStddev) {
  EXPECT_EQ(mean({}), 0.0);
  EXPECT_NEAR(mean({1.0, 2.0, 3.0}), 2.0, 1e-12);
  EXPECT_NEAR(sample_stddev({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}),
              std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_EQ(sample_stddev({1.0}), 0.0);
}

// Property sweep: the quantile function is monotone in p and dof.
class ChiSquareMonotoneProperty
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChiSquareMonotoneProperty, QuantileMonotoneInP) {
  const std::size_t dof = GetParam();
  double prev = 0.0;
  for (double p = 0.05; p < 1.0; p += 0.05) {
    const double q = chi_square_quantile(p, dof);
    EXPECT_GT(q, prev);
    prev = q;
  }
}

TEST_P(ChiSquareMonotoneProperty, CdfMonotoneInX) {
  const std::size_t dof = GetParam();
  double prev = -1.0;
  for (double x = 0.0; x < 40.0; x += 0.5) {
    const double c = chi_square_cdf(x, dof);
    EXPECT_GE(c, prev);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    prev = c;
  }
}

INSTANTIATE_TEST_SUITE_P(Dofs, ChiSquareMonotoneProperty,
                         ::testing::Values(1, 2, 3, 4, 6, 10, 20));

}  // namespace
}  // namespace roboads::stats

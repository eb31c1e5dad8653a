#include "matrix/decomp.h"

#include <gtest/gtest.h>

#include <cmath>

namespace roboads {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, unsigned seed) {
  Matrix m(rows, cols);
  unsigned state = seed;
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) {
      state = state * 1664525u + 1013904223u;
      m(i, j) = static_cast<double>(state % 4001) / 1000.0 - 2.0;
    }
  return m;
}

Matrix random_spd(std::size_t n, unsigned seed) {
  const Matrix a = random_matrix(n, n, seed);
  return (a * a.transpose() + Matrix::identity(n) * 0.5).symmetrized();
}

void expect_near(const Matrix& a, const Matrix& b, double tol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      EXPECT_NEAR(a(i, j), b(i, j), tol) << "at (" << i << "," << j << ")";
}

TEST(Cholesky, FactorReconstructs) {
  const Matrix a = random_spd(4, 11u);
  Cholesky chol(a);
  ASSERT_TRUE(chol.ok());
  expect_near(chol.l() * chol.l().transpose(), a, 1e-10);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_FALSE(Cholesky(a).ok());
}

TEST(Cholesky, LogDeterminantMatchesLu) {
  // Cofactor expansion along the first row: 4·(5·3 − 1·1) − 2·(2·3) = 44.
  const Matrix a{{4.0, 2.0, 0.0}, {2.0, 5.0, 1.0}, {0.0, 1.0, 3.0}};
  Cholesky chol(a);
  ASSERT_TRUE(chol.ok());
  EXPECT_NEAR(chol.log_determinant(), std::log(44.0), 1e-12);
}

TEST(EigenSymmetric, DiagonalMatrix) {
  const SymmetricEigen e = eigen_symmetric(Matrix::diagonal(Vector{1.0, 3.0, 2.0}));
  EXPECT_NEAR(e.eigenvalues[0], 3.0, 1e-12);
  EXPECT_NEAR(e.eigenvalues[1], 2.0, 1e-12);
  EXPECT_NEAR(e.eigenvalues[2], 1.0, 1e-12);
}

TEST(EigenSymmetric, KnownEigenpair) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  const SymmetricEigen e = eigen_symmetric(Matrix{{2.0, 1.0}, {1.0, 2.0}});
  EXPECT_NEAR(e.eigenvalues[0], 3.0, 1e-12);
  EXPECT_NEAR(e.eigenvalues[1], 1.0, 1e-12);
}

TEST(Svd, ReconstructsRectangular) {
  const Matrix a = random_matrix(5, 3, 31u);
  const Svd s = svd(a);
  const Matrix rebuilt = s.u * Matrix::diagonal(s.sigma) * s.v.transpose();
  expect_near(rebuilt, a, 1e-9);
  // Singular values sorted descending and non-negative.
  for (std::size_t i = 0; i + 1 < s.sigma.size(); ++i) {
    EXPECT_GE(s.sigma[i], s.sigma[i + 1]);
    EXPECT_GE(s.sigma[i + 1], 0.0);
  }
}

TEST(Svd, WideMatrix) {
  const Matrix a = random_matrix(2, 6, 37u);
  const Svd s = svd(a);
  expect_near(s.u * Matrix::diagonal(s.sigma) * s.v.transpose(), a, 1e-9);
}

TEST(Rank, DetectsDeficiency) {
  Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_EQ(rank(a), 1u);
  EXPECT_EQ(rank(Matrix::identity(3)), 3u);
  EXPECT_EQ(rank(Matrix(3, 3)), 0u);
}

TEST(PseudoInverse, MatchesInverseWhenFullRank) {
  const Matrix a = random_spd(3, 41u);
  expect_near(pseudo_inverse(a), Cholesky(a).inverse(), 1e-8);
}

TEST(PseudoInverse, MoorePenroseConditions) {
  Matrix a{{1.0, 2.0}, {2.0, 4.0}, {0.0, 0.0}};  // rank 1, 3x2
  const Matrix p = pseudo_inverse(a);
  expect_near(a * p * a, a, 1e-9);
  expect_near(p * a * p, p, 1e-9);
  expect_near((a * p).transpose(), a * p, 1e-9);
  expect_near((p * a).transpose(), p * a, 1e-9);
}

TEST(PseudoDeterminant, ProductOfNonzeroEigenvalues) {
  // diag(2, 3, 0): pseudo-determinant is 6.
  EXPECT_NEAR(log_pseudo_determinant(Matrix::diagonal(Vector{2.0, 3.0, 0.0})),
              std::log(6.0), 1e-9);
}

TEST(InverseSpd, AgreesWithLu) {
  const Matrix a = random_spd(4, 61u);
  expect_near(inverse_spd(a), pseudo_inverse(a), 1e-8);
}

TEST(Cholesky, SolveInPlaceMatchesSolve) {
  const Matrix a = random_spd(5, 71u);
  const Cholesky chol(a);
  ASSERT_TRUE(chol.ok());
  const Vector b = random_matrix(5, 1, 77u).col(0);
  const Vector x = chol.solve(b);
  Vector y = b;
  chol.solve_in_place(y);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(y[i], x[i], 0.0);
}

TEST(QuadraticFormSpd, MatchesExplicitInverseAndStaysNonNegative) {
  const Matrix a = random_spd(4, 83u);
  const Cholesky chol(a);
  ASSERT_TRUE(chol.ok());
  const Vector b = random_matrix(4, 1, 89u).col(0);
  EXPECT_NEAR(quadratic_form_spd(chol, b),
              quadratic_form(pseudo_inverse(a), b), 1e-9);
  // ||L^{-1}b||² cannot go negative no matter the conditioning.
  Matrix ill = Matrix::diagonal(Vector{1.0, 1e-14});
  ill(0, 1) = ill(1, 0) = 5e-8;
  const Cholesky chol_ill(ill);
  ASSERT_TRUE(chol_ill.ok());
  EXPECT_GE(quadratic_form_spd(chol_ill, Vector{1.0, 1.0}), 0.0);
}

TEST(SpdPseudoInverse, ResultIsExactlySymmetric) {
  // A generic SPD matrix whose eigenvector products carry rounding noise:
  // every (i,j)/(j,i) pair must still match bit-for-bit.
  for (unsigned seed : {3u, 19u, 101u}) {
    const Matrix p = spd_pseudo_inverse(random_spd(5, seed));
    for (std::size_t i = 0; i < p.rows(); ++i)
      for (std::size_t j = 0; j < i; ++j)
        EXPECT_EQ(p(i, j), p(j, i)) << "seed " << seed;
  }
  // Rank-deficient input too.
  Matrix low{{4.0, 2.0, 0.0}, {2.0, 1.0, 0.0}, {0.0, 0.0, 0.0}};  // rank 1
  const Matrix p = spd_pseudo_inverse(low);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < i; ++j) EXPECT_EQ(p(i, j), p(j, i));
}

TEST(SpdFactor, CholeskyPathAgreesWithEigenOnRandomSpd) {
  for (unsigned seed : {7u, 23u, 91u}) {
    const Matrix a = random_spd(5, seed);
    const SpdFactor fac(a);
    ASSERT_TRUE(fac.positive_definite()) << "seed " << seed;
    const SpdEigenFactor eig(a);
    const Vector b = random_matrix(5, 1, seed + 1u).col(0);
    const Vector x_c = fac.solve(b);
    const Vector x_e = eig.solve(b);
    for (std::size_t i = 0; i < 5; ++i)
      EXPECT_NEAR(x_c[i], x_e[i], 1e-8) << "seed " << seed;
    EXPECT_NEAR(fac.quadratic_form(b), eig.quadratic_form(b), 1e-7);
    EXPECT_NEAR(fac.log_determinant(), eig.log_pseudo_determinant(), 1e-8);
  }
}

TEST(SpdFactor, RankDeficientFallbackMatchesSpdPseudoInverse) {
  // Structurally singular PSD: the Cholesky must fail and the eigen
  // fallback must reproduce spd_pseudo_inverse semantics exactly.
  Matrix a{{2.0, 2.0, 0.0}, {2.0, 2.0, 0.0}, {0.0, 0.0, 3.0}};  // rank 2
  const SpdFactor fac(a);
  EXPECT_FALSE(fac.positive_definite());
  const Matrix pinv = spd_pseudo_inverse(a);
  const Vector b{1.0, -1.0, 2.0};
  const Vector x = fac.solve(b);
  const Vector x_ref = pinv * b;
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], x_ref[i], 1e-12);
  EXPECT_NEAR(fac.quadratic_form(b), quadratic_form(pinv, b), 1e-12);
  EXPECT_GE(fac.quadratic_form(b), 0.0);
  EXPECT_NEAR(fac.log_determinant(), log_pseudo_determinant(a), 1e-9);
  // Matrix right-hand side takes the same fallback.
  const Matrix xm = fac.solve(Matrix::identity(3));
  expect_near(xm, pinv, 1e-12);
}

TEST(SpdEigenFactor, SharesOneDecompositionAcrossAllQuantities) {
  const Matrix a = random_spd(4, 131u);
  const SpdEigenFactor fac(a);
  EXPECT_EQ(fac.dim(), 4u);
  EXPECT_EQ(fac.rank(), 4u);
  expect_near(fac.pseudo_inverse(), spd_pseudo_inverse(a), 1e-12);
  const Vector b = random_matrix(4, 1, 137u).col(0);
  EXPECT_NEAR(fac.quadratic_form(b),
              quadratic_form(spd_pseudo_inverse(a), b), 1e-8);
  EXPECT_NEAR(fac.log_pseudo_determinant(), log_pseudo_determinant(a), 1e-9);
}

TEST(SpdEigenFactor, DimScaledCutoffMatchesSvdRankConvention) {
  // Two nearly-degenerate directions: the likelihood-path cutoff
  // (rel_tol * dim * λ_max) must agree with the global rank() helper.
  Matrix a = Matrix::diagonal(Vector{1.0, 1e-11, 1e-18});
  const SpdEigenFactor fac(a, 1e-10, /*dim_scaled=*/true);
  EXPECT_EQ(fac.rank(), rank(a));
}

// Factorization round-trips across sizes and seeds.
class DecompProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DecompProperty, LuSolveRoundTrip) {
  const auto [n, seed] = GetParam();
  const Matrix a =
      random_matrix(n, n, static_cast<unsigned>(seed)) +
      Matrix::identity(n) * 5.0;  // diagonally dominant => well-conditioned
  const Vector x_true = random_matrix(n, 1, static_cast<unsigned>(seed) + 7u).col(0);
  const Vector x = pseudo_inverse(a) * (a * x_true);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST_P(DecompProperty, InverseProductIsIdentity) {
  const auto [n, seed] = GetParam();
  const Matrix a = random_spd(n, static_cast<unsigned>(seed) * 101u + 3u);
  expect_near(a * pseudo_inverse(a), Matrix::identity(n), 1e-8);
  expect_near(a * Cholesky(a).inverse(), Matrix::identity(n), 1e-8);
}

TEST_P(DecompProperty, EigenDecompositionReconstructs) {
  const auto [n, seed] = GetParam();
  const Matrix a = random_spd(n, static_cast<unsigned>(seed) * 211u + 5u);
  const SymmetricEigen e = eigen_symmetric(a);
  const Matrix rebuilt =
      e.eigenvectors * Matrix::diagonal(e.eigenvalues) * e.eigenvectors.transpose();
  expect_near(rebuilt, a, 1e-8);
  // Orthonormality of eigenvectors.
  expect_near(e.eigenvectors.transpose() * e.eigenvectors,
              Matrix::identity(n), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, DecompProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace roboads

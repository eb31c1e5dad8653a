// Matrix factorizations and solvers used by the estimation stack.
//
// Everything here operates on the small dense matrices of `matrix.h`.
// Solvers throw roboads::CheckError on structurally invalid input (shape
// mismatch) and report numerical rank-deficiency through their result types
// rather than by throwing, since near-singular innovation covariances are an
// expected runtime condition for the detector.
#pragma once

#include <optional>

#include "matrix/matrix.h"

namespace roboads {

// Cholesky factorization A = L * L^T of a symmetric positive-definite matrix.
class Cholesky {
 public:
  explicit Cholesky(const Matrix& a);

  // True when the factorization succeeded (matrix was numerically SPD).
  bool ok() const { return ok_; }
  const Matrix& l() const { return l_; }

  // Solves A x = b. Requires ok().
  Vector solve(const Vector& b) const;
  Matrix solve(const Matrix& b) const;
  // Solves A x = b overwriting `b` with x; performs no allocation.
  void solve_in_place(Vector& b) const;
  Matrix inverse() const;
  // log(det(A)) computed stably from the factor diagonal. Requires ok().
  double log_determinant() const;

 private:
  Matrix l_;
  bool ok_ = false;
};

// b^T A^{-1} b evaluated as ||L^{-1} b||^2 using only the forward
// substitution — never materializes an inverse, and is non-negative by
// construction even for ill-conditioned A (the fix for the explicit-inverse
// χ² instability in DecisionMaker::evaluate). Requires chol.ok().
double quadratic_form_spd(const Cholesky& chol, const Vector& b);

// Eigendecomposition of a symmetric matrix via the cyclic Jacobi method:
// A = V * diag(w) * V^T with orthonormal V. Eigenvalues are sorted
// descending by value.
struct SymmetricEigen {
  Vector eigenvalues;   // descending
  Matrix eigenvectors;  // columns correspond to eigenvalues
};
SymmetricEigen eigen_symmetric(const Matrix& a, double tol = 1e-13);

// Thin SVD A = U * diag(s) * V^T via one-sided Jacobi. Singular values are
// sorted descending. Works for any shape (internally transposes when
// rows < cols).
struct Svd {
  Matrix u;        // rows(A) x k
  Vector sigma;    // k, descending, non-negative
  Matrix v;        // cols(A) x k
};
Svd svd(const Matrix& a, double tol = 1e-13);

// Numerical rank with relative tolerance max(m,n) * eps_like * sigma_max.
std::size_t rank(const Matrix& a, double rel_tol = 1e-10);

// Moore-Penrose pseudo-inverse via SVD.
Matrix pseudo_inverse(const Matrix& a, double rel_tol = 1e-10);

// Log of the pseudo-determinant — the product of non-negligible singular
// values; for a symmetric PSD matrix, of its non-zero eigenvalues — computed
// without overflow. Returns 0.0 for rank-0 input, matching the empty-product
// convention.
double log_pseudo_determinant(const Matrix& a, double rel_tol = 1e-10);

// Inverse for symmetric positive (semi-)definite A with pseudo-inverse
// fallback; the workhorse for covariance inversions in χ² statistics.
Matrix inverse_spd(const Matrix& a);

// Pseudo-inverse of a symmetric PSD matrix via its eigendecomposition,
// zeroing eigenvalues below rel_tol * λ_max. Unlike inverse_spd this never
// trusts a numerically-successful Cholesky on a structurally singular
// matrix — required for the NUISE innovation covariance, which loses q
// degrees of freedom to the input-anomaly compensation by construction.
// The result is exactly symmetric.
Matrix spd_pseudo_inverse(const Matrix& a, double rel_tol = 1e-10);

// Eigendecomposition-backed factor of a symmetric PSD matrix. One Jacobi
// eigendecomposition is shared across every quantity Algorithm 2 line 20
// needs from the same matrix — pseudo-inverse, rank, log-pseudo-determinant,
// Mahalanobis quadratic form — where the code previously paid a fresh SVD or
// eigendecomposition per quantity.
class SpdEigenFactor {
 public:
  // Rank cutoff: rel_tol * λ_max when `dim_scaled` is false (the
  // spd_pseudo_inverse convention, used on the NUISE gain path), or
  // rel_tol * dim * λ_max when true (the SVD rank()/pseudo_inverse()
  // convention, used by the degenerate-Gaussian mode likelihood).
  explicit SpdEigenFactor(const Matrix& a, double rel_tol = 1e-10,
                          bool dim_scaled = false);

  std::size_t dim() const { return eig_.eigenvalues.size(); }
  std::size_t rank() const { return rank_; }
  const SymmetricEigen& eigen() const { return eig_; }

  // Moore-Penrose pseudo-inverse; exactly symmetric.
  Matrix pseudo_inverse() const;
  // A⁺ b.
  Vector solve(const Vector& b) const;
  // b^T A⁺ b = Σ_{λ_i > cutoff} (v_i·b)² / λ_i; non-negative by
  // construction.
  double quadratic_form(const Vector& b) const;
  // Σ_{λ_i > cutoff} log λ_i (0 for rank-0 input: empty product).
  double log_pseudo_determinant() const;

 private:
  SymmetricEigen eig_;
  double cutoff_ = 0.0;
  std::size_t rank_ = 0;
};

// Factor of a symmetric positive (semi-)definite matrix: Cholesky when the
// matrix is numerically SPD, eigen pseudo-inverse fallback on detected rank
// deficiency. The workhorse replacement for quadratic_form(inverse_spd(A), v)
// patterns — solves and quadratic forms never materialize an inverse.
class SpdFactor {
 public:
  explicit SpdFactor(const Matrix& a, double rel_tol = 1e-10);

  // True when the Cholesky path is active: the factorization succeeded AND
  // no pivot was negligible against the matrix scale (a rounding-noise pivot
  // on a structurally singular matrix passes the factorization but poisons
  // every solve through it).
  bool positive_definite() const { return !eig_.has_value(); }
  std::size_t dim() const;

  // A^{-1} b (least-squares A⁺ b in the rank-deficient fallback).
  Vector solve(const Vector& b) const;
  // A^{-1} B column-by-column.
  Matrix solve(const Matrix& b) const;
  // b^T A^{-1} b; non-negative by construction on both paths.
  double quadratic_form(const Vector& b) const;
  // log det A on the SPD path, log pseudo-det in the fallback.
  double log_determinant() const;

 private:
  Cholesky chol_;
  std::optional<SpdEigenFactor> eig_;  // engaged only when !chol_.ok()
};

}  // namespace roboads

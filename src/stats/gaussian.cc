#include "stats/gaussian.h"

#include <cmath>

#include "matrix/decomp.h"

namespace roboads::stats {

double gaussian_log_pdf(const Vector& x, const Matrix& cov) {
  ROBOADS_CHECK(cov.square() && cov.rows() == x.size(),
                "gaussian_log_pdf shape mismatch");
  Cholesky chol(cov);
  ROBOADS_CHECK(chol.ok(), "gaussian_log_pdf requires SPD covariance");
  const double n = static_cast<double>(x.size());
  const double maha = x.dot(chol.solve(x));
  return -0.5 * (n * std::log(2.0 * M_PI) + chol.log_determinant() + maha);
}

double degenerate_gaussian_log_pdf(const Vector& x, const Matrix& cov) {
  ROBOADS_CHECK(cov.square() && cov.rows() == x.size(),
                "degenerate_gaussian_log_pdf shape mismatch");
  // Dim-scaled cutoff: mirrors the SVD-based rank()/pseudo_inverse()
  // convention this function was originally written against.
  return degenerate_gaussian_log_pdf(
      x, SpdEigenFactor(cov, /*rel_tol=*/1e-10, /*dim_scaled=*/true));
}

double degenerate_gaussian_log_pdf(const Vector& x,
                                   const SpdEigenFactor& cov_factor) {
  ROBOADS_CHECK_EQ(cov_factor.dim(), x.size(),
                   "degenerate_gaussian_log_pdf shape mismatch");
  if (cov_factor.rank() == 0) return 0.0;
  return degenerate_gaussian_log_pdf(cov_factor.rank(),
                                     cov_factor.log_pseudo_determinant(),
                                     cov_factor.quadratic_form(x));
}

double degenerate_gaussian_log_pdf(std::size_t rank, double log_pseudo_det,
                                   double mahalanobis) {
  if (rank == 0) return 0.0;  // zero-covariance: density collapses to a point
  return -0.5 * (static_cast<double>(rank) * std::log(2.0 * M_PI) +
                 log_pseudo_det + mahalanobis);
}

double degenerate_gaussian_pdf(const Vector& x, const Matrix& cov) {
  return std::exp(degenerate_gaussian_log_pdf(x, cov));
}

}  // namespace roboads::stats

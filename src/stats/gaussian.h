// Multivariate Gaussian densities, including the degenerate (rank-deficient)
// case used by the NUISE mode likelihood.
#pragma once

#include "matrix/decomp.h"
#include "matrix/matrix.h"

namespace roboads::stats {

// log N(x; 0, cov) for full-rank symmetric positive-definite `cov`.
double gaussian_log_pdf(const Vector& x, const Matrix& cov);

// Degenerate Gaussian log-density on the support of `cov`:
//   log [ (2π)^(-n/2) |cov|_+^(-1/2) exp(-x^T cov^† x / 2) ]
// with n = rank(cov), |·|_+ the pseudo-determinant and (·)^† the
// pseudo-inverse — exactly the mode likelihood of Algorithm 2, line 20.
double degenerate_gaussian_log_pdf(const Vector& x, const Matrix& cov);

// As above, evaluated on an already-computed factor of `cov`. The NUISE step
// factors its innovation covariance once for the filter gain and reuses the
// same factor here — rank, pseudo-determinant, and the Mahalanobis form all
// come from the one eigendecomposition.
double degenerate_gaussian_log_pdf(const Vector& x,
                                   const SpdEigenFactor& cov_factor);

// As above, from the factor's rank, log pseudo-determinant and Mahalanobis
// form xᵀ cov⁺ x; 0 when the rank is 0. The compiled NUISE step, which
// factors on the stack, evaluates line 20 through this one expression.
double degenerate_gaussian_log_pdf(std::size_t rank, double log_pseudo_det,
                                   double mahalanobis);

// Convenience: exp of the above, floored at 0.
double degenerate_gaussian_pdf(const Vector& x, const Matrix& cov);

}  // namespace roboads::stats

// The degenerate (rank-deficient) Gaussian density of the NUISE mode
// likelihood.
#pragma once

#include <cstddef>

namespace roboads::stats {

// Degenerate Gaussian log-density on the support of a covariance, from its
// rank n, log pseudo-determinant log|cov|₊ and Mahalanobis form xᵀ cov⁺ x:
//   log [ (2π)^(-n/2) |cov|₊^(-1/2) exp(-xᵀ cov⁺ x / 2) ]
// — the mode likelihood of Algorithm 2, line 20; 0 when the rank is 0. The
// NUISE step evaluates it on the one eigendecomposition of its innovation
// covariance.
double degenerate_gaussian_log_pdf(std::size_t rank, double log_pseudo_det,
                                   double mahalanobis);

}  // namespace roboads::stats

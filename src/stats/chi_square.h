// Chi-square distribution functions for the RoboADS decision maker.
//
// The decision maker (paper §IV-D) tests whether normalized anomaly-vector
// estimates exceed the χ² quantile at confidence level α. We implement the
// regularized incomplete gamma function from scratch (series + continued
// fraction) and build CDF / quantile / hypothesis-test helpers on top.
#pragma once

#include <cstddef>

namespace roboads::stats {

// ln Γ(x) for x > 0 (Lanczos approximation, |relative error| < 1e-13).
double log_gamma(double x);

// Regularized lower incomplete gamma P(a, x) = γ(a, x) / Γ(a), a > 0, x >= 0.
double regularized_gamma_p(double a, double x);

// Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).
double regularized_gamma_q(double a, double x);

// χ² CDF with `dof` degrees of freedom evaluated at x >= 0.
double chi_square_cdf(double x, std::size_t dof);

// Upper-tail probability (p-value) of a χ² statistic.
double chi_square_sf(double x, std::size_t dof);

// Quantile: smallest x with CDF(x) >= p, for p in (0, 1). Solved by a
// Wilson-Hilferty initial guess refined with safeguarded Newton iterations.
double chi_square_quantile(double p, std::size_t dof);

// Detection threshold for a test at confidence level `alpha` (the paper's α):
// the (1 - alpha) quantile. A statistic above this rejects the "no anomaly"
// hypothesis. dof = 0 (a zero-dimensional statistic, possible on a fully
// degraded step) returns 0 instead of tripping the quantile's domain check.
double chi_square_threshold(double alpha, std::size_t dof);

// chi_square_threshold memoized per (alpha, dof) for the life of the
// process: bit-identical to the direct call (including its CheckError on a
// bad alpha) and safe to call from any thread. Every DecisionMaker needs
// the same few (α, dof) pairs and a fleet builds thousands of detectors, so
// the Newton-solved quantiles are computed once per process instead of once
// per detector.
double chi_square_threshold_memo(double alpha, std::size_t dof);

}  // namespace roboads::stats

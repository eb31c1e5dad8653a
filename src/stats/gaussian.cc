#include "stats/gaussian.h"

#include <cmath>

namespace roboads::stats {

double degenerate_gaussian_log_pdf(std::size_t rank, double log_pseudo_det,
                                   double mahalanobis) {
  if (rank == 0) return 0.0;  // zero-covariance: density collapses to a point
  return -0.5 * (static_cast<double>(rank) * std::log(2.0 * M_PI) +
                 log_pseudo_det + mahalanobis);
}

}  // namespace roboads::stats

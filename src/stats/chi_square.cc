#include "stats/chi_square.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <utility>

#include "common/check.h"

namespace roboads::stats {
namespace {

// Lanczos coefficients (g = 7, n = 9).
constexpr double kLanczos[] = {
    0.99999999999980993,  676.5203681218851,   -1259.1392167224028,
    771.32342877765313,   -176.61502916214059, 12.507343278686905,
    -0.13857109526572012, 9.9843695780195716e-6,
    1.5056327351493116e-7};

// P(a, x) by its power series; accurate and fast for x < a + 1.
double gamma_p_series(double a, double x) {
  double term = 1.0 / a;
  double sum = term;
  double ap = a;
  for (int n = 0; n < 500; ++n) {
    ap += 1.0;
    term *= x / ap;
    sum += term;
    if (std::abs(term) < std::abs(sum) * 1e-16) break;
  }
  return sum * std::exp(-x + a * std::log(x) - log_gamma(a));
}

// Q(a, x) by Lentz's continued fraction; accurate for x >= a + 1.
double gamma_q_cont_fraction(double a, double x) {
  constexpr double kTiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i < 500; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < 1e-16) break;
  }
  return h * std::exp(-x + a * std::log(x) - log_gamma(a));
}

}  // namespace

double log_gamma(double x) {
  ROBOADS_CHECK(x > 0.0, "log_gamma domain");
  if (x < 0.5) {
    // Reflection formula keeps the Lanczos series in its accurate range.
    return std::log(M_PI / std::sin(M_PI * x)) - log_gamma(1.0 - x);
  }
  const double z = x - 1.0;
  double acc = kLanczos[0];
  for (int i = 1; i < 9; ++i) acc += kLanczos[i] / (z + i);
  const double t = z + 7.5;
  return 0.5 * std::log(2.0 * M_PI) + (z + 0.5) * std::log(t) - t +
         std::log(acc);
}

double regularized_gamma_p(double a, double x) {
  ROBOADS_CHECK(a > 0.0 && x >= 0.0, "regularized_gamma_p domain");
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return gamma_p_series(a, x);
  return 1.0 - gamma_q_cont_fraction(a, x);
}

double regularized_gamma_q(double a, double x) {
  ROBOADS_CHECK(a > 0.0 && x >= 0.0, "regularized_gamma_q domain");
  if (x == 0.0) return 1.0;
  if (x < a + 1.0) return 1.0 - gamma_p_series(a, x);
  return gamma_q_cont_fraction(a, x);
}

double chi_square_cdf(double x, std::size_t dof) {
  ROBOADS_CHECK(dof > 0, "chi_square_cdf needs dof >= 1");
  if (x <= 0.0) return 0.0;
  return regularized_gamma_p(0.5 * static_cast<double>(dof), 0.5 * x);
}

double chi_square_sf(double x, std::size_t dof) {
  ROBOADS_CHECK(dof > 0, "chi_square_sf needs dof >= 1");
  if (x <= 0.0) return 1.0;
  return regularized_gamma_q(0.5 * static_cast<double>(dof), 0.5 * x);
}

double chi_square_quantile(double p, std::size_t dof) {
  ROBOADS_CHECK(dof > 0, "chi_square_quantile needs dof >= 1");
  ROBOADS_CHECK(p > 0.0 && p < 1.0, "chi_square_quantile needs p in (0,1)");
  const double k = static_cast<double>(dof);

  // Wilson-Hilferty starting point.
  const double z = [&] {
    // Acklam-style rational approximation of the normal quantile.
    // Sufficient as an initial guess; Newton refines to full precision.
    const double q = p - 0.5;
    if (std::abs(q) <= 0.425) {
      const double r = 0.180625 - q * q;
      return q *
             (((((((2509.0809287301226727 * r + 33430.575583588128105) * r +
                    67265.770927008700853) * r + 45921.953931549871457) * r +
                  13731.693765509461125) * r + 1971.5909503065514427) * r +
                133.14166789178437745) * r + 3.387132872796366608) /
             (((((((5226.495278852545703 * r + 28729.085735721942674) * r +
                    39307.89580009271061) * r + 21213.794301586595867) * r +
                  5394.1960214247511077) * r + 687.1870074920579083) * r +
                42.313330701600911252) * r + 1.0);
    }
    double r = q < 0.0 ? p : 1.0 - p;
    r = std::sqrt(-std::log(r));
    double val;
    if (r <= 5.0) {
      r -= 1.6;
      val = (((((((7.7454501427834140764e-4 * r + 0.0227238449892691845833) *
                      r + 0.24178072517745061177) * r +
                  1.27045825245236838258) * r + 3.64784832476320460504) * r +
               5.7694972214606914055) * r + 4.6303378461565452959) * r +
             1.42343711074968357734);
    } else {
      r -= 5.0;
      val = (((((((2.01033439929228813265e-7 * r +
                   2.71155556874348757815e-5) * r +
                  0.0012426609473880784386) * r + 0.026532189526576123093) *
                 r + 0.29656057182850489123) * r + 1.7848265399172913358) *
               r + 5.4637849111641143699) * r + 6.6579046435011037772);
    }
    return q < 0.0 ? -val : val;
  }();
  const double wh = k * std::pow(1.0 - 2.0 / (9.0 * k) +
                                     z * std::sqrt(2.0 / (9.0 * k)),
                                 3.0);
  double x = std::max(wh, 1e-8);

  // Establish a finite bracket [lo, hi] with F(lo) < p <= F(hi).
  double lo = 0.0;
  double hi = std::max(x, 1.0);
  for (int it = 0; it < 200 && chi_square_cdf(hi, dof) < p; ++it) {
    lo = hi;
    hi *= 2.0;
  }

  // Safeguarded Newton within the bracket (F is monotone increasing).
  x = std::clamp(x, lo + 0.25 * (hi - lo), hi - 0.25 * (hi - lo));
  for (int it = 0; it < 200; ++it) {
    const double f = chi_square_cdf(x, dof) - p;
    if (f > 0.0) {
      hi = x;
    } else {
      lo = x;
    }
    // χ² pdf at x for the Newton step.
    const double log_pdf = (0.5 * k - 1.0) * std::log(x) - 0.5 * x -
                           0.5 * k * std::log(2.0) - log_gamma(0.5 * k);
    const double pdf = std::exp(log_pdf);
    double next = pdf > 0.0 ? x - f / pdf : x;
    if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
    if (std::abs(next - x) <= 1e-13 * std::max(1.0, x)) return next;
    x = next;
  }
  return x;
}

double chi_square_threshold(double alpha, std::size_t dof) {
  ROBOADS_CHECK(alpha > 0.0 && alpha < 1.0, "alpha must lie in (0,1)");
  // Degenerate test: a zero-dimensional anomaly vector has statistic
  // identically 0, so 0 is the one threshold that never rejects it. Keeps a
  // fully-degraded decision step (no testable sensors, sim/faults.h) from
  // tripping the dof >= 1 domain check.
  if (dof == 0) return 0.0;
  return chi_square_quantile(1.0 - alpha, dof);
}

double chi_square_threshold_memo(double alpha, std::size_t dof) {
  // Keyed on alpha's bit pattern: equal keys are the same input bits, so a
  // hit returns exactly what the direct call would.
  static std::mutex mu;
  static std::map<std::pair<std::uint64_t, std::size_t>, double> memo;
  const std::pair<std::uint64_t, std::size_t> key{
      std::bit_cast<std::uint64_t>(alpha), dof};
  const std::lock_guard<std::mutex> lock(mu);
  const auto it = memo.find(key);
  if (it != memo.end()) return it->second;
  const double threshold = chi_square_threshold(alpha, dof);
  memo.emplace(key, threshold);
  return threshold;
}

}  // namespace roboads::stats

// Bit-identity oracle for Nuise::step (docs/PERFORMANCE.md "Compiled NUISE
// step").
//
// The reference below is the Matrix-based step_subsets / predict_only of
// the commit before the compiled step, line for line. Each Matrix
// operation it calls is bound to an implementation in this file: the
// run-time reference loops of matrix/kernels.h (`*_generic`) and the
// former loops of the elementwise operations, Cholesky trust test, Jacobi
// eigenpair sort and SpdEigenFactor. So the reference shares no template
// with the code under test, and a change to one kernel template or to the
// sort shows up here as a mismatch.
//
// Every NuiseResult field is compared with memcmp on the raw doubles
// (tests/result_diff.h), so −0.0 against +0.0 fails. As in tests/kernel_oracle_test.cc, any two NaNs
// compare equal: which NaN a NaN result carries is not part of either
// implementation's contract.
//
// Around the step, the references are health supervision with the
// repair_covariance of the commit before its stack-array certificate, and
// DecisionMaker::evaluate before its stack-array χ² tests, each line for
// line on the reference operations. Every step's result is supervised by
// the library and by the reference, and every result that stays usable is
// evaluated by a library and a reference decision maker per mode (their
// sliding windows see the same sequence); the supervised results and the
// Decisions are compared byte for byte. Nuise::step_into is also run into
// one reused result per mode, which must equal the fresh one.
//
// Inputs: every pre-step state of the Khepera Table II #1–11 and Tamiya
// T1–T7 missions (and one §V-G linear-baseline mission) for every mode of
// the default and complete mode sets — r from 3 to 10, so both the
// compiled and the run-time instantiations run; every non-trivial
// availability mask (degraded subsets and prediction-only steps); a suite
// with noiseless sensors whose rank-deficient R* forces SpdFactor's eigen
// fallback, at r = 1 to 6; and readings, states, inputs and covariances
// with ±0, subnormals, ±Inf and NaN.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "core/bank.h"
#include "core/decision.h"
#include "core/health.h"
#include "core/nuise.h"
#include "dynamics/diff_drive.h"
#include "eval/khepera.h"
#include "eval/mission.h"
#include "eval/tamiya.h"
#include "matrix/kernels.h"
#include "result_diff.h"
#include "scenario/compile.h"
#include "scenario/library.h"
#include "sensors/standard_sensors.h"

namespace roboads::core {
namespace {

// ------------------------------------------------ reference operations --

namespace ref {

Matrix mul(const Matrix& a, const Matrix& b) {
  EXPECT_EQ(a.cols(), b.rows());
  Matrix out(a.rows(), b.cols());
  kernels::product_generic(a.data(), b.data(), out.data(), a.rows(),
                           a.cols(), b.cols());
  return out;
}

Vector mul(const Matrix& a, const Vector& x) {
  EXPECT_EQ(a.cols(), x.size());
  Vector out(a.rows());
  kernels::matvec_generic(a.data(), x.data(), out.data(), a.rows(), a.cols());
  return out;
}

Matrix transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  kernels::transpose_generic(a.data(), t.data(), a.rows(), a.cols());
  return t;
}

Matrix sandwich(const Matrix& a, const Matrix& s) {
  EXPECT_EQ(a.cols(), s.rows());
  Matrix as(a.rows(), a.cols());
  Matrix c(a.rows(), a.rows());
  kernels::sandwich_generic(a.data(), s.data(), as.data(), c.data(),
                            a.rows(), a.cols());
  return c;
}

Matrix plus(Matrix a, const Matrix& b) {
  EXPECT_TRUE(a.rows() == b.rows() && a.cols() == b.cols());
  for (std::size_t i = 0; i < a.rows() * a.cols(); ++i) {
    a.data()[i] += b.data()[i];
  }
  return a;
}

Vector plus(Vector a, const Vector& b) {
  EXPECT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
  return a;
}

Matrix negated(Matrix m) {
  for (std::size_t i = 0; i < m.rows() * m.cols(); ++i) m.data()[i] *= -1.0;
  return m;
}

Matrix symmetrized(Matrix m) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = i + 1; j < m.cols(); ++j) {
      const double s = 0.5 * (m(i, j) + m(j, i));
      m(i, j) = s;
      m(j, i) = s;
    }
  }
  return m;
}

void add_self_adjoint(Matrix& c, const Matrix& y, double alpha = 1.0) {
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double s = alpha * (y(i, j) + y(j, i));
      c(i, j) += s;
      if (j != i) c(j, i) += s;
    }
  }
}

Matrix identity_minus(Matrix m) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      m(i, j) = (i == j ? 1.0 : 0.0) - m(i, j);
    }
  }
  return m;
}

struct SymmetricEigen {
  Vector eigenvalues;   // descending
  Matrix eigenvectors;  // columns
};

SymmetricEigen eigen_symmetric(const Matrix& a_in, double tol = 1e-13) {
  const std::size_t n = a_in.rows();
  Matrix a = symmetrized(a_in);
  Matrix v(n, n);
  kernels::jacobi_eigen_generic(a.data(), v.data(), n, tol);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
    return a(i, i) > a(j, j);
  });
  SymmetricEigen out{Vector(n), Matrix(n, n)};
  for (std::size_t j = 0; j < n; ++j) {
    out.eigenvalues[j] = a(order[j], order[j]);
    for (std::size_t i = 0; i < n; ++i) {
      out.eigenvectors(i, j) = v(i, order[j]);
    }
  }
  return out;
}

class SpdEigenFactor {
 public:
  explicit SpdEigenFactor(const Matrix& a, double rel_tol = 1e-10,
                          bool dim_scaled = false)
      : eig_(eigen_symmetric(symmetrized(a))) {
    const std::size_t n = dim();
    const double lam_max = n ? std::max(eig_.eigenvalues[0], 0.0) : 0.0;
    const double scale =
        dim_scaled ? rel_tol * static_cast<double>(n) : rel_tol;
    cutoff_ = scale * std::max(lam_max, 1e-300);
    for (std::size_t i = 0; i < n; ++i)
      if (eig_.eigenvalues[i] > cutoff_) ++rank_;
  }

  std::size_t dim() const { return eig_.eigenvalues.size(); }
  std::size_t rank() const { return rank_; }

  Matrix pseudo_inverse() const {
    Matrix scaled = eig_.eigenvectors;
    for (std::size_t j = 0; j < scaled.cols(); ++j) {
      const double lam = eig_.eigenvalues[j];
      const double inv = lam > cutoff_ ? 1.0 / lam : 0.0;
      for (std::size_t i = 0; i < scaled.rows(); ++i) scaled(i, j) *= inv;
    }
    return symmetrized(mul(scaled, transpose(eig_.eigenvectors)));
  }

  Vector solve(const Vector& b) const {
    const std::size_t n = dim();
    Vector x(n);
    for (std::size_t j = 0; j < n; ++j) {
      const double lam = eig_.eigenvalues[j];
      if (lam <= cutoff_) continue;
      double proj = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        proj += eig_.eigenvectors(i, j) * b[i];
      }
      const double w = proj / lam;
      for (std::size_t i = 0; i < n; ++i) x[i] += eig_.eigenvectors(i, j) * w;
    }
    return x;
  }

  double quadratic_form(const Vector& b) const {
    const std::size_t n = dim();
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double lam = eig_.eigenvalues[j];
      if (lam <= cutoff_) continue;
      double proj = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        proj += eig_.eigenvectors(i, j) * b[i];
      }
      acc += proj * proj / lam;
    }
    return acc;
  }

  double log_pseudo_determinant() const {
    double acc = 0.0;
    for (std::size_t i = 0; i < dim(); ++i)
      if (eig_.eigenvalues[i] > cutoff_) acc += std::log(eig_.eigenvalues[i]);
    return acc;
  }

 private:
  SymmetricEigen eig_;
  double cutoff_ = 0.0;
  std::size_t rank_ = 0;
};

class SpdFactor {
 public:
  explicit SpdFactor(const Matrix& a, double rel_tol = 1e-10)
      : l_(a.rows(), a.cols()) {
    const bool ok = kernels::cholesky_generic(a.data(), l_.data(), a.rows());
    bool deficient = !ok;
    if (!deficient) {
      double scale = 0.0;
      double min_pivot = std::numeric_limits<double>::infinity();
      for (std::size_t j = 0; j < l_.rows(); ++j) {
        scale = std::max(scale, std::abs(a(j, j)));
        min_pivot = std::min(min_pivot, l_(j, j) * l_(j, j));
      }
      deficient = min_pivot <= rel_tol * scale;
    }
    if (deficient) eig_.emplace(a, rel_tol);
  }

  bool positive_definite() const { return !eig_.has_value(); }

  Vector solve(const Vector& b) const {
    if (!eig_) {
      Vector x(b);
      kernels::cholesky_solve_generic(l_.data(), x.data(), x.size());
      return x;
    }
    return eig_->solve(b);
  }

  Matrix solve(const Matrix& b) const {
    Matrix x(b.rows(), b.cols());
    for (std::size_t j = 0; j < b.cols(); ++j) {
      const Vector xj = solve(b.col(j));
      for (std::size_t i = 0; i < b.rows(); ++i) x(i, j) = xj[i];
    }
    return x;
  }

  double quadratic_form(const Vector& b) const {
    if (!eig_) {
      Vector y(b);
      return kernels::forward_norm2_generic(l_.data(), y.data(), y.size());
    }
    return eig_->quadratic_form(b);
  }

 private:
  Matrix l_;
  std::optional<SpdEigenFactor> eig_;
};

double degenerate_gaussian_log_pdf(const Vector& x,
                                   const SpdEigenFactor& cov_factor) {
  const std::size_t n = cov_factor.rank();
  if (n == 0) return 0.0;
  const double maha = cov_factor.quadratic_form(x);
  return -0.5 * (static_cast<double>(n) * std::log(2.0 * M_PI) +
                 cov_factor.log_pseudo_determinant() + maha);
}

// ------------------------------------------------ reference supervision --

constexpr double kJacobiTol = 1e-13;
constexpr double kMaxCertifiedEntry = 1e100;

double rounding_gamma(double k) {
  constexpr double u = std::numeric_limits<double>::epsilon() / 2.0;
  return k * u / (1.0 - k * u);
}

double certificate_margin(std::size_t n) {
  const double nd = static_cast<double>(n);
  const double g = rounding_gamma(nd + 1.0);
  const double delta = nd * g / (1.0 - g);
  const double rotations = 100.0 * nd * (nd - 1.0) / 2.0;
  const double eps = rotations * rounding_gamma(12.0) * std::sqrt(nd) +
                     std::sqrt(2.0) * kJacobiTol;
  return (delta + eps) / (1.0 - eps);
}

bool psd_certified(const Matrix& s, double psd_tol) {
  if (!(psd_tol >= certificate_margin(s.rows()))) return false;
  if (s.norm_inf() > kMaxCertifiedEntry) return false;
  Matrix l(s.rows(), s.cols());
  return kernels::cholesky_generic(s.data(), l.data(), s.rows());
}

bool repair_covariance(Matrix& cov, const HealthConfig& cfg) {
  if (cov.empty()) return false;
  const Matrix sym = symmetrized(cov);
  if (psd_certified(sym, cfg.psd_tol)) return false;
  const SymmetricEigen eig = eigen_symmetric(sym, kJacobiTol);
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
  cov = symmetrized(repaired);
  return true;
}

bool block_finite(const NuiseResult& r, std::size_t at, std::size_t dim) {
  for (std::size_t i = 0; i < dim; ++i) {
    if (!std::isfinite(r.sensor_anomaly[at + i])) return false;
    for (std::size_t j = 0; j < r.sensor_anomaly.size(); ++j) {
      if (!std::isfinite(r.sensor_anomaly_cov(at + i, j))) return false;
      if (!std::isfinite(r.sensor_anomaly_cov(j, at + i))) return false;
    }
  }
  return true;
}

void gather_blocks(NuiseResult& r,
                   const std::vector<std::array<std::size_t, 3>>& keep) {
  std::size_t total = 0;
  for (const auto& k : keep) total += k[2];
  Vector anomaly(total);
  Matrix cov(total, total);
  std::size_t at_i = 0;
  for (const auto& ki : keep) {
    for (std::size_t i = 0; i < ki[2]; ++i) {
      anomaly[at_i + i] = r.sensor_anomaly[ki[1] + i];
    }
    std::size_t at_j = 0;
    for (const auto& kj : keep) {
      for (std::size_t i = 0; i < ki[2]; ++i) {
        for (std::size_t j = 0; j < kj[2]; ++j) {
          cov(at_i + i, at_j + j) = r.sensor_anomaly_cov(ki[1] + i, kj[1] + j);
        }
      }
      at_j += kj[2];
    }
    at_i += ki[2];
  }
  r.sensor_anomaly = std::move(anomaly);
  r.sensor_anomaly_cov = std::move(cov);
}

SupervisionOutcome supervise_result(NuiseResult& result, const Mode& mode,
                                    const sensors::SensorSuite& suite,
                                    const HealthConfig& cfg) {
  SupervisionOutcome out;
  if (!cfg.enabled) return out;
  if (!result.state.all_finite() || !result.state_cov.all_finite()) {
    out.fatal = true;
    out.detail = "non-finite state estimate or covariance";
    return out;
  }
  if (!result.actuator_anomaly.all_finite() ||
      !result.actuator_anomaly_cov.all_finite()) {
    out.fatal = true;
    out.detail = "non-finite actuator anomaly estimate";
    return out;
  }
  if (result.likelihood_informative &&
      !std::isfinite(result.log_likelihood)) {
    out.fatal = true;
    out.detail = "non-finite mode likelihood";
    return out;
  }
  if (ref::repair_covariance(result.state_cov, cfg)) {
    out.repaired = true;
    out.detail = "state covariance eigenvalue clamp";
  }
  if (!result.sensor_anomaly.empty() &&
      (!result.sensor_anomaly.all_finite() ||
       !result.sensor_anomaly_cov.all_finite())) {
    const std::vector<std::size_t> active =
        result.degraded ? result.active_testing : mode.testing;
    std::vector<std::array<std::size_t, 3>> keep;
    std::vector<std::size_t> kept_sensors;
    std::size_t at = 0;
    for (std::size_t t : active) {
      const std::size_t dim = suite.sensor(t).dim();
      if (block_finite(result, at, dim)) {
        keep.push_back({t, at, dim});
        kept_sensors.push_back(t);
      }
      at += dim;
    }
    gather_blocks(result, keep);
    result.degraded = true;
    result.active_testing = std::move(kept_sensors);
    out.repaired = true;
    if (!out.detail.empty()) out.detail += "; ";
    out.detail += "non-finite testing anomaly block excluded";
  }
  return out;
}

// ---------------------------------------------------- reference χ² tests --

class DecisionMaker {
 public:
  DecisionMaker(std::shared_ptr<const EstimatorBank> bank,
                const DecisionConfig& config)
      : bank_(std::move(bank)),
        sensor_history_(config.sensor_window),
        actuator_history_(config.actuator_window),
        per_sensor_history_(bank_->suite().count(),
                            SlidingWindow(config.sensor_window)),
        tested_(bank_->suite().count(), false) {}

  Decision evaluate(const Mode& mode, const NuiseResult& result) {
    const sensors::SensorSuite& suite = bank_->suite();
    Decision d;

    if (!result.sensor_anomaly.empty()) {
      const std::size_t dof = result.sensor_anomaly.size();
      const SpdFactor cov(result.sensor_anomaly_cov);
      d.sensor_statistic = cov.quadratic_form(result.sensor_anomaly);
      d.sensor_threshold = bank_->sensor_threshold(dof);
      d.sensor_test_positive = d.sensor_statistic > d.sensor_threshold;
    }
    d.sensor_alarm = sensor_history_.push(d.sensor_test_positive);

    {
      const std::size_t dof = result.actuator_anomaly.size();
      const SpdFactor cov(result.actuator_anomaly_cov);
      d.actuator_statistic = cov.quadratic_form(result.actuator_anomaly);
      d.actuator_threshold = bank_->actuator_threshold(dof);
      d.actuator_test_positive = d.actuator_statistic > d.actuator_threshold;
    }
    d.actuator_alarm = actuator_history_.push(d.actuator_test_positive);
    d.actuator_anomaly = result.actuator_anomaly;

    const std::vector<std::size_t>& testing = active_testing_of(mode, result);
    EXPECT_EQ(result.sensor_anomaly.size(), stacked_dim(suite, testing));
    std::fill(tested_.begin(), tested_.end(), false);
    d.sensor_verdicts.reserve(testing.size());
    std::size_t at = 0;
    for (std::size_t t : testing) {
      const std::size_t dim = suite.sensor(t).dim();
      SensorVerdict v;
      v.sensor_index = t;
      v.anomaly_estimate = result.sensor_anomaly.segment(at, dim);
      const SpdFactor block(result.sensor_anomaly_cov.block(at, at, dim, dim));
      v.statistic = block.quadratic_form(v.anomaly_estimate);
      v.threshold = bank_->sensor_threshold(dim);
      const bool positive = v.statistic > v.threshold;
      const bool windowed = per_sensor_history_[t].push(positive);
      v.misbehaving = d.sensor_alarm && windowed;
      if (v.misbehaving) d.misbehaving_sensors.push_back(t);
      d.sensor_verdicts.push_back(std::move(v));
      tested_[t] = true;
      at += dim;
    }
    for (std::size_t s = 0; s < suite.count(); ++s) {
      if (!tested_[s]) {
        per_sensor_history_[s].push(false);
      }
    }
    return d;
  }

 private:
  std::shared_ptr<const EstimatorBank> bank_;
  SlidingWindow sensor_history_;
  SlidingWindow actuator_history_;
  std::vector<SlidingWindow> per_sensor_history_;
  std::vector<bool> tested_;
};

}  // namespace ref

// ----------------------------------------------------- reference step --

class ReferenceNuise {
 public:
  ReferenceNuise(const dyn::DynamicModel& model,
                 const sensors::SensorSuite& suite, Mode mode,
                 Matrix process_cov)
      : model_(model),
        suite_(suite),
        mode_(std::move(mode)),
        process_cov_(ref::symmetrized(std::move(process_cov))) {
    ws_.r2 = suite_.noise_covariance(mode_.reference);
    ws_.ref_angle_mask = suite_.angle_mask(mode_.reference);
    if (!mode_.testing.empty()) {
      ws_.r1 = suite_.noise_covariance(mode_.testing);
      ws_.tst_angle_mask = suite_.angle_mask(mode_.testing);
    }
    ws_.sat = model_.input_saturation();
    ws_.trust = model_.input_trust_radius();
    const std::size_t q = model_.input_dim();
    Vector trust_var(q);
    for (std::size_t i = 0; i < q; ++i) {
      trust_var[i] = std::min(ws_.trust[i] * ws_.trust[i], 1e12);
    }
    ws_.t_prior = Matrix::diagonal(trust_var);
  }

  // Set by every full step: whether R* took SpdFactor's eigen fallback.
  mutable bool r_star_fell_back = false;

  NuiseResult step(const Vector& x_prev, const Matrix& p_prev,
                   const Vector& u_prev, const Vector& z_full,
                   SensorMask available) const {
    if (available.complete()) {
      return step_subsets(mode_.reference, mode_.testing, x_prev, p_prev,
                          u_prev, z_full, /*cached=*/true);
    }
    auto filter = [&](const std::vector<std::size_t>& set) {
      std::vector<std::size_t> kept;
      for (std::size_t i : set) {
        if (available.available(i)) kept.push_back(i);
      }
      return kept;
    };
    const std::vector<std::size_t> ref = filter(mode_.reference);
    const std::vector<std::size_t> tst = filter(mode_.testing);
    if (ref.size() == mode_.reference.size() &&
        tst.size() == mode_.testing.size()) {
      return step_subsets(mode_.reference, mode_.testing, x_prev, p_prev,
                          u_prev, z_full, /*cached=*/true);
    }
    if (ref.empty()) return predict_only(tst, x_prev, p_prev, u_prev, z_full);
    NuiseResult out =
        step_subsets(ref, tst, x_prev, p_prev, u_prev, z_full, false);
    out.degraded = true;
    out.active_testing = tst;
    return out;
  }

 private:
  struct Workspace {
    Matrix r2;
    Matrix r1;
    std::vector<bool> ref_angle_mask;
    std::vector<bool> tst_angle_mask;
    Vector sat;
    Vector trust;
    Matrix t_prior;
  };

  NuiseResult predict_only(const std::vector<std::size_t>& tst,
                           const Vector& x_prev, const Matrix& p_prev,
                           const Vector& u_prev, const Vector& z_full) const {
    const std::size_t q = model_.input_dim();
    NuiseResult out;
    out.correction_applied = false;
    out.likelihood_informative = false;
    out.degraded = true;
    out.active_testing = tst;

    const Matrix a = model_.jacobian_state(x_prev, u_prev);
    out.state = model_.step(x_prev, u_prev);
    out.state_cov = ref::plus(ref::sandwich(a, p_prev), process_cov_);

    out.actuator_anomaly = Vector(q);
    out.actuator_anomaly_cov = Matrix::identity(q);
    out.actuator_identifiable = false;

    if (!tst.empty()) {
      const Vector z1 = suite_.slice(tst, z_full);
      out.sensor_anomaly = suite_.residual(tst, z1, out.state);
      const Matrix c1 = suite_.jacobian(tst, out.state);
      out.sensor_anomaly_cov = ref::plus(ref::sandwich(c1, out.state_cov),
                                         suite_.noise_covariance(tst));
    }
    out.log_likelihood = 0.0;
    return out;
  }

  NuiseResult step_subsets(const std::vector<std::size_t>& ref,
                           const std::vector<std::size_t>& tst,
                           const Vector& x_prev, const Matrix& p_prev,
                           const Vector& u_prev, const Vector& z_full,
                           bool cached) const {
    const std::size_t q = model_.input_dim();
    const Matrix a = model_.jacobian_state(x_prev, u_prev);
    const Matrix g = model_.jacobian_input(x_prev, u_prev);
    const Matrix& qc = process_cov_;

    Matrix r2_storage;
    std::vector<bool> ref_mask_storage;
    if (!cached) {
      r2_storage = suite_.noise_covariance(ref);
      ref_mask_storage = suite_.angle_mask(ref);
    }
    const Matrix& r2 = cached ? ws_.r2 : r2_storage;
    const std::vector<bool>& ref_mask =
        cached ? ws_.ref_angle_mask : ref_mask_storage;

    // --- Step 1: actuator anomaly estimation (lines 2-6). ---
    const Vector x_bare = model_.step(x_prev, u_prev);
    const Matrix c2 = suite_.jacobian(ref, x_bare);
    const Vector z2 = suite_.slice(ref, z_full);

    const Matrix p_tilde = ref::plus(ref::sandwich(a, p_prev), qc);
    const Matrix r_star = ref::plus(ref::sandwich(c2, p_tilde), r2);

    const Matrix f = ref::mul(c2, g);
    const ref::SpdFactor r_star_factor(r_star);
    if (cached) r_star_fell_back = !r_star_factor.positive_definite();
    const Matrix ft_rinv = ref::transpose(r_star_factor.solve(f));
    const Matrix gram = ref::symmetrized(ref::mul(ft_rinv, f));

    NuiseResult out;
    const ref::SpdEigenFactor gram_factor(gram);
    out.actuator_identifiable = gram_factor.rank() == q;
    const Matrix m2 = ref::mul(gram_factor.pseudo_inverse(), ft_rinv);

    const Vector resid_bare = suite_.residual(ref, z2, x_bare, ref_mask);
    out.actuator_anomaly = ref::mul(m2, resid_bare);
    out.actuator_anomaly_cov = ref::sandwich(m2, r_star);

    // --- Step 2: state prediction with compensation (lines 7-10). ---
    const Vector& sat = ws_.sat;
    const Vector& trust = ws_.trust;
    const Matrix& t_prior = ws_.t_prior;
    const Matrix shrink_m = ref::plus(out.actuator_anomaly_cov, t_prior);
    const ref::SpdFactor shrink(shrink_m);
    const Vector delta = ref::mul(t_prior, shrink.solve(out.actuator_anomaly));
    Vector u_comp = u_prev;
    for (std::size_t i = 0; i < q; ++i) {
      const double step_i =
          std::clamp(delta[i], -3.0 * trust[i], 3.0 * trust[i]);
      u_comp[i] = std::clamp(u_prev[i] + step_i, -sat[i], sat[i]);
    }
    const Vector x_pred = model_.step(x_prev, u_comp);
    const Matrix gm2 = ref::mul(g, m2);
    const Matrix proj = ref::identity_minus(ref::mul(gm2, c2));
    const Matrix a_bar = ref::mul(proj, a);
    const Matrix q_bar =
        ref::plus(ref::sandwich(proj, qc), ref::sandwich(gm2, r2));
    const Matrix p_pred = ref::plus(ref::sandwich(a_bar, p_prev), q_bar);

    // --- Step 3: state estimation (lines 11-14). ---
    const Matrix c2p = suite_.jacobian(ref, x_pred);
    const Matrix u_cross = ref::negated(ref::mul(gm2, r2));
    Matrix innov_cov = ref::plus(ref::sandwich(c2p, p_pred), r2);
    ref::add_self_adjoint(innov_cov, ref::mul(c2p, u_cross));
    const ref::SpdEigenFactor innov_factor(innov_cov);
    const Matrix gain =
        ref::mul(ref::plus(ref::mul(p_pred, ref::transpose(c2p)), u_cross),
                 innov_factor.pseudo_inverse());

    const Vector innovation = suite_.residual(ref, z2, x_pred, ref_mask);
    out.state = ref::plus(x_pred, ref::mul(gain, innovation));

    const Matrix ilc = ref::identity_minus(ref::mul(gain, c2p));
    Matrix state_cov =
        ref::plus(ref::sandwich(ilc, p_pred), ref::sandwich(gain, r2));
    ref::add_self_adjoint(
        state_cov, ref::mul(ref::mul(ilc, u_cross), ref::transpose(gain)),
        -1.0);
    out.state_cov = std::move(state_cov);

    // --- Step 4: testing-sensor anomaly estimation (lines 15-16). ---
    if (!tst.empty()) {
      Matrix r1_storage;
      std::vector<bool> tst_mask_storage;
      if (!cached) {
        r1_storage = suite_.noise_covariance(tst);
        tst_mask_storage = suite_.angle_mask(tst);
      }
      const Matrix& r1 = cached ? ws_.r1 : r1_storage;
      const std::vector<bool>& tst_mask =
          cached ? ws_.tst_angle_mask : tst_mask_storage;

      const Vector z1 = suite_.slice(tst, z_full);
      out.sensor_anomaly = suite_.residual(tst, z1, out.state, tst_mask);
      const Matrix c1 = suite_.jacobian(tst, out.state);
      out.sensor_anomaly_cov = ref::plus(ref::sandwich(c1, out.state_cov), r1);
    }

    // --- Mode likelihood (lines 17-20). ---
    out.innovation = innovation;
    out.innovation_cov = innov_cov;
    out.log_likelihood = ref::degenerate_gaussian_log_pdf(innovation,
                                                          innov_factor);
    return out;
  }

  const dyn::DynamicModel& model_;
  const sensors::SensorSuite& suite_;
  Mode mode_;
  Matrix process_cov_;
  Workspace ws_;
};

// ---------------------------------------------------------- comparison --

std::string diff_outcomes(const SupervisionOutcome& a,
                          const SupervisionOutcome& b) {
  if (a.fatal != b.fatal) return "supervision fatal";
  if (a.repaired != b.repaired) return "supervision repaired";
  if (a.detail != b.detail) return "supervision detail";
  return "";
}

// ------------------------------------------------------------- inputs --

struct PreStep {
  Vector x;  // x̂_{k−1|k−1}
  Matrix p;  // Pˣ_{k−1}
  Vector u;  // u_{k−1}
  Vector z;  // z_k
  SensorMask mask;
};

// The library step and the reference step of every mode of `modes`, each
// followed by supervision and a decision maker with its own windows.
struct Pair {
  Nuise lib;
  ReferenceNuise ref;
  const sensors::SensorSuite* suite;
  DecisionMaker lib_decision;
  ref::DecisionMaker ref_decision;
  NuiseResult reused;  // every library step_into writes here
};

// Counts over a comparison run, so tests can require that a path ran.
struct Tally {
  std::size_t repaired = 0;
  std::size_t clamped = 0;  // repairs that clamped Pˣ's eigenvalues
  std::size_t fatal = 0;
  std::size_t decisions = 0;
  std::size_t alarms = 0;
};

std::vector<Pair> pairs_for(const dyn::DynamicModel& model,
                            const sensors::SensorSuite& suite,
                            const Matrix& q, const std::vector<Mode>& modes) {
  const DecisionConfig config;
  const auto tables = std::make_shared<const EstimatorBank>(suite, config);
  std::vector<Pair> out;
  for (const Mode& m : modes) {
    out.push_back(Pair{Nuise(model, suite, m, q),
                       ReferenceNuise(model, suite, m, q), &suite,
                       DecisionMaker(tables, config),
                       ref::DecisionMaker(tables, config), NuiseResult{}});
  }
  return out;
}

// Steps, supervises and evaluates every pair on `in`; returns a
// description of the first mismatch.
std::string compare_all(std::vector<Pair>& pairs, const PreStep& in,
                        Tally* tally = nullptr) {
  const HealthConfig health;
  for (Pair& pair : pairs) {
    const Mode& mode = pair.lib.mode();
    NuiseResult a = pair.lib.step(in.x, in.p, in.u, in.z, in.mask);
    NuiseResult b = pair.ref.step(in.x, in.p, in.u, in.z, in.mask);
    std::string d = diff_results(a, b);
    if (!d.empty()) return mode.label + ": " + d;
    pair.lib.step_into(in.x, in.p, in.u, in.z, in.mask, pair.reused);
    d = diff_results(pair.reused, a);
    if (!d.empty()) return mode.label + ": reused step_into " + d;

    const SupervisionOutcome oa = supervise_result(a, mode, *pair.suite,
                                                   health);
    const SupervisionOutcome ob =
        ref::supervise_result(b, mode, *pair.suite, health);
    d = diff_outcomes(oa, ob);
    if (d.empty()) d = diff_results(a, b);
    if (!d.empty()) return mode.label + ": supervised " + d;
    if (tally != nullptr) {
      tally->repaired += oa.repaired;
      tally->clamped += oa.detail.find("clamp") != std::string::npos;
      tally->fatal += oa.fatal;
    }
    if (oa.fatal) continue;  // a quarantined mode is never evaluated

    const Decision da = pair.lib_decision.evaluate(mode, a);
    const Decision db = pair.ref_decision.evaluate(mode, b);
    d = diff_decisions(da, db);
    if (!d.empty()) return mode.label + ": decision " + d;
    if (tally != nullptr) {
      ++tally->decisions;
      tally->alarms += da.sensor_alarm + da.actuator_alarm;
    }
  }
  return "";
}

// One recorded mission: the detector's model and suite, and the inputs of
// every detector step with the state the engine held before it.
struct Mission {
  std::string label;
  const eval::Platform* platform = nullptr;
  std::shared_ptr<eval::DetectorSetup> setup;
  std::vector<PreStep> steps;
};

Mission record(const eval::Platform& platform,
               const scenario::ScenarioSpec& spec, std::uint64_t seed,
               bool linear_baseline) {
  eval::MissionConfig config;
  config.seed = seed;
  config.linear_baseline = linear_baseline;
  const attacks::Scenario scenario = scenario::compile_spec(spec, platform);
  const eval::MissionResult result =
      eval::run_mission(platform, scenario, config);

  Mission m;
  m.label = spec.name + (linear_baseline ? "/linear" : "");
  m.platform = &platform;
  m.setup = std::make_shared<eval::DetectorSetup>(platform, linear_baseline);
  const sensors::SensorSuite& suite = m.setup->suite();
  Vector x = platform.initial_state();
  Matrix p = m.setup->p0();
  for (const eval::IterationRecord& rec : result.records) {
    // The mask the engine steps with: RoboAds masks a sensor whose reading
    // block is not finite.
    SensorMask mask = rec.sensor_available;
    if (!rec.z.all_finite()) {
      for (std::size_t i = 0; i < suite.count(); ++i) {
        if (!rec.z.segment(suite.offset(i), suite.sensor(i).dim())
                 .all_finite()) {
          mask.set_missing(i);
        }
      }
    }
    m.steps.push_back(PreStep{x, p, rec.u_planned, rec.z, mask});
    x = rec.report.state_estimate;
    p = rec.report.state_covariance;
  }
  return m;
}

const eval::KheperaPlatform& khepera() {
  static const eval::KheperaPlatform platform;
  return platform;
}

const eval::TamiyaPlatform& tamiya() {
  static const eval::TamiyaPlatform platform;
  return platform;
}

// Khepera Table II #1–11 at seeds 1001–1011, then #1 on the §V-G linear
// baseline.
const std::vector<Mission>& khepera_missions() {
  static const std::vector<Mission> missions = [] {
    std::vector<Mission> out;
    for (std::size_t number = 1; number <= 11; ++number) {
      out.push_back(record(khepera(), scenario::khepera_table2_spec(number),
                           1000 + number, false));
    }
    out.push_back(
        record(khepera(), scenario::khepera_table2_spec(1), 1001, true));
    return out;
  }();
  return missions;
}

// Tamiya T1–T7 at seeds 2001–2007.
const std::vector<Mission>& tamiya_missions() {
  static const std::vector<Mission> missions = [] {
    std::vector<Mission> out;
    std::uint64_t seed = 2000;
    for (const scenario::ScenarioSpec& spec : scenario::tamiya_battery_specs()) {
      out.push_back(record(tamiya(), spec, ++seed, false));
    }
    return out;
  }();
  return missions;
}

// Default and complete mode sets over the mission's detector.
std::vector<Pair> mission_pairs(const Mission& m) {
  const sensors::SensorSuite& suite = m.setup->suite();
  std::vector<Mode> modes = m.platform->detector_modes();
  if (modes.empty()) modes = one_reference_per_sensor(suite);
  for (Mode& mode : complete_mode_set(suite)) modes.push_back(mode);
  return pairs_for(m.setup->model(), suite, m.platform->process_cov(), modes);
}

void expect_every_pre_step_state_matches(const std::vector<Mission>& missions) {
  std::size_t compared = 0;
  Tally tally;
  for (const Mission& m : missions) {
    std::vector<Pair> pairs = mission_pairs(m);
    ASSERT_GE(pairs.size(), 10u);
    for (std::size_t k = 0; k < m.steps.size(); ++k) {
      const std::string d = compare_all(pairs, m.steps[k], &tally);
      ASSERT_TRUE(d.empty()) << m.label << " step " << k + 1 << " " << d;
      compared += pairs.size();
    }
  }
  EXPECT_GT(compared, 10'000u);
  EXPECT_GT(tally.decisions, 10'000u);
  EXPECT_GT(tally.alarms, 100u);  // the attacks raise windowed alarms
}

TEST(NuiseOracle, KheperaTableTwoMissionsEveryMode) {
  expect_every_pre_step_state_matches(khepera_missions());
}

TEST(NuiseOracle, TamiyaBatteryMissionsEveryMode) {
  expect_every_pre_step_state_matches(tamiya_missions());
}

// Every mask but all-available, on every 25th pre-step state: degraded
// reference and testing subsets, and prediction-only steps when a mode's
// whole reference group is missing.
TEST(NuiseOracle, EveryAvailabilityMask) {
  std::size_t degraded = 0;
  std::size_t predict_only = 0;
  for (const std::vector<Mission>* missions :
       {&khepera_missions(), &tamiya_missions()}) {
    for (const Mission& m : *missions) {
      std::vector<Pair> pairs = mission_pairs(m);
      const std::size_t sensors = m.setup->suite().count();
      for (std::size_t k = 0; k < m.steps.size(); k += 25) {
        PreStep in = m.steps[k];
        for (std::size_t bits = 0; bits + 1 < (1u << sensors); ++bits) {
          in.mask = SensorMask{};
          for (std::size_t i = 0; i < sensors; ++i) {
            if (((bits >> i) & 1u) == 0) in.mask.set_missing(i);
          }
          const std::string d = compare_all(pairs, in);
          ASSERT_TRUE(d.empty())
              << m.label << " step " << k + 1 << " mask " << bits << " " << d;
          for (const Pair& pair : pairs) {
            const NuiseResult r =
                pair.lib.step(in.x, in.p, in.u, in.z, in.mask);
            if (!r.correction_applied) {
              ++predict_only;
            } else if (r.degraded) {
              ++degraded;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(degraded, 1000u);
  EXPECT_GT(predict_only, 1000u);
}

// A DiffDrive over noiseless sensors of 2, 1 and 3 rows (complete mode
// set: r = 1 to 6), with Q = 0: a rank-deficient or zero Pˣ makes R*
// rank-deficient, so its Cholesky factor fails or is not trusted and
// SpdFactor takes the eigen fallback.
struct NoiselessRig {
  dyn::DiffDrive model{{.axle_length = 0.089, .dt = 0.1}};
  sensors::SensorSuite suite{{
      std::make_shared<sensors::StateProjectionSensor>(
          "pos", 3, std::vector<std::size_t>{0, 1},
          std::vector<bool>{false, false}, Matrix(2, 2)),
      std::make_shared<sensors::StateProjectionSensor>(
          "heading", 3, std::vector<std::size_t>{2}, std::vector<bool>{true},
          Matrix(1, 1)),
      sensors::make_ips(3, 0.005, 0.01),
  }};
  Matrix q = Matrix(3, 3);
};

TEST(NuiseOracle, RankDeficientReferenceCovarianceTakesTheEigenFallback) {
  NoiselessRig rig;
  std::vector<Pair> pairs =
      pairs_for(rig.model, rig.suite, rig.q, complete_mode_set(rig.suite));
  const Vector x{0.4, 0.3, 0.2};
  const Vector u{0.05, 0.04};
  const Vector z = rig.suite.measure(rig.suite.all(), Vector{0.41, 0.29, 0.25});
  const Vector v{1e-2, 2e-2, 0.0};
  std::map<std::size_t, std::size_t> fallbacks;  // r → steps that fell back
  for (const Matrix& p :
       {Matrix(3, 3), Matrix::outer(v, v), Matrix::diagonal(Vector{1e-4, 0, 0}),
        Matrix::identity(3) * 1e-4}) {
    const std::string d = compare_all(pairs, PreStep{x, p, u, z, {}});
    ASSERT_TRUE(d.empty()) << d;
    for (const Pair& pair : pairs) {
      if (pair.ref.r_star_fell_back) {
        ++fallbacks[stacked_dim(rig.suite, pair.lib.mode().reference)];
      }
    }
  }
  // The compiled shapes (r ≤ 4) and the run-time ones both fell back.
  for (std::size_t r : {1u, 2u, 3u, 4u, 5u, 6u}) {
    EXPECT_GT(fallbacks[r], 0u) << "no eigen fallback at r = " << r;
  }
}

// Inputs carrying +0, −0, subnormals, the smallest normal, ±Inf and NaN:
// in one reading component at a time and in all of them, and in one
// component of x̂, of u, or one symmetric pair of Pˣ. Readings reach the
// step's products only through matrix–vector products (every Jacobian of
// both platforms is constant), so the zero-skip of a product is exercised
// by the non-finite Pˣ and x̂ (through A and G). On every 125th Khepera
// pre-step state and on the noiseless rig (r = 1 and 2).
TEST(NuiseOracle, SignedZerosSubnormalsInfinitiesAndNaNInputs) {
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::min() / 4,
                             std::numeric_limits<double>::min(),
                             inf,
                             -inf,
                             std::numeric_limits<double>::quiet_NaN(),
                             -std::numeric_limits<double>::quiet_NaN()};
  Tally tally;
  auto sweep = [&](std::vector<Pair>& pairs, const PreStep& base,
                   const std::string& label) {
    auto check = [&](const PreStep& in, const std::string& where) {
      const std::string d = compare_all(pairs, in, &tally);
      ASSERT_TRUE(d.empty()) << label << " " << where << " " << d;
    };
    for (double s : specials) {
      const std::string v = " = " + std::to_string(s);
      for (std::size_t i = 0; i < base.z.size(); ++i) {
        PreStep in = base;
        in.z[i] = s;
        check(in, "z[" + std::to_string(i) + "]" + v);
      }
      PreStep all = base;
      all.z = Vector(base.z.size(), s);
      check(all, "z" + v);
      for (std::size_t i = 0; i < base.x.size(); ++i) {
        PreStep in = base;
        in.x[i] = s;
        check(in, "x[" + std::to_string(i) + "]" + v);
      }
      for (std::size_t i = 0; i < base.u.size(); ++i) {
        PreStep in = base;
        in.u[i] = s;
        check(in, "u[" + std::to_string(i) + "]" + v);
      }
      for (std::size_t i = 0; i < base.p.rows(); ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
          PreStep in = base;
          in.p(i, j) = s;
          in.p(j, i) = s;
          check(in, "P(" + std::to_string(i) + "," + std::to_string(j) + ")" +
                        v);
        }
      }
    }
  };
  for (const Mission& m : khepera_missions()) {
    std::vector<Pair> pairs = mission_pairs(m);
    for (std::size_t k = 0; k < m.steps.size(); k += 125) {
      sweep(pairs, m.steps[k], m.label + " step " + std::to_string(k + 1));
    }
  }
  NoiselessRig rig;
  std::vector<Pair> pairs = pairs_for(
      rig.model, rig.suite, Matrix::identity(3) * 1e-6,
      complete_mode_set(rig.suite));
  const Vector x{0.4, 0.3, 0.2};
  sweep(pairs,
        PreStep{x, Matrix::identity(3) * 1e-4, Vector{0.05, 0.04},
                rig.suite.measure(rig.suite.all(), x), {}},
        "noiseless rig");
  // Supervision quarantined results and repaired others (covariance
  // clamps and stripped testing blocks) on these inputs.
  EXPECT_GT(tally.fatal, 100u);
  EXPECT_GT(tally.repaired, 100u);
  EXPECT_GT(tally.clamped, 100u);
}

}  // namespace
}  // namespace roboads::core

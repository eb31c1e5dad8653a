#include "core/health.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "matrix/decomp.h"
#include "matrix/kernels_impl.h"

namespace roboads::core {

const char* to_string(ModeHealthState state) {
  switch (state) {
    case ModeHealthState::kHealthy: return "healthy";
    case ModeHealthState::kDegraded: return "degraded";
    case ModeHealthState::kQuarantined: return "quarantined";
  }
  return "?";
}

char code(ModeHealthState state) {
  switch (state) {
    case ModeHealthState::kHealthy: return 'H';
    case ModeHealthState::kDegraded: return 'D';
    case ModeHealthState::kQuarantined: return 'Q';
  }
  return '?';
}

void ModeHealth::on_clean(const HealthConfig& cfg) {
  ++clean_streak;
  if (state == ModeHealthState::kQuarantined &&
      clean_streak >= cfg.quarantine_steps) {
    state = ModeHealthState::kDegraded;
    clean_streak = 0;
  } else if (state == ModeHealthState::kDegraded &&
             clean_streak >= cfg.recover_after) {
    state = ModeHealthState::kHealthy;
  }
}

void ModeHealth::on_repaired(const HealthConfig& /*cfg*/) {
  ++repairs;
  clean_streak = 0;
  if (state == ModeHealthState::kHealthy) state = ModeHealthState::kDegraded;
}

void ModeHealth::on_fatal(const HealthConfig& /*cfg*/) {
  if (state != ModeHealthState::kQuarantined) ++quarantine_count;
  state = ModeHealthState::kQuarantined;
  clean_streak = 0;
}

namespace {

// The repair decision below runs on eigen_symmetric(S, kJacobiTol), S the
// symmetrized covariance. A Cholesky factorization of S that runs to
// completion proves that decision is "no repair" whenever psd_tol is at
// least certificate_margin(n), so healthy steps skip the eigendecomposition
// and the outcome stays bit-identical. With u = 2⁻⁵³ and γₖ = ku/(1−ku):
//
//  1. Cholesky (Higham, ASNA 2nd ed., Thm 10.3): the computed factor R of a
//     symmetric S satisfies RᵀR = S + ΔS with |ΔS| ≤ γₙ₊₁|Rᵀ||R|, so
//     ‖ΔS‖₂ ≤ δ·max sᵢᵢ with δ = n·γₙ₊₁/(1−γₙ₊₁). RᵀR is PSD and
//     max sᵢᵢ ≤ λmax(S), hence λmin(S) ≥ −δ·λmax(S), λmax(S) ≥ s₀₀ > 0 and
//     ‖S‖₂ = λmax(S).
//  2. Jacobi: r rotations applied in floating point are an exact orthogonal
//     similarity of S + E with ‖E‖_F ≤ r·γ₁₂·‖S‖_F ≤ r·γ₁₂·√n·‖S‖₂, and the
//     sweeps stop once the off-diagonal part has Frobenius norm at most
//     √2·tol·max(1, max|sᵢⱼ|) ≤ √2·tol·max(1, ‖S‖₂). By Weyl every computed
//     eigenvalue is within ε·max(1, λmax(S)) of the exact one, where
//     ε = r·γ₁₂·√n + √2·tol and r ≤ 100·n(n−1)/2 (the sweep cap). This
//     needs the sweeps to end through their convergence test: cyclic
//     Jacobi converges quadratically, in under ten sweeps at these sizes.
//  3. So λ̂min ≥ −(δ + ε)·max(1, λmax(S)) and max(1, λ̂max) ≥
//     (1 − ε)·max(1, λmax(S)): the eigen path keeps λ̂min ≥
//     −psd_tol·max(1, λ̂max) — no repair — whenever
//     psd_tol ≥ (δ + ε)/(1 − ε) = certificate_margin(n).
//
// The margin is 8.3e-13 at n = 3 and 1.9e-11 at n = 10, three and two
// orders of magnitude below the default psd_tol of 1e-9; it exceeds 1e-9
// only beyond n ≈ 46, where the certificate is simply not used. Entries
// are capped at kMaxCertifiedEntry so no product in either path overflows
// (Jacobi only rotates at |sₚq| > 1e-3·tol, bounding θ² by 1e32·max|sᵢⱼ|²);
// gradual underflow adds absolute errors below 1e-300, far under
// psd_tol·max(1, λmax). A factorization that fails — NaN, ±Inf, a
// non-positive pivot — proves nothing and the eigen path decides.
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

// certificate_margin(n), computed once per n up to the largest stacked
// covariance a detector meets and on every call beyond it.
double margin_of(std::size_t n) {
  static const std::array<double, 17> margins = [] {
    std::array<double, 17> out{};
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = certificate_margin(i);
    }
    return out;
  }();
  return n < margins.size() ? margins[n] : certificate_margin(n);
}

// True when a Cholesky factorization proves repair_covariance would leave
// the square `cov` untouched. Symmetrizes and factors a copy, as the
// eigen path symmetrizes its own: stack arrays up to 4×4, a Matrix beyond.
bool psd_certified(const Matrix& cov, double psd_tol) {
  const std::size_t n = cov.rows();
  if (!(psd_tol >= margin_of(n))) return false;
  return kernels::with_extent(n, [&](auto ext_n) {
    kernels::Buf<decltype(ext_n), decltype(ext_n)> s(ext_n, ext_n);
    kernels::Buf<decltype(ext_n), decltype(ext_n)> l(ext_n, ext_n);
    std::copy(cov.data(), cov.data() + n * n, s.data());
    kernels::ext::symmetrize(s.data(), ext_n);
    double max_abs = 0.0;  // Matrix::norm_inf: a NaN entry is skipped
    for (std::size_t i = 0; i < n * n; ++i) {
      max_abs = std::max(max_abs, std::abs(s.data()[i]));
    }
    if (max_abs > kMaxCertifiedEntry) return false;
    return kernels::ext::cholesky(s.data(), l.data(), ext_n);
  });
}

}  // namespace

bool repair_covariance(Matrix& cov, const HealthConfig& cfg) {
  if (cov.empty()) return false;
  ROBOADS_CHECK(cov.square(), "covariance repair requires a square matrix");
  if (psd_certified(cov, cfg.psd_tol)) return false;
  const Matrix sym = cov.symmetrized();
  const SymmetricEigen eig = eigen_symmetric(sym, kJacobiTol);
  const std::size_t n = eig.eigenvalues.size();
  const double lambda_max = std::max(eig.eigenvalues[0], 0.0);
  const double scale = std::max(1.0, lambda_max);
  // Eigenvalues are sorted descending; the last is the most negative.
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
  cov = repaired.symmetrized();
  return true;
}

namespace {

// True when the `dim`-sized block anchored at `at` of the stacked anomaly
// vector and its covariance (rows and columns) is entirely finite.
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

// Rebuilds the stacked d̂ˢ and its covariance keeping only the sensors in
// `keep` (given as (suite index, offset, dim) triples into the old stack).
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

}  // namespace

SupervisionOutcome supervise_result(NuiseResult& result, const Mode& mode,
                                    const sensors::SensorSuite& suite,
                                    const HealthConfig& cfg) {
  SupervisionOutcome out;
  if (!cfg.enabled) return out;

  // --- Fatal checks: quantities feeding selection and the shared estimate.
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

  // --- Repairable: mild PSD drift of the state covariance.
  if (repair_covariance(result.state_cov, cfg)) {
    out.repaired = true;
    out.detail = "state covariance eigenvalue clamp";
  }

  // --- Testing-sensor anomaly: strip non-finite blocks instead of letting
  // them poison the χ² attribution. d̂ˢ does not feed selection or the
  // shared estimate, so this degrades rather than quarantines the mode.
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

}  // namespace roboads::core

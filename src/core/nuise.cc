#include "core/nuise.h"

#include <algorithm>

#include "matrix/decomp.h"
#include "obs/timer.h"
#include "stats/gaussian.h"

namespace roboads::core {
namespace {

// I − m for square m, each element computed as Matrix::identity(n) − m
// computes it (1.0 − mᵢᵢ, 0.0 − mᵢⱼ: signed zeros included), without
// keeping an identity matrix per estimator.
Matrix identity_minus(Matrix m) {
  ROBOADS_CHECK(m.square(), "identity_minus requires a square matrix");
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      m(i, j) = (i == j ? 1.0 : 0.0) - m(i, j);
    }
  }
  return m;
}

}  // namespace

NuiseStageTimers NuiseStageTimers::resolve(obs::MetricsRegistry* metrics) {
  NuiseStageTimers t;
  if (metrics == nullptr) return t;
  t.input_estimation = &metrics->histogram("nuise.input_estimation_ns");
  t.predict = &metrics->histogram("nuise.predict_ns");
  t.correct = &metrics->histogram("nuise.correct_ns");
  t.sensor_anomaly = &metrics->histogram("nuise.sensor_anomaly_ns");
  t.likelihood = &metrics->histogram("nuise.likelihood_ns");
  return t;
}

Nuise::Nuise(const dyn::DynamicModel& model,
             const sensors::SensorSuite& suite, Mode mode, Matrix process_cov)
    : model_(model),
      suite_(suite),
      mode_(std::move(mode)),
      process_cov_(std::move(process_cov)) {
  validate_modes({mode_}, suite_);
  ROBOADS_CHECK(process_cov_.rows() == model_.state_dim() &&
                    process_cov_.cols() == model_.state_dim(),
                "process covariance shape mismatch");
  ROBOADS_CHECK(process_cov_.is_symmetric(1e-8),
                "process covariance must be symmetric");
  if (suite_.count() > 0) {
    ROBOADS_CHECK_EQ(suite_.sensor(0).state_dim(), model_.state_dim(),
                     "suite and model disagree on state dimension");
  }
  // Exact symmetry lets the step use the mirrored-triangle covariance
  // kernels (sandwich / add_self_adjoint) without per-use symmetrization.
  process_cov_.symmetrize();

  // Mode-invariant workspace: everything the steady-state step would
  // otherwise rebuild per iteration.
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

NuiseResult Nuise::step(const Vector& x_prev, const Matrix& p_prev,
                        const Vector& u_prev, const Vector& z_full,
                        const NuiseStageTimers& timers) const {
  return step_subsets(mode_.reference, mode_.testing, x_prev, p_prev, u_prev,
                      z_full, /*cached=*/true, timers);
}

NuiseResult Nuise::step(const Vector& x_prev, const Matrix& p_prev,
                        const Vector& u_prev, const Vector& z_full,
                        const SensorMask& available,
                        const NuiseStageTimers& timers) const {
  if (available.empty()) return step(x_prev, p_prev, u_prev, z_full, timers);
  ROBOADS_CHECK_EQ(available.size(), suite_.count(),
                   "availability mask size mismatch");

  auto filter = [&](const std::vector<std::size_t>& set) {
    std::vector<std::size_t> kept;
    kept.reserve(set.size());
    for (std::size_t i : set) {
      if (available[i]) kept.push_back(i);
    }
    return kept;
  };
  const std::vector<std::size_t> ref = filter(mode_.reference);
  const std::vector<std::size_t> tst = filter(mode_.testing);

  if (ref.size() == mode_.reference.size() &&
      tst.size() == mode_.testing.size()) {
    // Every sensor of this mode arrived: the exact full step.
    return step(x_prev, p_prev, u_prev, z_full, timers);
  }
  if (ref.empty()) {
    return predict_only(tst, x_prev, p_prev, u_prev, z_full, timers);
  }
  NuiseResult out = step_subsets(ref, tst, x_prev, p_prev, u_prev, z_full,
                                 /*cached=*/false, timers);
  out.degraded = true;
  out.active_testing = tst;
  return out;
}

NuiseResult Nuise::predict_only(const std::vector<std::size_t>& tst,
                                const Vector& x_prev, const Matrix& p_prev,
                                const Vector& u_prev, const Vector& z_full,
                                const NuiseStageTimers& timers) const {
  const std::size_t q = model_.input_dim();
  ROBOADS_CHECK_EQ(x_prev.size(), model_.state_dim(),
                   "previous state size mismatch");
  ROBOADS_CHECK_EQ(u_prev.size(), q, "control size mismatch");

  NuiseResult out;
  out.correction_applied = false;
  out.likelihood_informative = false;
  out.degraded = true;
  out.active_testing = tst;

  obs::SplitTimer split(timers.any());

  // Propagate through the kinematics with the planned (uncompensated)
  // input: with no reference readings there is no innovation to estimate
  // d̂ᵃ from, so the best available state is the open-loop prediction.
  const Matrix a = model_.jacobian_state(x_prev, u_prev);
  out.state = model_.step(x_prev, u_prev);
  out.state_cov = sandwich(a, p_prev);
  out.state_cov += process_cov_;

  // No information about the actuator this iteration: a zero estimate with
  // identity covariance makes the decision maker's χ² statistic exactly 0.
  out.actuator_anomaly = Vector(q);
  out.actuator_anomaly_cov = Matrix::identity(q);
  out.actuator_identifiable = false;
  split.lap(timers.predict);

  // Testing sensors that did arrive are still screened against the
  // prediction; the wider Pˣ of the open-loop step is accounted for in the
  // anomaly covariance.
  if (!tst.empty()) {
    const Vector z1 = suite_.slice(tst, z_full);
    out.sensor_anomaly = suite_.residual(tst, z1, out.state);
    const Matrix c1 = suite_.jacobian(tst, out.state);
    out.sensor_anomaly_cov = sandwich(c1, out.state_cov);
    out.sensor_anomaly_cov += suite_.noise_covariance(tst);
  }
  split.lap(timers.sensor_anomaly);
  out.log_likelihood = 0.0;  // placeholder; flagged uninformative
  return out;
}

NuiseResult Nuise::step_subsets(const std::vector<std::size_t>& ref,
                                const std::vector<std::size_t>& tst,
                                const Vector& x_prev, const Matrix& p_prev,
                                const Vector& u_prev, const Vector& z_full,
                                bool cached,
                                const NuiseStageTimers& timers) const {
  const std::size_t n = model_.state_dim();
  const std::size_t q = model_.input_dim();
  ROBOADS_CHECK_EQ(x_prev.size(), n, "previous state size mismatch");
  ROBOADS_CHECK(p_prev.rows() == n && p_prev.cols() == n,
                "previous covariance shape mismatch");
  ROBOADS_CHECK_EQ(u_prev.size(), q, "control size mismatch");

  obs::SplitTimer split(timers.any());

  const Matrix a = model_.jacobian_state(x_prev, u_prev);
  const Matrix g = model_.jacobian_input(x_prev, u_prev);
  const Matrix& qc = process_cov_;

  // Subset-dependent structure: served from the workspace on the healthy
  // path, rebuilt only for degraded (filtered-subset) steps.
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
  // Linearize h₂ at the uncompensated prediction f(x̂, u).
  const Vector x_bare = model_.step(x_prev, u_prev);
  const Matrix c2 = suite_.jacobian(ref, x_bare);
  const Vector z2 = suite_.slice(ref, z_full);

  Matrix p_tilde = sandwich(a, p_prev);
  p_tilde += qc;
  Matrix r_star = sandwich(c2, p_tilde);
  r_star += r2;

  const Matrix f = c2 * g;  // how the input shows in the reference readings
  // Fᵀ R*⁻¹ by factor-solve with F as the right-hand side — no explicit
  // inverse (R*⁻¹ is symmetric, so (R*⁻¹F)ᵀ is exactly the product needed).
  const SpdFactor r_star_factor(r_star);
  const Matrix ft_rinv = r_star_factor.solve(f).transpose();
  Matrix gram = ft_rinv * f;
  gram.symmetrize();

  NuiseResult out;
  // One shared eigendecomposition answers both the identifiability question
  // and the pseudo-inverse: when the reference group under-determines the
  // input the eigen-thresholded pseudo-inverse yields the minimum-norm
  // estimate instead of amplifying a numerically-tiny pivot.
  const SpdEigenFactor gram_factor(gram);
  out.actuator_identifiable = gram_factor.rank() == q;
  const Matrix m2 = gram_factor.pseudo_inverse() * ft_rinv;

  const Vector resid_bare = suite_.residual(ref, z2, x_bare, ref_mask);
  out.actuator_anomaly = m2 * resid_bare;
  out.actuator_anomaly_cov = sandwich(m2, r_star);
  split.lap(timers.input_estimation);

  // --- Step 2: state prediction with compensation (lines 7-10). ---
  // The compensated input is clamped to the actuator's physical range: an
  // executed command cannot lie outside it, and extrapolating the nonlinear
  // kinematics past it (e.g. tan of an unobservable steering estimate at
  // standstill) would destabilize the shared state estimate.
  // The compensation uses a shrunk estimate: the MAP of d̂ᵃ under a
  // zero-mean Gaussian prior whose scale is the model's linearization trust
  // radius. Where the estimate is sharp (Pᵃ ≪ trust²) this is full
  // compensation; where the innovation geometry makes d̂ᵃ noisy (e.g.
  // near-collinear speed/steering columns in a hard turn) the noise is
  // suppressed instead of extrapolating tan-type nonlinearities with it and
  // poisoning the shared state. Only the compensation is shrunk — the
  // reported estimate and its χ² statistic stay untouched.
  const Vector& sat = ws_.sat;
  const Vector& trust = ws_.trust;
  const Matrix& t_prior = ws_.t_prior;
  // Pᵃ + T is SPD by construction (T has strictly positive diagonal), so
  // the shrinkage solve takes the Cholesky path; the eigen fallback only
  // engages if Pᵃ degenerated numerically.
  Matrix shrink_m = out.actuator_anomaly_cov;
  shrink_m += t_prior;
  const SpdFactor shrink(shrink_m);
  const Vector delta = t_prior * shrink.solve(out.actuator_anomaly);
  Vector u_comp = u_prev;
  for (std::size_t i = 0; i < q; ++i) {
    const double step_i = std::clamp(delta[i], -3.0 * trust[i],
                                     3.0 * trust[i]);
    u_comp[i] = std::clamp(u_prev[i] + step_i, -sat[i], sat[i]);
  }
  const Vector x_pred = model_.step(x_prev, u_comp);
  const Matrix gm2 = g * m2;
  const Matrix proj = identity_minus(gm2 * c2);  // (I − G M₂ C₂)
  const Matrix a_bar = proj * a;
  Matrix q_bar = sandwich(proj, qc);
  q_bar += sandwich(gm2, r2);
  Matrix p_pred = sandwich(a_bar, p_prev);
  p_pred += q_bar;
  split.lap(timers.predict);

  // --- Step 3: state estimation (lines 11-14). ---
  // Relinearize h₂ at the compensated prediction.
  const Matrix c2p = suite_.jacobian(ref, x_pred);
  // Cross-covariance Ū = E[(x_k − x̂_{k|k−1}) ξ₂ᵀ] = −G M₂ R₂.
  const Matrix u_cross = -(gm2 * r2);
  Matrix innov_cov = sandwich(c2p, p_pred);
  innov_cov += r2;
  add_self_adjoint(innov_cov, c2p * u_cross);
  // The innovation covariance is *structurally* rank-deficient: the d̂ᵃ
  // compensation consumes q degrees of freedom of the reference innovation
  // (this is why line 20 of Algorithm 2 is written with pseudo-inverse and
  // pseudo-determinant). One eigendecomposition serves the support-only
  // gain inversion here AND the rank / pseudo-determinant / Mahalanobis
  // terms of the mode likelihood below.
  const SpdEigenFactor innov_factor(innov_cov);
  const Matrix gain =
      (p_pred * c2p.transpose() + u_cross) * innov_factor.pseudo_inverse();

  const Vector innovation = suite_.residual(ref, z2, x_pred, ref_mask);
  out.state = x_pred + gain * innovation;

  // Generalized Joseph form: exact for any gain, keeps Pˣ symmetric PSD.
  const Matrix ilc = identity_minus(gain * c2p);
  Matrix state_cov = sandwich(ilc, p_pred);
  state_cov += sandwich(gain, r2);
  add_self_adjoint(state_cov, ilc * u_cross * gain.transpose(), -1.0);
  out.state_cov = std::move(state_cov);
  split.lap(timers.correct);

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
    Matrix sa_cov = sandwich(c1, out.state_cov);
    sa_cov += r1;
    out.sensor_anomaly_cov = std::move(sa_cov);
  }
  split.lap(timers.sensor_anomaly);

  // --- Mode likelihood (lines 17-20). ---
  out.innovation = innovation;
  out.innovation_cov = innov_cov;
  out.log_likelihood =
      stats::degenerate_gaussian_log_pdf(innovation, innov_factor);
  split.lap(timers.likelihood);
  return out;
}

}  // namespace roboads::core

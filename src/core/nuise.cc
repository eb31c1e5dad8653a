#include "core/nuise.h"

#include <algorithm>

#include "matrix/kernels_impl.h"
#include "obs/timer.h"
#include "stats/gaussian.h"

namespace roboads::core {
namespace {

using kernels::Buf;
using kernels::EigenFactor;
using kernels::Extent;
using kernels::Factor;
using kernels::extent;
using kernels::kFixed;
using kernels::kOne;
using kernels::sandwich_into;
namespace ext = kernels::ext;

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
  ROBOADS_CHECK(suite_.count() <= kMaxSuiteSensors,
                "suite has more than kMaxSuiteSensors (8) sensors: NUISE "
                "builds all 2^p availability patterns of a mode");
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

  sat_ = model_.input_saturation();
  trust_ = model_.input_trust_radius();
  const std::size_t q = model_.input_dim();
  Vector trust_var(q);
  for (std::size_t i = 0; i < q; ++i) {
    trust_var[i] = std::min(trust_[i] * trust_[i], 1e12);
  }
  t_prior_ = Matrix::diagonal(trust_var);

  // Every availability pattern of the mode, with the step_subsets
  // instantiation for its reference rows r: compile-time extents for
  // n = 3, q = 2 and r ≤ 4, run-time extents otherwise.
  const bool compiled = model_.state_dim() == 3 && q == 2;
  patterns_.resize(std::size_t{1} << suite_.count());
  for (std::size_t missing = 0; missing < patterns_.size(); ++missing) {
    const auto arrived = [missing](const std::vector<std::size_t>& set) {
      std::vector<std::size_t> kept;
      for (std::size_t i : set) {
        if (((missing >> i) & 1u) == 0) kept.push_back(i);
      }
      return kept;
    };
    Pattern& p = patterns_[missing];
    p.ref = arrived(mode_.reference);
    p.tst = arrived(mode_.testing);
    p.r2 = suite_.noise_covariance(p.ref);
    p.r1 = suite_.noise_covariance(p.tst);
    p.ref_angle_mask = suite_.angle_mask(p.ref);
    p.tst_angle_mask = suite_.angle_mask(p.tst);
    if (p.ref.empty()) {
      p.body = &Nuise::predict_only;
      continue;
    }
    p.body = &Nuise::step_subsets<std::size_t, std::size_t, std::size_t>;
    if (compiled) {
      kernels::with_extent(p.r2.rows(), [&p](auto r) {
        if constexpr (kFixed<decltype(r)>) {
          p.body = &Nuise::step_subsets<Extent<3>, Extent<2>, decltype(r)>;
        }
      });
    }
  }
}

NuiseResult Nuise::step(const Vector& x_prev, const Matrix& p_prev,
                        const Vector& u_prev, const Vector& z_full,
                        SensorMask available) const {
  NuiseResult out;
  step_into(x_prev, p_prev, u_prev, z_full, available, out);
  return out;
}

void Nuise::step_into(const Vector& x_prev, const Matrix& p_prev,
                      const Vector& u_prev, const Vector& z_full,
                      SensorMask available, NuiseResult& out,
                      const NuiseStageTimers& timers) const {
  const std::size_t n = model_.state_dim();
  ROBOADS_CHECK_EQ(x_prev.size(), n, "previous state size mismatch");
  ROBOADS_CHECK(p_prev.rows() == n && p_prev.cols() == n,
                "previous covariance shape mismatch");
  ROBOADS_CHECK_EQ(u_prev.size(), model_.input_dim(),
                   "control size mismatch");
  ROBOADS_CHECK_EQ(z_full.size(), suite_.total_dim(),
                   "full reading size mismatch");
  ROBOADS_CHECK(available.within(suite_.count()),
                "availability mask names a sensor past the suite");
  const Pattern& pattern = patterns_[available.bits()];
  (this->*pattern.body)(pattern, x_prev, p_prev, u_prev, z_full, out,
                        timers);
  out.degraded = !available.complete();
  if (out.degraded) {
    out.active_testing.assign(pattern.tst.begin(), pattern.tst.end());
  } else {
    out.active_testing.clear();
  }
}

// Step 4 (lines 15-16): the testing-sensor anomaly d̂ˢ = z₁ − h₁(x̂) and its
// covariance C₁ Pˣ C₁ᵀ + R₁, over the testing sensors that arrived.
template <typename N>
void Nuise::sensor_anomaly_into(const Pattern& pattern, const Vector& z_full,
                                N n, NuiseResult& out) const {
  const std::size_t t = pattern.r1.rows();
  out.sensor_anomaly.resize_for_overwrite(t);
  out.sensor_anomaly_cov.resize_for_overwrite(t, t);
  if (t == 0) return;
  const double* const state = out.state.data();
  Buf<std::size_t, Extent<1>> z1(t, kOne);
  suite_.slice_into(pattern.tst, z_full.data(), z1.data());
  suite_.residual_into(pattern.tst, z1.data(), state, pattern.tst_angle_mask,
                       out.sensor_anomaly.data());
  Buf<std::size_t, N> c1(t, n);
  suite_.jacobian_into(pattern.tst, state, c1.data());
  double* const sa_cov = out.sensor_anomaly_cov.data();
  sandwich_into(c1.data(), out.state_cov.data(), sa_cov, t, n);
  ext::add(sa_cov, pattern.r1.data(), t, t);
}

void Nuise::predict_only(const Pattern& pattern, const Vector& x_prev,
                         const Matrix& p_prev, const Vector& u_prev,
                         const Vector& z_full, NuiseResult& out,
                         const NuiseStageTimers& timers) const {
  const std::size_t n = model_.state_dim();
  const std::size_t q = model_.input_dim();
  obs::SplitTimer split(timers.any());

  // Propagate through the kinematics with the planned (uncompensated)
  // input: with no reference readings there is no innovation to estimate
  // d̂ᵃ from, so the best available state is the open-loop prediction.
  Buf<std::size_t, std::size_t> a(n, n);
  model_.jacobian_state_into(x_prev.data(), u_prev.data(), a.data());
  // f(x̂, u) may not write over its input, and x_prev may be out.state.
  Buf<std::size_t, Extent<1>> x_next(n, kOne);
  model_.step_into(x_prev.data(), u_prev.data(), x_next.data());
  out.state.resize_for_overwrite(n);
  std::copy(x_next.data(), x_next.data() + n, out.state.data());
  out.state_cov.resize_for_overwrite(n, n);
  sandwich_into(a.data(), p_prev.data(), out.state_cov.data(), n, n);
  ext::add(out.state_cov.data(), process_cov_.data(), n, n);

  // No information about the actuator this iteration: a zero estimate with
  // identity covariance makes the decision maker's χ² statistic exactly 0.
  out.actuator_anomaly.resize_for_overwrite(q);
  std::fill_n(out.actuator_anomaly.data(), q, 0.0);
  out.actuator_anomaly_cov.resize_for_overwrite(q, q);
  double* const pa = out.actuator_anomaly_cov.data();
  std::fill_n(pa, q * q, 0.0);
  for (std::size_t i = 0; i < q; ++i) pa[i * q + i] = 1.0;
  out.actuator_identifiable = false;
  split.lap(timers.predict);

  // Testing sensors that did arrive are still screened against the
  // prediction; the wider Pˣ of the open-loop step is accounted for in the
  // anomaly covariance.
  sensor_anomaly_into(pattern, z_full, n, out);
  split.lap(timers.sensor_anomaly);
  out.innovation.resize_for_overwrite(0);
  out.innovation_cov.resize_for_overwrite(0, 0);
  out.log_likelihood = 0.0;  // placeholder; flagged uninformative
  out.correction_applied = false;
  out.likelihood_informative = false;
}

// Written once over the extents N, Q and R (compile-time or std::size_t):
// every operation is a kernels_impl.h template, so each instantiation runs
// the floating-point operations of the Matrix-API step in the same order
// (docs/PERFORMANCE.md "Compiled NUISE step"). The model and the sensors
// write A, G, f(x̂, u), the C's, the z's and the residuals straight into
// the step's arrays, and each NuiseResult field is written once, in place
// (docs/PERFORMANCE.md "Array-native detector step"). The testing
// dimension t only sets row counts and stays a run-time value.
template <typename N, typename Q, typename R>
void Nuise::step_subsets(const Pattern& pattern, const Vector& x_prev,
                         const Matrix& p_prev, const Vector& u_prev,
                         const Vector& z_full, NuiseResult& out,
                         const NuiseStageTimers& timers) const {
  const std::size_t n_dim = model_.state_dim();
  const std::size_t q_dim = model_.input_dim();
  const N n = extent<N>(n_dim);
  const Q q = extent<Q>(q_dim);
  const std::vector<std::size_t>& ref = pattern.ref;
  const Matrix& r2 = pattern.r2;
  const std::vector<bool>& ref_mask = pattern.ref_angle_mask;
  const R r = extent<R>(r2.rows());

  obs::SplitTimer split(timers.any());

  Buf<N, N> a(n, n);
  model_.jacobian_state_into(x_prev.data(), u_prev.data(), a.data());
  Buf<N, Q> g(n, q);
  model_.jacobian_input_into(x_prev.data(), u_prev.data(), g.data());
  const double* qc = process_cov_.data();

  // --- Step 1: actuator anomaly estimation (lines 2-6). ---
  // Linearize h₂ at the uncompensated prediction f(x̂, u).
  Buf<N, Extent<1>> x_bare(n, kOne);
  model_.step_into(x_prev.data(), u_prev.data(), x_bare.data());
  Buf<R, N> c2(r, n);
  suite_.jacobian_into(ref, x_bare.data(), c2.data());
  Buf<R, Extent<1>> z2(r, kOne);
  suite_.slice_into(ref, z_full.data(), z2.data());

  Buf<N, N> p_tilde(n, n);
  sandwich_into(a.data(), p_prev.data(), p_tilde.data(), n, n);
  ext::add(p_tilde.data(), qc, n, n);
  Buf<R, R> r_star(r, r);
  sandwich_into(c2.data(), p_tilde.data(), r_star.data(), r, n);
  ext::add(r_star.data(), r2.data(), r, r);

  // F = C₂G: how the input shows in the reference readings.
  Buf<R, Q> f(r, q);
  ext::product(c2.data(), g.data(), f.data(), r, n, q);
  // Fᵀ R*⁻¹ by factor-solve with F as the right-hand side — no explicit
  // inverse (R*⁻¹ is symmetric, so (R*⁻¹F)ᵀ is exactly the product needed).
  Buf<Q, R> ft_rinv(q, r);
  {
    const Factor<R> r_star_factor(r_star.data(), r);
    Buf<R, Q> rinv_f(r, q);
    r_star_factor.solve_columns(f.data(), rinv_f.data(), q);
    ext::transpose(rinv_f.data(), ft_rinv.data(), r, q);
  }
  Buf<Q, Q> gram(q, q);
  ext::product(ft_rinv.data(), f.data(), gram.data(), q, r, q);
  ext::symmetrize(gram.data(), q);

  // One shared eigendecomposition answers both the identifiability question
  // and the pseudo-inverse: when the reference group under-determines the
  // input the eigen-thresholded pseudo-inverse yields the minimum-norm
  // estimate instead of amplifying a numerically-tiny pivot.
  Buf<Q, R> m2(q, r);
  {
    const EigenFactor<Q> gram_factor(gram.data(), q);
    out.actuator_identifiable = gram_factor.rank == q;
    Buf<Q, Q> gram_pinv(q, q);
    gram_factor.pseudo_inverse(gram_pinv.data());
    ext::product(gram_pinv.data(), ft_rinv.data(), m2.data(), q, q, r);
  }

  Buf<R, Extent<1>> resid_bare(r, kOne);
  suite_.residual_into(ref, z2.data(), x_bare.data(), ref_mask,
                       resid_bare.data());
  out.actuator_anomaly.resize_for_overwrite(q_dim);
  double* const da = out.actuator_anomaly.data();
  ext::matvec(m2.data(), resid_bare.data(), da, q, r);
  out.actuator_anomaly_cov.resize_for_overwrite(q_dim, q_dim);
  double* const pa = out.actuator_anomaly_cov.data();
  sandwich_into(m2.data(), r_star.data(), pa, q, r);
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
  const double* const sat = sat_.data();
  const double* const trust = trust_.data();
  // Pᵃ + T is SPD by construction (T has strictly positive diagonal), so
  // the shrinkage solve takes the Cholesky path; the eigen fallback only
  // engages if Pᵃ degenerated numerically.
  Buf<Q, Extent<1>> delta(q, kOne);
  {
    Buf<Q, Q> shrink_m(q, q);
    std::copy(pa, pa + q * q, shrink_m.data());
    ext::add(shrink_m.data(), t_prior_.data(), q, q);
    const Factor<Q> shrink(shrink_m.data(), q);
    Buf<Q, Extent<1>> solved(q, kOne);
    shrink.solve(da, solved.data());
    ext::matvec(t_prior_.data(), solved.data(), delta.data(), q, q);
  }
  Buf<Q, Extent<1>> u_comp(q, kOne);
  for (std::size_t i = 0; i < q; ++i) {
    const double step_i = std::clamp(delta.data()[i], -3.0 * trust[i],
                                     3.0 * trust[i]);
    u_comp.data()[i] =
        std::clamp(u_prev.data()[i] + step_i, -sat[i], sat[i]);
  }
  Buf<N, Extent<1>> x_pred(n, kOne);
  model_.step_into(x_prev.data(), u_comp.data(), x_pred.data());
  Buf<N, R> gm2(n, r);
  ext::product(g.data(), m2.data(), gm2.data(), n, q, r);
  Buf<N, N> p_pred(n, n);
  {
    Buf<N, N> proj(n, n);  // (I − G M₂ C₂)
    ext::product(gm2.data(), c2.data(), proj.data(), n, r, n);
    ext::identity_minus(proj.data(), n);
    Buf<N, N> a_bar(n, n);
    ext::product(proj.data(), a.data(), a_bar.data(), n, n, n);
    Buf<N, N> q_bar(n, n);
    sandwich_into(proj.data(), qc, q_bar.data(), n, n);
    Buf<N, N> gm2_r2(n, n);
    sandwich_into(gm2.data(), r2.data(), gm2_r2.data(), n, r);
    ext::add(q_bar.data(), gm2_r2.data(), n, n);
    sandwich_into(a_bar.data(), p_prev.data(), p_pred.data(), n, n);
    ext::add(p_pred.data(), q_bar.data(), n, n);
  }
  split.lap(timers.predict);

  // --- Step 3: state estimation (lines 11-14). ---
  // Relinearize h₂ at the compensated prediction.
  Buf<R, N> c2p(r, n);
  suite_.jacobian_into(ref, x_pred.data(), c2p.data());
  // Cross-covariance Ū = E[(x_k − x̂_{k|k−1}) ξ₂ᵀ] = −G M₂ R₂.
  Buf<N, R> u_cross(n, r);
  ext::product(gm2.data(), r2.data(), u_cross.data(), n, r, r);
  ext::scale(u_cross.data(), -1.0, n, r);
  out.innovation_cov.resize_for_overwrite(r, r);
  double* const innov_cov = out.innovation_cov.data();
  sandwich_into(c2p.data(), p_pred.data(), innov_cov, r, n);
  ext::add(innov_cov, r2.data(), r, r);
  {
    Buf<R, R> cu(r, r);
    ext::product(c2p.data(), u_cross.data(), cu.data(), r, n, r);
    ext::add_self_adjoint(innov_cov, cu.data(), r, 1.0);
  }
  // The innovation covariance is *structurally* rank-deficient: the d̂ᵃ
  // compensation consumes q degrees of freedom of the reference innovation
  // (this is why line 20 of Algorithm 2 is written with pseudo-inverse and
  // pseudo-determinant). One eigendecomposition serves the support-only
  // gain inversion here AND the rank / pseudo-determinant / Mahalanobis
  // terms of the mode likelihood below.
  const EigenFactor<R> innov_factor(innov_cov, r);
  Buf<N, R> gain(n, r);
  {
    Buf<N, R> c2p_t(n, r);
    ext::transpose(c2p.data(), c2p_t.data(), r, n);
    Buf<N, R> pc(n, r);
    ext::product(p_pred.data(), c2p_t.data(), pc.data(), n, n, r);
    ext::add(pc.data(), u_cross.data(), n, r);
    Buf<R, R> innov_pinv(r, r);
    innov_factor.pseudo_inverse(innov_pinv.data());
    ext::product(pc.data(), innov_pinv.data(), gain.data(), n, r, r);
  }

  out.innovation.resize_for_overwrite(r);
  double* const innovation = out.innovation.data();
  suite_.residual_into(ref, z2.data(), x_pred.data(), ref_mask, innovation);
  out.state.resize_for_overwrite(n_dim);
  double* const state = out.state.data();
  {
    Buf<N, Extent<1>> correction(n, kOne);
    ext::matvec(gain.data(), innovation, correction.data(), n, r);
    std::copy(x_pred.data(), x_pred.data() + n, state);
    ext::add(state, correction.data(), n, kOne);
  }

  // Generalized Joseph form: exact for any gain, keeps Pˣ symmetric PSD.
  out.state_cov.resize_for_overwrite(n_dim, n_dim);
  double* const state_cov = out.state_cov.data();
  {
    Buf<N, N> ilc(n, n);
    ext::product(gain.data(), c2p.data(), ilc.data(), n, r, n);
    ext::identity_minus(ilc.data(), n);
    sandwich_into(ilc.data(), p_pred.data(), state_cov, n, n);
    Buf<N, N> gain_r2(n, n);
    sandwich_into(gain.data(), r2.data(), gain_r2.data(), n, r);
    ext::add(state_cov, gain_r2.data(), n, n);
    Buf<N, R> ilc_u(n, r);
    ext::product(ilc.data(), u_cross.data(), ilc_u.data(), n, n, r);
    Buf<R, N> gain_t(r, n);
    ext::transpose(gain.data(), gain_t.data(), n, r);
    Buf<N, N> cross(n, n);
    ext::product(ilc_u.data(), gain_t.data(), cross.data(), n, r, n);
    ext::add_self_adjoint(state_cov, cross.data(), n, -1.0);
  }
  split.lap(timers.correct);

  // --- Step 4: testing-sensor anomaly estimation (lines 15-16). ---
  sensor_anomaly_into(pattern, z_full, n, out);
  split.lap(timers.sensor_anomaly);

  // --- Mode likelihood (lines 17-20). ---
  const double* w = innov_factor.w.data();
  const double* vecs = innov_factor.vecs.data();
  const double cutoff = innov_factor.cutoff;
  out.log_likelihood = stats::degenerate_gaussian_log_pdf(
      innov_factor.rank, ext::eigen_log_pseudo_determinant(w, cutoff, r),
      ext::eigen_quadratic_form(w, vecs, cutoff, innovation, r));
  out.correction_applied = true;
  out.likelihood_informative = true;
  split.lap(timers.likelihood);
}

}  // namespace roboads::core

#include "core/nuise.h"

#include <algorithm>
#include <optional>

#include "matrix/kernels_impl.h"
#include "obs/timer.h"
#include "stats/gaussian.h"

namespace roboads::core {
namespace {

using kernels::Extent;
using kernels::kFixed;
namespace ext = kernels::ext;

constexpr Extent<1> kOne{};

// The extent of type Ext for the run-time size v: Ext{} when the extent is
// compile-time (and must equal v), v itself otherwise.
template <typename Ext>
Ext extent(std::size_t v) {
  if constexpr (kFixed<Ext>) {
    ROBOADS_CHECK_EQ(v, Ext::value, "compiled NUISE step shape mismatch");
    return Ext{};
  } else {
    return v;
  }
}

// Storage for one rows×cols intermediate of the step: a stack array when
// both extents are compile-time, otherwise a Matrix (inline up to 121
// elements, so the run-time path stays allocation-free on the detector's
// shapes). Elements start unwritten; every kernel writes its whole output.
template <typename Rows, typename Cols, bool = kFixed<Rows> && kFixed<Cols>>
class Buf {
 public:
  Buf(Rows, Cols) {}
  double* data() { return d_; }
  const double* data() const { return d_; }
  Matrix matrix() && {
    Matrix m = Matrix::for_overwrite(Rows::value, Cols::value);
    std::copy(d_, d_ + Rows::value * Cols::value, m.data());
    return m;
  }

 private:
  double d_[Rows::value * Cols::value];
};

template <typename Rows, typename Cols>
class Buf<Rows, Cols, false> {
 public:
  Buf(Rows rows, Cols cols) : m_(Matrix::for_overwrite(rows, cols)) {}
  double* data() { return m_.data(); }
  const double* data() const { return m_.data(); }
  Matrix matrix() && { return std::move(m_); }

 private:
  Matrix m_;
};

// out (m×m) = a (m×k) · s · aᵀ, as roboads::sandwich computes it.
template <typename M, typename K>
void sandwich_into(const double* a, const double* s, double* out, M m, K k) {
  Buf<M, K> as(m, k);
  ext::sandwich(a, s, as.data(), out, m, k);
}

// SpdEigenFactor(a) on extent N (rel_tol 1e-10, cutoff not dim-scaled).
template <typename N>
struct EigenFactor {
  EigenFactor(const double* a, N n) : n(n), w(n, kOne), vecs(n, n) {
    Buf<N, N> s(n, n);
    Buf<N, N> v(n, n);
    std::copy(a, a + n * n, s.data());
    cutoff = ext::spd_eigen_factor(s.data(), v.data(), w.data(), vecs.data(),
                                   n, 1e-10, /*dim_scaled=*/false);
    rank = ext::eigen_rank(w.data(), n, cutoff);
  }

  // SpdEigenFactor::pseudo_inverse into out (n×n).
  void pseudo_inverse(double* out) const {
    Buf<N, N> scaled(n, n);
    Buf<N, N> vt(n, n);
    ext::eigen_pseudo_inverse(w.data(), vecs.data(), cutoff, scaled.data(),
                              vt.data(), out, n);
  }

  N n;
  Buf<N, Extent<1>> w;  // eigenvalues, descending
  Buf<N, N> vecs;       // eigenvector columns
  double cutoff;
  std::size_t rank;
};

// SpdFactor(a) on extent N: the trusted Cholesky factor, or the eigen
// pseudo-inverse fallback when the factorization fails or is not trusted.
template <typename N>
struct Factor {
  Factor(const double* a, N n) : n(n), l(n, n) {
    if (!ext::cholesky(a, l.data(), n) ||
        !ext::cholesky_trusted(a, l.data(), n, 1e-10)) {
      eig.emplace(a, n);
    }
  }

  // x = A⁻¹ b (A⁺ b on the fallback), as SpdFactor::solve(Vector).
  void solve(const double* b, double* x) const {
    if (!eig) {
      std::copy(b, b + n, x);
      ext::cholesky_solve(l.data(), x, n);
    } else {
      ext::eigen_solve(eig->w.data(), eig->vecs.data(), eig->cutoff, b, x, n);
    }
  }

  // X = A⁻¹ B for B and X n×cols, column by column, as
  // SpdFactor::solve(Matrix).
  template <typename C>
  void solve_columns(const double* b, double* x, C cols) const {
    Buf<N, Extent<1>> in(n, kOne);
    Buf<N, Extent<1>> sol(n, kOne);
    for (std::size_t j = 0; j < cols; ++j) {
      for (std::size_t i = 0; i < n; ++i) in.data()[i] = b[i * cols + j];
      solve(in.data(), sol.data());
      for (std::size_t i = 0; i < n; ++i) x[i * cols + j] = sol.data()[i];
    }
  }

  N n;
  Buf<N, N> l;
  std::optional<EigenFactor<N>> eig;
};

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

  full_step_ = &Nuise::step_subsets<std::size_t, std::size_t, std::size_t>;
  if (model_.state_dim() == 3 && q == 2) {
    kernels::with_extent(ws_.r2.rows(), [this](auto r) {
      if constexpr (kFixed<decltype(r)>) {
        full_step_ = &Nuise::step_subsets<Extent<3>, Extent<2>, decltype(r)>;
      }
    });
  }
}

NuiseResult Nuise::step(const Vector& x_prev, const Matrix& p_prev,
                        const Vector& u_prev, const Vector& z_full,
                        const NuiseStageTimers& timers) const {
  return (this->*full_step_)(mode_.reference, mode_.testing, x_prev, p_prev,
                             u_prev, z_full, /*cached=*/true, timers);
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
  NuiseResult out = step_subsets<std::size_t, std::size_t, std::size_t>(
      ref, tst, x_prev, p_prev, u_prev, z_full, /*cached=*/false, timers);
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


// Written once over the extents N, Q and R (compile-time or std::size_t):
// every operation is a kernels_impl.h template, so each instantiation runs
// the floating-point operations of the Matrix-API step in the same order
// (docs/PERFORMANCE.md "Compiled NUISE step"). The testing dimension t
// only sets row counts and stays a run-time value.
template <typename N, typename Q, typename R>
NuiseResult Nuise::step_subsets(const std::vector<std::size_t>& ref,
                                const std::vector<std::size_t>& tst,
                                const Vector& x_prev, const Matrix& p_prev,
                                const Vector& u_prev, const Vector& z_full,
                                bool cached,
                                const NuiseStageTimers& timers) const {
  const std::size_t n_dim = model_.state_dim();
  const std::size_t q_dim = model_.input_dim();
  ROBOADS_CHECK_EQ(x_prev.size(), n_dim, "previous state size mismatch");
  ROBOADS_CHECK(p_prev.rows() == n_dim && p_prev.cols() == n_dim,
                "previous covariance shape mismatch");
  ROBOADS_CHECK_EQ(u_prev.size(), q_dim, "control size mismatch");
  const N n = extent<N>(n_dim);
  const Q q = extent<Q>(q_dim);

  obs::SplitTimer split(timers.any());

  const Matrix a = model_.jacobian_state(x_prev, u_prev);
  const Matrix g = model_.jacobian_input(x_prev, u_prev);
  ROBOADS_CHECK(a.rows() == n_dim && a.cols() == n_dim && g.rows() == n_dim &&
                    g.cols() == q_dim,
                "model Jacobian shape mismatch");
  const double* qc = process_cov_.data();

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
  ROBOADS_CHECK_EQ(x_bare.size(), n_dim, "model step size mismatch");
  const Matrix c2 = suite_.jacobian(ref, x_bare);
  const Vector z2 = suite_.slice(ref, z_full);
  const R r = extent<R>(c2.rows());

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

  NuiseResult out;
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

  const Vector resid_bare = suite_.residual(ref, z2, x_bare, ref_mask);
  out.actuator_anomaly = Vector::for_overwrite(q_dim);
  ext::matvec(m2.data(), resid_bare.data(), out.actuator_anomaly.data(), q,
              r);
  Buf<Q, Q> pa(q, q);
  sandwich_into(m2.data(), r_star.data(), pa.data(), q, r);
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
  // Pᵃ + T is SPD by construction (T has strictly positive diagonal), so
  // the shrinkage solve takes the Cholesky path; the eigen fallback only
  // engages if Pᵃ degenerated numerically.
  Buf<Q, Extent<1>> delta(q, kOne);
  {
    Buf<Q, Q> shrink_m(q, q);
    std::copy(pa.data(), pa.data() + q * q, shrink_m.data());
    ext::add(shrink_m.data(), ws_.t_prior.data(), q, q);
    const Factor<Q> shrink(shrink_m.data(), q);
    Buf<Q, Extent<1>> solved(q, kOne);
    shrink.solve(out.actuator_anomaly.data(), solved.data());
    ext::matvec(ws_.t_prior.data(), solved.data(), delta.data(), q, q);
  }
  out.actuator_anomaly_cov = std::move(pa).matrix();
  Vector u_comp = u_prev;
  for (std::size_t i = 0; i < q; ++i) {
    const double step_i = std::clamp(delta.data()[i], -3.0 * trust[i],
                                     3.0 * trust[i]);
    u_comp[i] = std::clamp(u_prev[i] + step_i, -sat[i], sat[i]);
  }
  const Vector x_pred = model_.step(x_prev, u_comp);
  ROBOADS_CHECK_EQ(x_pred.size(), n_dim, "model step size mismatch");
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
  const Matrix c2p = suite_.jacobian(ref, x_pred);
  // Cross-covariance Ū = E[(x_k − x̂_{k|k−1}) ξ₂ᵀ] = −G M₂ R₂.
  Buf<N, R> u_cross(n, r);
  ext::product(gm2.data(), r2.data(), u_cross.data(), n, r, r);
  ext::scale(u_cross.data(), -1.0, n, r);
  Matrix innov_cov = Matrix::for_overwrite(r, r);
  sandwich_into(c2p.data(), p_pred.data(), innov_cov.data(), r, n);
  ext::add(innov_cov.data(), r2.data(), r, r);
  {
    Buf<R, R> cu(r, r);
    ext::product(c2p.data(), u_cross.data(), cu.data(), r, n, r);
    ext::add_self_adjoint(innov_cov.data(), cu.data(), r, 1.0);
  }
  // The innovation covariance is *structurally* rank-deficient: the d̂ᵃ
  // compensation consumes q degrees of freedom of the reference innovation
  // (this is why line 20 of Algorithm 2 is written with pseudo-inverse and
  // pseudo-determinant). One eigendecomposition serves the support-only
  // gain inversion here AND the rank / pseudo-determinant / Mahalanobis
  // terms of the mode likelihood below.
  const EigenFactor<R> innov_factor(innov_cov.data(), r);
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

  Vector innovation = suite_.residual(ref, z2, x_pred, ref_mask);
  {
    Buf<N, Extent<1>> correction(n, kOne);
    ext::matvec(gain.data(), innovation.data(), correction.data(), n, r);
    Vector state = x_pred;
    ext::add(state.data(), correction.data(), n, kOne);
    out.state = std::move(state);
  }

  // Generalized Joseph form: exact for any gain, keeps Pˣ symmetric PSD.
  {
    Buf<N, N> ilc(n, n);
    ext::product(gain.data(), c2p.data(), ilc.data(), n, r, n);
    ext::identity_minus(ilc.data(), n);
    Buf<N, N> state_cov(n, n);
    sandwich_into(ilc.data(), p_pred.data(), state_cov.data(), n, n);
    Buf<N, N> gain_r2(n, n);
    sandwich_into(gain.data(), r2.data(), gain_r2.data(), n, r);
    ext::add(state_cov.data(), gain_r2.data(), n, n);
    Buf<N, R> ilc_u(n, r);
    ext::product(ilc.data(), u_cross.data(), ilc_u.data(), n, n, r);
    Buf<R, N> gain_t(r, n);
    ext::transpose(gain.data(), gain_t.data(), n, r);
    Buf<N, N> cross(n, n);
    ext::product(ilc_u.data(), gain_t.data(), cross.data(), n, r, n);
    ext::add_self_adjoint(state_cov.data(), cross.data(), n, -1.0);
    out.state_cov = std::move(state_cov).matrix();
  }
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
    const std::size_t t = c1.rows();
    Matrix sa_cov = Matrix::for_overwrite(t, t);
    sandwich_into(c1.data(), out.state_cov.data(), sa_cov.data(), t, n);
    ext::add(sa_cov.data(), r1.data(), t, t);
    out.sensor_anomaly_cov = std::move(sa_cov);
  }
  split.lap(timers.sensor_anomaly);

  // --- Mode likelihood (lines 17-20). ---
  const double* w = innov_factor.w.data();
  const double* vecs = innov_factor.vecs.data();
  const double cutoff = innov_factor.cutoff;
  out.log_likelihood = stats::degenerate_gaussian_log_pdf(
      innov_factor.rank, ext::eigen_log_pseudo_determinant(w, cutoff, r),
      ext::eigen_quadratic_form(w, vecs, cutoff, innovation.data(), r));
  out.innovation = std::move(innovation);
  out.innovation_cov = std::move(innov_cov);
  split.lap(timers.likelihood);
  return out;
}

}  // namespace roboads::core

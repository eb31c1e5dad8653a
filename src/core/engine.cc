#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/timer.h"
#include "obs/trace.h"

namespace roboads::core {

MultiModeEngine::MultiModeEngine(const dyn::DynamicModel& model,
                                 const sensors::SensorSuite& suite,
                                 std::vector<Mode> modes,
                                 const Matrix& process_cov, const Vector& x0,
                                 const Matrix& p0, EngineConfig config)
    : MultiModeEngine(std::make_shared<const EstimatorBank>(
                          model, suite, std::move(modes), process_cov),
                      x0, p0, std::move(config)) {}

MultiModeEngine::MultiModeEngine(std::shared_ptr<const EstimatorBank> bank,
                                 const Vector& x0, const Matrix& p0,
                                 EngineConfig config)
    : bank_(std::move(bank)), config_(std::move(config)) {
  ROBOADS_CHECK(bank_ != nullptr, "engine needs an estimator bank");
  const std::vector<Mode>& modes = bank_->modes();
  ROBOADS_CHECK(!modes.empty(), "engine needs a bank with estimators");
  ROBOADS_CHECK(config_.likelihood_floor > 0.0 &&
                    config_.likelihood_floor < 1.0 / modes.size(),
                "likelihood floor must lie in (0, 1/M)");

  // Resolve metric handles once; the step hot path never touches the
  // registry mutex. With no registry attached every handle stays null and
  // instrumentation compiles down to per-site null checks.
  if (obs::MetricsRegistry* metrics = config_.instruments.metrics) {
    // coarse_timers keeps the whole-step timers and counters but skips the
    // per-stage NUISE timers (no handles set → SplitTimer disabled → zero
    // clock reads inside the estimator), trading stage breakdown for the
    // always-on telemetry budget (obs/obs.h).
    if (!config_.instruments.coarse_timers) {
      stage_timers_ = NuiseStageTimers::resolve(metrics);
    }
    h_step_ = &metrics->histogram("engine.step_ns",
                                  obs::default_latency_bounds_ns());
    c_mode_selected_.reserve(modes.size());
    for (const Mode& m : modes) {
      c_mode_selected_.push_back(
          &metrics->counter("engine.mode_selected." + m.label));
    }
    c_repairs_ = &metrics->counter("engine.health_repairs");
    c_quarantine_enter_ = &metrics->counter("engine.quarantine_enter");
    c_containment_floor_ = &metrics->counter("engine.containment_floor");
    g_quarantined_ = &metrics->gauge("engine.quarantined_modes");
  }
  reset(x0, p0);
}

void MultiModeEngine::reset(const Vector& x0, const Matrix& p0) {
  ROBOADS_CHECK_EQ(x0.size(), p0.rows(), "initial state/covariance mismatch");
  ROBOADS_CHECK(p0.is_symmetric(1e-8), "initial covariance must be symmetric");
  state_ = x0;
  // Exact symmetry in, exact symmetry out: the NUISE covariance kernels
  // (sandwich / sym_rank_k_update) preserve exact symmetry of their inputs,
  // and p0 is only validated to 1e-8. Symmetrizing an already exactly
  // symmetric p0 is the identity ((a + a) / 2 == a in IEEE arithmetic).
  state_cov_ = p0.symmetrized();
  const std::size_t m_count = modes().size();
  weights_.assign(m_count, 1.0 / static_cast<double>(m_count));
  health_.assign(m_count, ModeHealth{});
  quarantined_scratch_.assign(m_count, false);
  log_w_scratch_.assign(m_count, 0.0);
  step_index_ = 0;
}

void MultiModeEngine::save_state(obs::DetectorStateSnapshot& snap) const {
  // Same-size writes into presized snapshot vectors: after the first call
  // on a given snapshot the capture allocates nothing (the flight-recorder
  // hot-path contract).
  snap.state.assign(state_.data(), state_.data() + state_.size());
  const std::size_t n = state_cov_.rows();
  snap.state_cov.resize(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      snap.state_cov[i * n + j] = state_cov_(i, j);
    }
  }
  snap.weights.assign(weights_.begin(), weights_.end());
  snap.health.resize(health_.size() * 4);
  for (std::size_t m = 0; m < health_.size(); ++m) {
    snap.health[4 * m + 0] = static_cast<std::int64_t>(health_[m].state);
    snap.health[4 * m + 1] =
        static_cast<std::int64_t>(health_[m].clean_streak);
    snap.health[4 * m + 2] =
        static_cast<std::int64_t>(health_[m].quarantine_count);
    snap.health[4 * m + 3] = static_cast<std::int64_t>(health_[m].repairs);
  }
  snap.iteration = static_cast<std::int64_t>(step_index_);
}

void MultiModeEngine::restore_state(const obs::DetectorStateSnapshot& snap) {
  const std::size_t n = state_.size();
  ROBOADS_CHECK_EQ(snap.state.size(), n, "snapshot state dimension mismatch");
  ROBOADS_CHECK_EQ(snap.state_cov.size(), n * n,
                   "snapshot covariance dimension mismatch");
  ROBOADS_CHECK_EQ(snap.weights.size(), modes().size(),
                   "snapshot mode-weight count mismatch");
  ROBOADS_CHECK_EQ(snap.health.size(), modes().size() * 4,
                   "snapshot mode-health count mismatch");
  for (std::size_t i = 0; i < n; ++i) state_[i] = snap.state[i];
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      state_cov_(i, j) = snap.state_cov[i * n + j];
    }
  }
  weights_.assign(snap.weights.begin(), snap.weights.end());
  for (std::size_t m = 0; m < health_.size(); ++m) {
    const std::int64_t state_code = snap.health[4 * m + 0];
    ROBOADS_CHECK(state_code >= 0 && state_code <= 2,
                  "snapshot mode-health state out of range");
    health_[m].state = static_cast<ModeHealthState>(state_code);
    health_[m].clean_streak =
        static_cast<std::size_t>(snap.health[4 * m + 1]);
    health_[m].quarantine_count =
        static_cast<std::size_t>(snap.health[4 * m + 2]);
    health_[m].repairs = static_cast<std::size_t>(snap.health[4 * m + 3]);
  }
  step_index_ = static_cast<std::size_t>(snap.iteration);
}

EngineResult MultiModeEngine::step(const Vector& u_prev, const Vector& z_full,
                                   SensorMask available) {
  EngineResult out;
  step_into(u_prev, z_full, available, out);
  return out;
}

void MultiModeEngine::step_into(const Vector& u_prev, const Vector& z_full,
                                SensorMask available,
                                EngineResult& out) {
  const EstimatorBank& bank = *bank_;
  const std::size_t m_count = bank.modes().size();
  const obs::ScopedTimer step_timer(h_step_);
  const std::size_t k = step_index_++;
  out.per_mode.resize(m_count);
  out.quarantined_modes = 0;
  out.fallback_previous_estimate = false;

  obs::TraceSink* trace = config_.instruments.trace;

  // Run every mode's NUISE from the shared previous estimate. Quarantined
  // modes are stepped too: estimators are stateless (the shared estimate is
  // threaded in each iteration), so a clean result here is exactly the
  // evidence the supervisor needs to reinstate the mode.
  for (std::size_t m = 0; m < m_count; ++m) {
    bank.estimator(m).step_into(state_, state_cov_, u_prev, z_full, available,
                                out.per_mode[m], stage_timers_);
  }

  // --- Health supervision. ---
  const bool supervise = config_.health.enabled;
  std::vector<bool>& quarantined = quarantined_scratch_;
  quarantined.assign(m_count, false);
  if (supervise) {
    for (std::size_t m = 0; m < m_count; ++m) {
      const ModeHealthState before = health_[m].state;
      const SupervisionOutcome outcome = supervise_result(
          out.per_mode[m], bank.modes()[m], bank.suite(), config_.health);
      if (outcome.fatal) {
        health_[m].on_fatal(config_.health);
      } else if (outcome.repaired) {
        health_[m].on_repaired(config_.health);
      } else {
        health_[m].on_clean(config_.health);
      }
      // A mode still serving its quarantine cooldown stays excluded even
      // when its current result is clean.
      quarantined[m] = health_[m].quarantined();

      const ModeHealthState after = health_[m].state;
      if (outcome.repaired && c_repairs_ != nullptr) c_repairs_->increment();
      if (after == ModeHealthState::kQuarantined &&
          before != ModeHealthState::kQuarantined &&
          c_quarantine_enter_ != nullptr) {
        c_quarantine_enter_->increment();
      }
      if (trace != nullptr && after != before) {
        trace->emit(obs::TraceEvent("health_transition", config_.obs_label, k)
                        .add("mode", static_cast<std::int64_t>(m))
                        .add("mode_label", bank.modes()[m].label)
                        .add("from", std::string(to_string(before)))
                        .add("to", std::string(to_string(after)))
                        .add("detail", outcome.detail));
      }
    }
  }
  std::size_t active_count = 0;
  for (std::size_t m = 0; m < m_count; ++m) {
    if (!quarantined[m]) ++active_count;
  }

  // Containment floor: every mode failed supervision at once (e.g. all
  // readings non-finite). Keep the last good shared estimate, reset the
  // weights, give every mode a fresh start next iteration — the engine
  // stays alive instead of throwing.
  if (active_count == 0) {
    weights_.assign(m_count, 1.0 / static_cast<double>(m_count));
    for (ModeHealth& h : health_) {
      h.state = ModeHealthState::kDegraded;
      h.clean_streak = 0;
    }
    out.mode_weights.assign(weights_.begin(), weights_.end());
    out.selected_mode = 0;
    out.fallback_previous_estimate = true;
    out.mode_health.assign(m_count, ModeHealthState::kDegraded);
    if (c_containment_floor_ != nullptr) c_containment_floor_->increment();
    if (g_quarantined_ != nullptr) g_quarantined_->set(0.0);
    if (trace != nullptr) {
      trace->emit(obs::TraceEvent("containment_floor", config_.obs_label, k)
                      .add("modes", static_cast<std::int64_t>(m_count)));
    }
    return;
  }

  // Neutral likelihood substitute for modes whose step carried no
  // information (prediction-only under a sensor outage): the mean
  // informative log-likelihood keeps their weight ratio to the rest of the
  // bank unchanged through normalization.
  double informative_sum = 0.0;
  std::size_t informative_count = 0;
  for (std::size_t m = 0; m < m_count; ++m) {
    if (quarantined[m] || !out.per_mode[m].likelihood_informative) continue;
    informative_sum += out.per_mode[m].log_likelihood;
    ++informative_count;
  }
  const double neutral_ll =
      informative_count > 0
          ? informative_sum / static_cast<double>(informative_count)
          : 0.0;

  // Log-weights log(μ_m,k−1 · N_m,k) in fixed mode order.
  std::vector<double>& log_w = log_w_scratch_;
  log_w.assign(m_count, -std::numeric_limits<double>::infinity());
  for (std::size_t m = 0; m < m_count; ++m) {
    if (quarantined[m]) continue;
    const double ll = out.per_mode[m].likelihood_informative
                          ? out.per_mode[m].log_likelihood
                          : neutral_ll;
    log_w[m] = std::log(weights_[m]) + ll;
  }

  // Normalize in the log domain, then apply the ε floor and renormalize so
  // no hypothesis is ever irrecoverably ruled out. Quarantined modes carry
  // weight 0 until the supervisor reinstates them (at which point the floor
  // lifts them back into the bank).
  double max_lw = -std::numeric_limits<double>::infinity();
  for (std::size_t m = 0; m < m_count; ++m) {
    if (!quarantined[m]) max_lw = std::max(max_lw, log_w[m]);
  }
  double sum = 0.0;
  for (std::size_t m = 0; m < m_count; ++m) {
    if (quarantined[m]) {
      log_w[m] = 0.0;
      continue;
    }
    log_w[m] = std::isfinite(max_lw) ? std::exp(log_w[m] - max_lw) : 1.0;
    sum += log_w[m];
  }
  ROBOADS_CHECK(sum > 0.0, "all mode likelihoods vanished");
  double floored_sum = 0.0;
  for (std::size_t m = 0; m < m_count; ++m) {
    if (!quarantined[m]) {
      log_w[m] = std::max(log_w[m] / sum, config_.likelihood_floor);
    }
    floored_sum += log_w[m];
  }
  for (std::size_t m = 0; m < m_count; ++m) {
    weights_[m] = log_w[m] / floored_sum;
  }

  out.mode_weights.assign(weights_.begin(), weights_.end());
  out.selected_mode = static_cast<std::size_t>(
      std::max_element(weights_.begin(), weights_.end()) - weights_.begin());

  // Adopt the winning hypothesis' estimate for the next iteration
  // (Algorithm 1, line 9).
  state_ = out.per_mode[out.selected_mode].state;
  state_cov_ = out.per_mode[out.selected_mode].state_cov;

  out.mode_health.resize(m_count);
  for (std::size_t m = 0; m < m_count; ++m) {
    out.mode_health[m] =
        supervise ? health_[m].state : ModeHealthState::kHealthy;
    if (quarantined[m]) ++out.quarantined_modes;
  }
  if (!c_mode_selected_.empty()) {
    c_mode_selected_[out.selected_mode]->increment();
  }
  if (g_quarantined_ != nullptr) {
    g_quarantined_->set(static_cast<double>(out.quarantined_modes));
  }
}

}  // namespace roboads::core

// Ablation: NUISE's unknown-input estimation vs a standard EKF.
//
// The paper's challenge 2 (§IV-B): "when actuator misbehaviors are not
// taken into account, state estimates and sensor anomaly vector estimates
// will be incorrect." A plain EKF trusts the planned commands; under an
// actuator misbehavior its state estimate inherits the full effect of the
// corruption, while NUISE estimates and compensates it. This bench drives
// the Khepera wheel-bomb scenario through both estimators and reports the
// state-estimation error each maintains, plus the false sensor anomalies a
// detector naively built on the EKF residuals would raise.
#include "bench/bench_util.h"
#include "core/ekf.h"
#include "core/nuise.h"
#include "dynamics/diff_drive.h"
#include "matrix/decomp.h"
#include "stats/chi_square.h"

namespace roboads::bench {
namespace {

int run(const obs::Instruments& instruments) {
  print_header("Ablation — NUISE unknown-input estimation vs standard EKF",
               "RoboADS (DSN'18) §IV-B challenge 2");

  eval::KheperaPlatform platform;
  eval::MissionConfig cfg;
  cfg.iterations = 250;
  cfg.seed = 777;
  cfg.instruments = instruments;
  cfg.obs_label = "nuise_vs_ekf/scenario1";
  // Scenario #1: wheel controller logic bomb (∓0.04 m/s) from 6 s.
  const eval::MissionResult mission = eval::run_mission(
      platform,
      scenario::compile_spec(scenario::khepera_table2_spec(1), platform), cfg);

  const sensors::SensorSuite& suite = platform.suite();
  // Both estimators fuse the same reference (IPS) and start identically.
  core::Mode mode{"ref:ips", {eval::KheperaPlatform::kIps},
                  {eval::KheperaPlatform::kWheelEncoder,
                   eval::KheperaPlatform::kLidar}};
  core::Nuise nuise(platform.model(), suite, mode, platform.process_cov());
  core::Ekf ekf(platform.model(), suite, platform.process_cov(),
                {eval::KheperaPlatform::kIps});

  Vector x_nuise = platform.initial_state();
  Vector x_ekf = platform.initial_state();
  Matrix p_nuise = Matrix::identity(3) * 1e-4;
  Matrix p_ekf = p_nuise;

  double nuise_err_pre = 0.0, nuise_err_post = 0.0;
  double ekf_err_pre = 0.0, ekf_err_post = 0.0;
  std::size_t n_pre = 0, n_post = 0;
  std::size_t ekf_false_sensor_flags = 0;
  const double thresh = stats::chi_square_threshold(0.005, 7);

  for (const eval::IterationRecord& rec : mission.records) {
    const core::NuiseResult rn =
        nuise.step(x_nuise, p_nuise, rec.u_planned, rec.z);
    x_nuise = rn.state;
    p_nuise = rn.state_cov;
    const core::EkfResult re = ekf.step(x_ekf, p_ekf, rec.u_planned, rec.z);
    x_ekf = re.state;
    p_ekf = re.state_cov;

    const double en =
        std::hypot(x_nuise[0] - rec.x_true[0], x_nuise[1] - rec.x_true[1]);
    const double ee =
        std::hypot(x_ekf[0] - rec.x_true[0], x_ekf[1] - rec.x_true[1]);
    if (rec.truth.actuator_corrupted) {
      nuise_err_post += en;
      ekf_err_post += ee;
      ++n_post;
      // Would an EKF-residual detector wrongly blame the clean sensors?
      const std::vector<std::size_t> testing = mode.testing;
      const Vector ds = suite.residual(testing, suite.slice(testing, rec.z),
                                       x_ekf);
      const Matrix c1 = suite.jacobian(testing, x_ekf);
      const Matrix cov = (c1 * p_ekf * c1.transpose() +
                          suite.noise_covariance(testing))
                             .symmetrized();
      if (quadratic_form(inverse_spd(cov), ds) > thresh)
        ++ekf_false_sensor_flags;
    } else {
      nuise_err_pre += en;
      ekf_err_pre += ee;
      ++n_pre;
    }
  }

  std::printf("%-34s %14s %14s\n", "", "NUISE", "standard EKF");
  std::printf("%-34s %12.1f mm %12.1f mm\n",
              "mean position error, pre-attack",
              1e3 * nuise_err_pre / n_pre, 1e3 * ekf_err_pre / n_pre);
  std::printf("%-34s %12.1f mm %12.1f mm\n",
              "mean position error, under attack",
              1e3 * nuise_err_post / n_post, 1e3 * ekf_err_post / n_post);
  std::printf("%-34s %14s %13.1f%%\n",
              "clean sensors falsely implicated", "0.0%",
              100.0 * static_cast<double>(ekf_false_sensor_flags) /
                  static_cast<double>(n_post));
  std::printf("\nshape check: EKF error under attack ≥ 3× NUISE: %s\n",
              ekf_err_post / n_post >= 3.0 * nuise_err_post / n_post
                  ? "yes"
                  : "NO");
  return 0;
}

}  // namespace
}  // namespace roboads::bench

int main(int argc, char** argv) {
  roboads::bench::BenchObservation watch(
      roboads::bench::parse_bench_args(argc, argv));
  const int rc = roboads::bench::run(watch.instruments());
  watch.finish();
  return rc;
}

// Reproduces paper Fig. 7: decision-parameter selection.
//
//   (a) ROC of sensor misbehavior detection, sweeping the confidence level
//       α ∈ [0.0005, 0.995] under c/w ∈ {1/1, 3/3, 6/6};
//   (b) the same for actuator misbehavior detection;
//   (c) sensor-detection F1 at α = 0.005 for window sizes w = 1..6 and
//       criteria c = 1..w;
//   (d) actuator-detection F1 at α = 0.05 for w = 1..7, c = 1..w.
//
// The estimation engine's outputs do not depend on the decision parameters,
// so each mission is run once and the decision maker is *replayed* over the
// recorded per-iteration NUISE results for every parameter combination.
#include "bench/bench_util.h"

namespace roboads::bench {
namespace {

struct RecordedMission {
  eval::MissionResult result;
};

// Replays a DecisionMaker with `config` over a recorded mission and rescores.
eval::ScenarioScore replay(const eval::KheperaPlatform& platform,
                           const RecordedMission& mission,
                           const core::DecisionConfig& config) {
  const auto modes = core::one_reference_per_sensor(platform.suite());
  core::DecisionMaker dm(platform.suite(), config);
  eval::MissionResult replayed = mission.result;
  for (eval::IterationRecord& rec : replayed.records) {
    rec.report.decision = dm.evaluate(modes[rec.report.selected_mode],
                                      rec.report.selected_result);
  }
  return eval::score_mission(replayed, platform);
}

int run(const obs::Instruments& instruments) {
  print_header("Figure 7 — decision parameter selection (α, w, c)",
               "RoboADS (DSN'18) Fig. 7a-7d");

  eval::KheperaPlatform platform;

  // Record the battery once: the 11 Table II scenarios plus clean missions
  // (clean runs anchor the false-positive axis).
  std::vector<RecordedMission> missions;
  for (std::size_t n = 1; n <= 11; ++n) {
    eval::MissionConfig cfg;
    cfg.iterations = 250;
    cfg.seed = 7000 + n;
    cfg.instruments = instruments;
    cfg.obs_label = "fig7/scenario" + std::to_string(n);
    missions.push_back({eval::run_mission(
        platform,
        scenario::compile_spec(scenario::khepera_table2_spec(n), platform),
        cfg)});
  }
  for (std::uint64_t seed : {31u, 32u, 33u}) {
    eval::MissionConfig cfg;
    cfg.iterations = 250;
    cfg.seed = seed;
    cfg.instruments = instruments;
    cfg.obs_label = "fig7/clean_s" + std::to_string(seed);
    missions.push_back(
        {eval::run_mission(platform, platform.clean_scenario(), cfg)});
  }

  const std::vector<double> alphas = {0.0005, 0.001, 0.005, 0.01, 0.05,
                                      0.1,    0.2,   0.4,   0.6,  0.8,
                                      0.9,    0.95,  0.995};
  const std::vector<std::pair<std::size_t, std::size_t>> cw = {
      {1, 1}, {3, 3}, {6, 6}};  // (c, w)

  // ---- Fig. 7a / 7b: ROC curves. ----
  std::printf("\n[fig7a/7b] ROC sweep (CSV)\n");
  std::printf("curve,c,w,alpha,sensor_fpr,sensor_tpr,actuator_fpr,"
              "actuator_tpr\n");
  std::vector<stats::RocPoint> sensor_roc_11, actuator_roc_11;
  for (const auto& [c, w] : cw) {
    for (double alpha : alphas) {
      core::DecisionConfig cfg;
      cfg.sensor_alpha = alpha;
      cfg.actuator_alpha = alpha;
      cfg.sensor_window = {w, c};
      cfg.actuator_window = {w, c};
      stats::ConfusionCounts sensor, actuator;
      for (const RecordedMission& m : missions) {
        const eval::ScenarioScore s = replay(platform, m, cfg);
        sensor += s.sensor;
        actuator += s.actuator;
      }
      std::printf("c%zuw%zu,%zu,%zu,%.4f,%.4f,%.4f,%.4f,%.4f\n", c, w, c, w,
                  alpha, sensor.false_positive_rate(),
                  sensor.true_positive_rate(),
                  actuator.false_positive_rate(),
                  actuator.true_positive_rate());
      if (c == 1 && w == 1) {
        sensor_roc_11.push_back({alpha, sensor.false_positive_rate(),
                                 sensor.true_positive_rate()});
        actuator_roc_11.push_back({alpha, actuator.false_positive_rate(),
                                   actuator.true_positive_rate()});
      }
    }
  }
  std::printf("ROC AUC (c/w=1/1): sensor %.3f, actuator %.3f "
              "(paper: near-perfect corner at small FPR)\n",
              stats::roc_auc(sensor_roc_11), stats::roc_auc(actuator_roc_11));

  // ---- Fig. 7c: sensor F1 at α = 0.005 over (w, c). ----
  std::printf("\n[fig7c] sensor F1, alpha=0.005 (CSV)\n");
  std::printf("w,c,f1\n");
  double best_sensor_f1 = 0.0;
  std::size_t best_sc = 0, best_sw = 0;
  for (std::size_t w = 1; w <= 6; ++w) {
    for (std::size_t c = 1; c <= w; ++c) {
      core::DecisionConfig cfg;  // defaults carry the paper's alphas
      cfg.sensor_window = {w, c};
      stats::ConfusionCounts sensor;
      for (const RecordedMission& m : missions) {
        sensor += replay(platform, m, cfg).sensor;
      }
      std::printf("%zu,%zu,%.4f\n", w, c, sensor.f1());
      if (sensor.f1() > best_sensor_f1) {
        best_sensor_f1 = sensor.f1();
        best_sc = c;
        best_sw = w;
      }
    }
  }
  std::printf("best sensor F1 %.4f at c/w=%zu/%zu (paper selects 2/2)\n",
              best_sensor_f1, best_sc, best_sw);

  // ---- Fig. 7d: actuator F1 at α = 0.05 over (w, c). ----
  std::printf("\n[fig7d] actuator F1, alpha=0.05 (CSV)\n");
  std::printf("w,c,f1\n");
  double best_act_f1 = 0.0;
  std::size_t best_ac = 0, best_aw = 0;
  for (std::size_t w = 1; w <= 7; ++w) {
    for (std::size_t c = 1; c <= w; ++c) {
      core::DecisionConfig cfg;
      cfg.actuator_window = {w, c};
      stats::ConfusionCounts actuator;
      for (const RecordedMission& m : missions) {
        actuator += replay(platform, m, cfg).actuator;
      }
      std::printf("%zu,%zu,%.4f\n", w, c, actuator.f1());
      if (actuator.f1() > best_act_f1) {
        best_act_f1 = actuator.f1();
        best_ac = c;
        best_aw = w;
      }
    }
  }
  std::printf("best actuator F1 %.4f at c/w=%zu/%zu (paper selects 3/6)\n",
              best_act_f1, best_ac, best_aw);
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

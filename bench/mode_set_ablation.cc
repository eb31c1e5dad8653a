// Ablation: mode-set selection (paper §VI).
//
// "The choice of M is a trade-off between computational complexity and
// detection accuracy ... with p sensing workflows the number of possible
// sensor conditions grows exponentially (M_complete = 2^p − 1). In our
// approach we only choose the modes where one particular reference sensor
// is clean." This bench runs the Khepera battery under both mode sets and
// reports detection quality and measured per-iteration cost side by side,
// plus §V-E's observation that multi-reference modes sharpen the anomaly
// estimates (the complete set contains the fused all-clean mode).
#include <chrono>

#include "bench/bench_util.h"

namespace roboads::bench {
namespace {

struct ModeSetResult {
  stats::ConfusionCounts sensor;
  stats::ConfusionCounts actuator;
  double mean_delay = 0.0;
  double us_per_iteration = 0.0;
};

class ModedKhepera final : public eval::KheperaPlatform {
 public:
  explicit ModedKhepera(bool complete) : complete_(complete) {}
  std::vector<core::Mode> detector_modes() const override {
    return complete_ ? core::complete_mode_set(suite())
                     : core::one_reference_per_sensor(suite());
  }

 private:
  bool complete_;
};

ModeSetResult evaluate(const eval::KheperaPlatform& platform,
                       const obs::Instruments& instruments,
                       const std::string& set_label) {
  ModeSetResult out;
  std::vector<double> delays;
  std::size_t total_iterations = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t n = 1; n <= 11; ++n) {
    eval::MissionConfig cfg;
    cfg.iterations = 250;
    cfg.seed = 8200 + n;
    cfg.instruments = instruments;
    cfg.obs_label = set_label + "/scenario" + std::to_string(n);
    const eval::MissionResult mission = eval::run_mission(
        platform,
        scenario::compile_spec(scenario::khepera_table2_spec(n), platform),
        cfg);
    const eval::ScenarioScore score = eval::score_mission(mission, platform);
    out.sensor += score.sensor;
    out.actuator += score.actuator;
    for (const eval::DelayRecord& d : score.delays) {
      if (d.seconds) delays.push_back(*d.seconds);
    }
    total_iterations += mission.records.size();
  }
  const auto stop = std::chrono::steady_clock::now();
  out.mean_delay = stats::mean(delays);
  out.us_per_iteration =
      std::chrono::duration<double, std::micro>(stop - start).count() /
      static_cast<double>(total_iterations);
  return out;
}

int run(const obs::Instruments& instruments) {
  print_header("Ablation — mode set selection (M = p vs M = 2^p − 1)",
               "RoboADS (DSN'18) §VI 'Mode set selection'");

  const ModedKhepera one_ref(false);
  const ModedKhepera complete(true);
  const ModeSetResult r_one = evaluate(one_ref, instruments, "one_ref");
  const ModeSetResult r_all = evaluate(complete, instruments, "complete");

  std::printf("%-30s %18s %18s\n", "", "one-ref (M=3)", "complete (M=7)");
  auto row = [](const char* label, double a, double b, const char* unit) {
    std::printf("%-30s %16.2f%s %16.2f%s\n", label, a, unit, b, unit);
  };
  row("sensor FPR", 100.0 * r_one.sensor.false_positive_rate(),
      100.0 * r_all.sensor.false_positive_rate(), "%");
  row("sensor FNR", 100.0 * r_one.sensor.false_negative_rate(),
      100.0 * r_all.sensor.false_negative_rate(), "%");
  row("actuator FPR", 100.0 * r_one.actuator.false_positive_rate(),
      100.0 * r_all.actuator.false_positive_rate(), "%");
  row("actuator FNR", 100.0 * r_one.actuator.false_negative_rate(),
      100.0 * r_all.actuator.false_negative_rate(), "%");
  row("mean detection delay", r_one.mean_delay, r_all.mean_delay, "s");
  row("mission cost per iteration", r_one.us_per_iteration,
      r_all.us_per_iteration, "us");

  // Detector-only cost: replay recorded (u, z) pairs through each detector
  // (the mission figures above are diluted by simulation/planning work).
  eval::MissionConfig cfg;
  cfg.iterations = 250;
  cfg.seed = 99;
  cfg.instruments = instruments;
  cfg.obs_label = "ablation/replay_source";
  const eval::MissionResult trace =
      eval::run_mission(one_ref, one_ref.clean_scenario(), cfg);
  auto detector_cost = [&](const eval::KheperaPlatform& platform) {
    core::RoboAds detector(platform.model(), platform.suite(),
                           platform.process_cov(), platform.initial_state(),
                           Matrix::identity(3) * 1e-4,
                           platform.detector_config(),
                           platform.detector_modes());
    const auto start = std::chrono::steady_clock::now();
    std::size_t steps = 0;
    for (int pass = 0; pass < 10; ++pass) {
      detector.reset(platform.initial_state(), Matrix::identity(3) * 1e-4);
      for (const eval::IterationRecord& rec : trace.records) {
        detector.step(rec.u_planned, rec.z);
        ++steps;
      }
    }
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(stop - start).count() /
           static_cast<double>(steps);
  };
  const double us_one = detector_cost(one_ref);
  const double us_all = detector_cost(complete);
  row("detector-only cost per iteration", us_one, us_all, "us");

  std::printf("\nshape check: complete set costs ~M_complete/M_one = 7/3 "
              "more detector work per iteration: %s (ratio %.2f)\n",
              us_all > 1.6 * us_one ? "yes" : "NO", us_all / us_one);
  std::printf("(the paper chose M = p 'for the favor of computational "
              "complexity' with 'already favorable estimation results')\n");
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

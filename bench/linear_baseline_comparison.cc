// Reproduces paper §V-G: benchmark against a linear-system approach ([20]
// style) that linearizes the robot model once at mission start instead of
// at every control iteration.
//
// Paper result: the one-time linearization accumulates estimation error as
// the robot's operating point leaves the linearization point, producing an
// average false positive rate of 61.68% (with no false negatives) on the
// Khepera battery, versus <3% for RoboADS. Reproduction target: baseline
// FPR at least an order of magnitude above RoboADS FPR.
#include "bench/bench_util.h"

namespace roboads::bench {
namespace {

int run(const obs::Instruments& instruments) {
  print_header("§V-G — per-iteration relinearization vs one-time "
               "linearization",
               "RoboADS (DSN'18) §V-G");

  eval::KheperaPlatform platform;

  std::printf("%-42s %-24s %-24s\n", "scenario",
              "RoboADS  S-FPR / S-FNR", "linear[20] S-FPR / S-FNR");
  std::printf("%s\n", std::string(92, '-').c_str());

  stats::ConfusionCounts ours_total, baseline_total;
  std::size_t baseline_fn = 0;
  for (std::size_t n = 0; n <= 11; ++n) {  // 0 = clean mission
    const auto make_scenario = [&] {
      return n == 0 ? platform.clean_scenario()
                    : scenario::compile_spec(
                          scenario::khepera_table2_spec(n), platform);
    };

    eval::MissionConfig ours_cfg;
    ours_cfg.iterations = 250;
    ours_cfg.seed = 5000 + n;
    ours_cfg.instruments = instruments;
    ours_cfg.obs_label = "nonlinear/" + std::to_string(n);
    const eval::MissionResult ours_run =
        eval::run_mission(platform, make_scenario(), ours_cfg);
    const eval::ScenarioScore ours = eval::score_mission(ours_run, platform);

    eval::MissionConfig base_cfg = ours_cfg;
    base_cfg.linear_baseline = true;
    base_cfg.obs_label = "linearized/" + std::to_string(n);
    const eval::MissionResult base_run =
        eval::run_mission(platform, make_scenario(), base_cfg);
    const eval::ScenarioScore base = eval::score_mission(base_run, platform);

    std::printf("%-42s %10s / %-10s %10s / %-10s\n",
                make_scenario().name().substr(0, 41).c_str(),
                fmt_rate(ours.sensor.false_positive_rate()).c_str(),
                fmt_rate(ours.sensor.false_negative_rate()).c_str(),
                fmt_rate(base.sensor.false_positive_rate()).c_str(),
                fmt_rate(base.sensor.false_negative_rate()).c_str());

    ours_total += ours.sensor;
    ours_total += ours.actuator;
    baseline_total += base.sensor;
    baseline_total += base.actuator;
    baseline_fn += base.sensor.false_negatives;
  }

  std::printf("%s\n", std::string(92, '-').c_str());
  const double ours_fpr = ours_total.false_positive_rate();
  const double base_fpr = baseline_total.false_positive_rate();
  std::printf(
      "aggregate FPR: RoboADS %s vs linear baseline %s "
      "(paper: ~0.86%% vs 61.68%%)\n",
      fmt_rate(ours_fpr).c_str(), fmt_rate(base_fpr).c_str());
  std::printf("shape check: baseline FPR ≥ 10× RoboADS FPR: %s\n",
              base_fpr >= 10.0 * std::max(ours_fpr, 1e-4) ? "yes" : "NO");
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

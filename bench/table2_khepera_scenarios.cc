// Reproduces paper Table II: the eleven Khepera attack/failure scenarios —
// detection result (identified condition sequence), detection delay, and
// per-scenario FPR/FNR — plus the §V-C aggregate statistics (average
// FPR/FNR, average sensor/actuator delays, anomaly quantification error).
// Table III's mode definitions head the output for reference.
#include "bench/bench_util.h"
#include "dynamics/diff_drive.h"

namespace roboads::bench {
namespace {

void print_table3() {
  print_header("Table III — sensor and actuator mode definitions",
               "RoboADS (DSN'18) Table III");
  std::printf(
      "  S0: no sensor misbehavior          S4: wheel encoder + LiDAR\n"
      "  S1: IPS                            S5: IPS + LiDAR\n"
      "  S2: wheel encoder                  S6: IPS + wheel encoder\n"
      "  S3: LiDAR\n"
      "  A0: no actuator misbehavior        A1: actuator misbehavior\n");
}

int run(obs::Instruments instruments) {
  print_table3();
  print_header(
      "Table II — Khepera attack/failure scenarios and detection results",
      "RoboADS (DSN'18) Table II and §V-C");

  // Thirteen missions, flown one after another: the eleven Table II
  // scenarios, then the two §V-C anomaly-quantification runs.
  const auto table2 = [](std::size_t n, std::uint64_t seed) {
    scenario::ScenarioSpec spec = scenario::khepera_table2_spec(n);
    spec.seed = seed;
    return spec;
  };

  std::printf("%-42s %-22s %-12s %-10s %-22s %-22s\n", "scenario",
              "detection result", "delay", "goal", "A: FPR/FNR",
              "S: FPR/FNR");
  std::printf("%s\n", std::string(132, '-').c_str());

  BatteryTally tally;
  for (std::size_t n = 1; n <= 11; ++n) {
    const scenario::ScenarioSpec spec = table2(n, 1000 + n);
    const eval::ContainedRun run = scenario::fly_spec(spec, instruments);
    const std::optional<BatteryTally::Row> row = tally.add(spec.name, run);
    if (!row) continue;
    std::printf("%-42s %-22s %-12s %-10s %-22s %-22s\n",
                spec.name.substr(0, 41).c_str(), row->detection.c_str(),
                row->delays.c_str(), run.result.goal_reached ? "reached" : "-",
                row->actuator_rates.c_str(), row->sensor_rates.c_str());
  }

  // §V-C aggregate numbers (paper: avg FPR 0.86%, FNR 0.97%; delays 0.35 s
  // sensor / 0.61 s actuator).
  std::printf("%s\n", std::string(132, '-').c_str());
  std::printf("aggregate: FPR %s  FNR %s   (paper: 0.86%% / 0.97%%)\n",
              fmt_rate(tally.combined.false_positive_rate()).c_str(),
              fmt_rate(tally.combined.false_negative_rate()).c_str());
  std::printf(
      "average sensor delay %.2fs (paper 0.35s), actuator delay %.2fs "
      "(paper 0.61s), all misbehaviors detected: %s\n",
      stats::mean(tally.sensor_delays),
      stats::mean(tally.actuator_delays),
      tally.all_detected ? "yes" : "NO");

  // Anomaly quantification on scenario #3 (§V-C: IPS bomb +0.07 m estimated
  // as +0.069 m, ~2% normalized error) and scenario #1 (wheel bomb).
  // A failed run prints like a failed table row and makes the bench exit 1.
  const auto quantify = [&](std::size_t n, std::uint64_t seed) {
    const scenario::ScenarioSpec spec = table2(n, seed);
    eval::ContainedRun run = scenario::fly_spec(spec, instruments);
    if (run.failed()) {
      std::printf("anomaly quantification: %s: FAILED at step %zu: %s\n",
                  spec.name.c_str(), run.failure->step,
                  run.failure->what.c_str());
    }
    return run;
  };
  const eval::ContainedRun run3 = quantify(3, 42);
  const eval::ContainedRun run1 = quantify(1, 43);
  if (run3.failed() || run1.failed()) return 1;
  const double err_s = eval::sensor_quantification_error(
      run3.result, eval::KheperaPlatform::kIps, Vector{0.07, 0.0, 0.0}, 90);
  const double bomb = dyn::khepera_units_to_mps(6000.0);
  const double err_a = eval::actuator_quantification_error(
      run1.result, Vector{-bomb, bomb}, 90);
  std::printf(
      "anomaly quantification: sensor %.2f%% (paper 1.91%%), actuator "
      "%.2f%% (paper 0.41-1.79%%)\n",
      100.0 * err_s, 100.0 * err_a);
  return tally.exit_code();
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

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

  eval::KheperaPlatform platform;

  // Thirteen missions, flown one after another: the eleven Table II
  // scenarios, then the two §V-C anomaly-quantification runs.
  const auto table2 = [&platform](std::size_t n) {
    return scenario::compile_spec(scenario::khepera_table2_spec(n), platform);
  };
  const auto fly = [&](const attacks::Scenario& scenario, std::uint64_t seed) {
    return eval::run_contained(platform, scenario,
                               bench_mission(scenario, seed, 250, instruments));
  };

  std::printf("%-42s %-22s %-12s %-10s %-22s %-22s\n", "scenario",
              "detection result", "delay", "goal", "A: FPR/FNR",
              "S: FPR/FNR");
  std::printf("%s\n", std::string(132, '-').c_str());

  std::vector<double> sensor_delays, actuator_delays;
  stats::ConfusionCounts sensor_total, actuator_total;
  bool all_detected = true;

  for (std::size_t n = 1; n <= 11; ++n) {
    const attacks::Scenario scenario = table2(n);
    const eval::ContainedRun run = fly(scenario, 1000 + n);
    const eval::ScenarioScore& s = run.score;

    std::string delays;
    for (const eval::DelayRecord& d : s.delays) {
      if (!delays.empty()) delays += " ";
      delays += fmt_delay(d.seconds);
      if (d.seconds) {
        if (d.label == "actuator") {
          actuator_delays.push_back(*d.seconds);
        } else {
          sensor_delays.push_back(*d.seconds);
        }
      } else {
        all_detected = false;
      }
    }

    const std::string detection = s.actuator_condition_sequence == "A0"
                                      ? s.sensor_condition_sequence
                                      : (s.sensor_condition_sequence == "S0"
                                             ? s.actuator_condition_sequence
                                             : s.actuator_condition_sequence +
                                                   " " +
                                                   s.sensor_condition_sequence);

    std::printf("%-42s %-22s %-12s %-10s %-22s %-22s\n",
                scenario.name().substr(0, 41).c_str(), detection.c_str(),
                delays.c_str(), run.result.goal_reached ? "reached" : "-",
                (fmt_rate(s.actuator.false_positive_rate()) + "/" +
                 fmt_rate(s.actuator.false_negative_rate()))
                    .c_str(),
                (fmt_rate(s.sensor.false_positive_rate()) + "/" +
                 fmt_rate(s.sensor.false_negative_rate()))
                    .c_str());

    sensor_total += s.sensor;
    actuator_total += s.actuator;
  }

  // §V-C aggregate numbers (paper: avg FPR 0.86%, FNR 0.97%; delays 0.35 s
  // sensor / 0.61 s actuator).
  stats::ConfusionCounts combined = sensor_total;
  combined += actuator_total;
  std::printf("%s\n", std::string(132, '-').c_str());
  std::printf("aggregate: FPR %s  FNR %s   (paper: 0.86%% / 0.97%%)\n",
              fmt_rate(combined.false_positive_rate()).c_str(),
              fmt_rate(combined.false_negative_rate()).c_str());
  std::printf(
      "average sensor delay %.2fs (paper 0.35s), actuator delay %.2fs "
      "(paper 0.61s), all misbehaviors detected: %s\n",
      stats::mean(sensor_delays), stats::mean(actuator_delays),
      all_detected ? "yes" : "NO");

  // Anomaly quantification on scenario #3 (§V-C: IPS bomb +0.07 m estimated
  // as +0.069 m, ~2% normalized error) and scenario #1 (wheel bomb).
  {
    const eval::ContainedRun run3 = fly(table2(3), 42);
    const double err_s = eval::sensor_quantification_error(
        run3.result, eval::KheperaPlatform::kIps, Vector{0.07, 0.0, 0.0}, 90);
    const eval::ContainedRun run1 = fly(table2(1), 43);
    const double bomb = dyn::khepera_units_to_mps(6000.0);
    const double err_a = eval::actuator_quantification_error(
        run1.result, Vector{-bomb, bomb}, 90);
    std::printf(
        "anomaly quantification: sensor %.2f%% (paper 1.91%%), actuator "
        "%.2f%% (paper 0.41-1.79%%)\n",
        100.0 * err_s, 100.0 * err_a);
  }
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

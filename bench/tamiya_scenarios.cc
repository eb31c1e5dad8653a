// Reproduces paper §V-D: RoboADS on the Tamiya RC car — a robot with a
// distinctive dynamic model (kinematic bicycle, throttle+steering actuation,
// IPS/LiDAR/IMU sensors). The paper reports an average FPR/FNR of
// 2.77% / 0.83% and an average detection delay of 0.33 s over "similar
// attacks and failures"; the reproduction target is the shape: every
// misbehavior detected, small rates, sub-second-scale delays.
#include "bench/bench_util.h"
#include "eval/tamiya.h"

namespace roboads::bench {
namespace {

int run(const obs::Instruments& instruments) {
  print_header("§V-D — Tamiya RC car scenario battery",
               "RoboADS (DSN'18) §V-D");

  eval::TamiyaPlatform platform;
  const std::vector<scenario::ScenarioSpec> battery =
      scenario::tamiya_battery_specs();

  std::printf("%-36s %-22s %-12s %-22s %-22s\n", "scenario",
              "detection result", "delay", "A: FPR/FNR", "S: FPR/FNR");
  std::printf("%s\n", std::string(116, '-').c_str());

  std::vector<double> delays;
  stats::ConfusionCounts sensor_total, actuator_total;
  bool all_detected = true;

  for (std::size_t i = 0; i < battery.size(); ++i) {
    // Scenarios hold stateful injectors: rebuild per run.
    const attacks::Scenario scenario =
        scenario::compile_spec(battery[i], platform);
    const ScenarioRun run = run_and_score(platform, scenario, 9000 + i, 250, instruments);
    const eval::ScenarioScore& s = run.score;

    std::string delay_str;
    for (const eval::DelayRecord& d : s.delays) {
      if (!delay_str.empty()) delay_str += " ";
      delay_str += fmt_delay(d.seconds);
      if (d.seconds) {
        delays.push_back(*d.seconds);
      } else {
        all_detected = false;
      }
    }
    const std::string detection =
        s.actuator_condition_sequence == "A0"
            ? s.sensor_condition_sequence
            : (s.sensor_condition_sequence == "S0"
                   ? s.actuator_condition_sequence
                   : s.actuator_condition_sequence + " " +
                         s.sensor_condition_sequence);

    std::printf("%-36s %-22s %-12s %-22s %-22s\n",
                run.name.substr(0, 35).c_str(), detection.c_str(),
                delay_str.c_str(),
                (fmt_rate(s.actuator.false_positive_rate()) + "/" +
                 fmt_rate(s.actuator.false_negative_rate()))
                    .c_str(),
                (fmt_rate(s.sensor.false_positive_rate()) + "/" +
                 fmt_rate(s.sensor.false_negative_rate()))
                    .c_str());
    sensor_total += s.sensor;
    actuator_total += s.actuator;
  }

  stats::ConfusionCounts combined = sensor_total;
  combined += actuator_total;
  std::printf("%s\n", std::string(116, '-').c_str());
  std::printf(
      "aggregate: FPR %s  FNR %s  avg delay %.2fs  all detected: %s\n"
      "(paper §V-D: FPR 2.77%%, FNR 0.83%%, avg delay 0.33s)\n",
      fmt_rate(combined.false_positive_rate()).c_str(),
      fmt_rate(combined.false_negative_rate()).c_str(), stats::mean(delays),
      all_detected ? "yes" : "NO");
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

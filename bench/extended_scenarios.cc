// Extension battery: misbehavior shapes from the paper's taxonomy (Table I,
// §II-B) that its evaluation did not exercise — replay/stuck-at, gain
// miscalibration, slow sensor drift, a coordinated simultaneous two-workflow
// attack, and a runaway actuator failure. RoboADS's model-based residuals
// cover all of them with the same configuration as Table II.
#include "bench/bench_util.h"

namespace roboads::bench {
namespace {

int run(const obs::Instruments& instruments) {
  print_header("Extension — attack shapes beyond the Table II battery",
               "RoboADS (DSN'18) Table I taxonomy / §II-B threat model");

  eval::KheperaPlatform platform;
  const std::vector<scenario::ScenarioSpec> battery =
      scenario::khepera_extended_specs();

  std::printf("%-38s %-26s %-12s %-22s %-22s\n", "scenario",
              "detection result", "delay", "A: FPR/FNR", "S: FPR/FNR");
  std::printf("%s\n", std::string(124, '-').c_str());

  stats::ConfusionCounts sensor_total, actuator_total;
  bool all_detected = true;
  std::vector<double> delays;
  for (std::size_t i = 0; i < battery.size(); ++i) {
    const attacks::Scenario scenario =
        scenario::compile_spec(battery[i], platform);
    const ScenarioRun run = run_and_score(platform, scenario, 7100 + i, 250, instruments);
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
    std::printf("%-38s %-26s %-12s %-22s %-22s\n",
                run.name.substr(0, 37).c_str(),
                detection.substr(0, 25).c_str(), delay_str.c_str(),
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
  std::printf("%s\n", std::string(124, '-').c_str());
  std::printf("aggregate: FPR %s  FNR %s  mean delay %.2fs  all detected: "
              "%s\n",
              fmt_rate(combined.false_positive_rate()).c_str(),
              fmt_rate(combined.false_negative_rate()).c_str(),
              stats::mean(delays), all_detected ? "yes" : "NO");
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

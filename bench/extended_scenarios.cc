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

  std::vector<scenario::ScenarioSpec> battery =
      scenario::khepera_extended_specs();

  std::printf("%-38s %-26s %-12s %-22s %-22s\n", "scenario",
              "detection result", "delay", "A: FPR/FNR", "S: FPR/FNR");
  std::printf("%s\n", std::string(124, '-').c_str());

  BatteryTally tally;
  for (std::size_t i = 0; i < battery.size(); ++i) {
    battery[i].seed = 7100 + i;
    const std::optional<BatteryTally::Row> row = tally.add(
        battery[i].name, scenario::fly_spec(battery[i], instruments));
    if (!row) continue;
    std::printf("%-38s %-26s %-12s %-22s %-22s\n",
                battery[i].name.substr(0, 37).c_str(),
                row->detection.substr(0, 25).c_str(), row->delays.c_str(),
                row->actuator_rates.c_str(), row->sensor_rates.c_str());
  }

  std::printf("%s\n", std::string(124, '-').c_str());
  std::printf("aggregate: FPR %s  FNR %s  mean delay %.2fs  all detected: "
              "%s\n",
              fmt_rate(tally.combined.false_positive_rate()).c_str(),
              fmt_rate(tally.combined.false_negative_rate()).c_str(),
              stats::mean(tally.delays),
              tally.all_detected ? "yes" : "NO");
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

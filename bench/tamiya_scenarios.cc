// Reproduces paper §V-D: RoboADS on the Tamiya RC car — a robot with a
// distinctive dynamic model (kinematic bicycle, throttle+steering actuation,
// IPS/LiDAR/IMU sensors). The paper reports an average FPR/FNR of
// 2.77% / 0.83% and an average detection delay of 0.33 s over "similar
// attacks and failures"; the reproduction target is the shape: every
// misbehavior detected, small rates, sub-second-scale delays.
#include "bench/bench_util.h"

namespace roboads::bench {
namespace {

int run(const obs::Instruments& instruments) {
  print_header("§V-D — Tamiya RC car scenario battery",
               "RoboADS (DSN'18) §V-D");

  std::vector<scenario::ScenarioSpec> battery =
      scenario::tamiya_battery_specs();

  std::printf("%-36s %-22s %-12s %-22s %-22s\n", "scenario",
              "detection result", "delay", "A: FPR/FNR", "S: FPR/FNR");
  std::printf("%s\n", std::string(116, '-').c_str());

  BatteryTally tally;
  for (std::size_t i = 0; i < battery.size(); ++i) {
    battery[i].seed = 9000 + i;
    const std::optional<BatteryTally::Row> row = tally.add(
        battery[i].name, scenario::fly_spec(battery[i], instruments));
    if (!row) continue;
    std::printf("%-36s %-22s %-12s %-22s %-22s\n",
                battery[i].name.substr(0, 35).c_str(), row->detection.c_str(),
                row->delays.c_str(), row->actuator_rates.c_str(),
                row->sensor_rates.c_str());
  }

  std::printf("%s\n", std::string(116, '-').c_str());
  std::printf(
      "aggregate: FPR %s  FNR %s  avg delay %.2fs  all detected: %s\n"
      "(paper §V-D: FPR 2.77%%, FNR 0.83%%, avg delay 0.33s)\n",
      fmt_rate(tally.combined.false_positive_rate()).c_str(),
      fmt_rate(tally.combined.false_negative_rate()).c_str(),
      stats::mean(tally.delays), tally.all_detected ? "yes" : "NO");
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

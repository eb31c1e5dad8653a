// Robustness sweep for the fault-tolerant runtime (docs/ROBUSTNESS.md):
// benign transport faults — dropped and delayed frames on one testing
// sensor — are injected at increasing rates into a slice of the Table II
// scenario battery, and the detector's precision / recall / time-to-alarm
// are tabulated against the fault-free baseline. A second section
// demonstrates failure containment: a sweep with a deliberately broken
// mission finishes the healthy missions and reports the failure as a
// structured (name, seed, step) record instead of crashing the sweep.
#include "bench/bench_util.h"

namespace roboads::bench {
namespace {

// The sweep's mission slice: three attacked Table II scenarios covering a
// sensor logic bomb, an actuator logic bomb, and a multi-phase attack, plus
// one clean mission so false positives under outages are measured too.
constexpr std::size_t kAttackScenarios[] = {1, 3, 8};
constexpr std::size_t kIterations = 250;

struct SweepRow {
  std::string fault;      // "drop" / "stale"
  double rate = 0.0;
  std::size_t frames_hit = 0;
  stats::ConfusionCounts combined;
  std::vector<double> alarm_delays;
  bool all_detected = true;
  std::size_t failures = 0;
};

SweepRow run_sweep_point(const eval::KheperaPlatform& platform,
                         obs::Instruments instruments,
                         const std::string& fault, double rate) {
  // The faulted sensor is the IPS — a testing sensor in most Table III
  // modes, so outages directly exercise degraded-mode attribution.
  sim::SensorFaultSpec spec{"ips"};
  if (fault == "drop") spec.drop_rate = rate;
  if (fault == "stale") spec.stale_rate = rate;

  std::vector<std::pair<attacks::Scenario, std::uint64_t>> missions;
  for (std::size_t n : kAttackScenarios) {
    missions.emplace_back(
        scenario::compile_spec(scenario::khepera_table2_spec(n), platform),
        3000 + n);
  }
  missions.emplace_back(platform.clean_scenario(), 3999);

  SweepRow row;
  row.fault = fault;
  row.rate = rate;
  for (const auto& [scenario, seed] : missions) {
    eval::MissionConfig config =
        bench_mission(scenario, seed, kIterations, instruments);
    config.transport_faults = sim::TransportFaultConfig::single(spec);
    const eval::ContainedRun run =
        eval::run_contained(platform, scenario, config);
    if (run.failed()) {
      ++row.failures;
      continue;
    }
    row.frames_hit +=
        run.result.frames_dropped + run.result.frames_stale +
        run.result.frames_duplicated + run.result.frames_frozen;
    row.combined += run.score.sensor;
    row.combined += run.score.actuator;
    for (const eval::DelayRecord& d : run.score.delays) {
      if (d.seconds) {
        row.alarm_delays.push_back(*d.seconds);
      } else {
        row.all_detected = false;
      }
    }
  }
  return row;
}

void print_sweep(const eval::KheperaPlatform& platform,
                 obs::Instruments instruments) {
  print_header(
      "Detection quality under benign transport faults (Khepera, IPS)",
      "RoboADS (DSN'18) Table II scenarios under the docs/ROBUSTNESS.md "
      "fault model");
  std::printf(
      "missions per row: Table II scenarios #1, #3, #8 + clean, %zu "
      "iterations each\n\n",
      kIterations);
  std::printf("%-8s %-8s %-12s %-11s %-11s %-14s %-10s %s\n", "fault",
              "rate", "frames hit", "precision", "recall", "time-to-alarm",
              "FPR", "all detected");
  std::printf("%s\n", std::string(92, '-').c_str());

  const double rates[] = {0.0, 0.02, 0.05, 0.10, 0.20};
  for (const char* fault : {"drop", "stale"}) {
    for (double rate : rates) {
      if (rate == 0.0 && std::string(fault) != "drop") continue;  // one baseline
      const SweepRow row = run_sweep_point(platform, instruments, fault, rate);
      std::optional<double> delay;
      if (!row.alarm_delays.empty()) delay = stats::mean(row.alarm_delays);
      std::printf("%-8s %-8s %-12zu %-11s %-11s %-14s %-10s %s\n",
                  rate == 0.0 ? "none" : row.fault.c_str(),
                  fmt_rate(row.rate).c_str(), row.frames_hit,
                  fmt_rate(row.combined.precision()).c_str(),
                  fmt_rate(row.combined.true_positive_rate()).c_str(),
                  fmt_delay(delay).c_str(),
                  fmt_rate(row.combined.false_positive_rate()).c_str(),
                  row.all_detected ? "yes" : "NO");
    }
  }
}

void print_containment(const eval::KheperaPlatform& platform,
                       obs::Instruments instruments) {
  print_header("Failure containment — broken jobs become records, not crashes",
               "docs/ROBUSTNESS.md §containment");

  const auto fly = [&platform](const std::string& name,
                               const attacks::Scenario& scenario,
                               const eval::MissionConfig& config) {
    const eval::ContainedRun run =
        eval::run_contained(platform, scenario, config);
    if (run.failed()) {
      std::printf("  FAILED   %-38s seed=%llu step=%zu: %s\n", name.c_str(),
                  static_cast<unsigned long long>(config.seed),
                  run.failure->step, run.failure->what.c_str());
    } else {
      std::printf("  ok       %-38s %zu records, goal %s\n", name.c_str(),
                  run.result.records.size(),
                  run.result.goal_reached ? "reached" : "-");
    }
  };

  const attacks::Scenario clean = platform.clean_scenario();
  eval::MissionConfig bad = bench_mission(clean, 70, 50, instruments);
  core::RoboAdsConfig bad_cfg = platform.detector_config();
  bad_cfg.engine.likelihood_floor = 0.9;  // > 1/M: rejected at detector setup
  bad.detector_override = bad_cfg;
  fly("deliberately-broken-detector", clean, bad);
  for (std::size_t n : {std::size_t{1}, std::size_t{3}}) {
    const attacks::Scenario scenario =
        scenario::compile_spec(scenario::khepera_table2_spec(n), platform);
    fly(scenario.name(), scenario,
        bench_mission(scenario, 70 + n, 100, instruments));
  }
}

int run(obs::Instruments instruments) {
  eval::KheperaPlatform platform;
  print_sweep(platform, instruments);
  print_containment(platform, instruments);
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

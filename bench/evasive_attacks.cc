// Reproduces paper §V-H: evasive attacks. An attacker shrinking the attack
// vector to stay under the χ² thresholds must make it so small that it no
// longer matters: the paper finds a stealthy IPS shift must stay below
// ~0.02 m and a stealthy wheel-speed alteration below ~900 speed units
// (0.006 m/s) to remain alarm-silent under the chosen configuration.
//
// This bench sweeps both attack magnitudes and reports the largest
// magnitude that stayed undetected for the whole mission and the smallest
// that was caught.
#include "bench/bench_util.h"
#include "dynamics/diff_drive.h"

namespace roboads::bench {
namespace {

using attacks::BiasInjector;
using attacks::InjectionPoint;
using attacks::Scenario;
using attacks::Window;

int run(const obs::Instruments& instruments) {
  print_header("§V-H — evasive (stealthy) attack magnitude sweep",
               "RoboADS (DSN'18) §V-H");

  eval::KheperaPlatform platform;
  // A failed mission prints its step and cause after its magnitude; its
  // sweep then maps no stealth boundary and the bench exits 1.
  int rc = 0;
  bool sweep_failed = false;
  const auto fly = [&](const Scenario& scenario, std::uint64_t seed) {
    eval::ContainedRun run = eval::run_contained(
        platform, scenario, bench_mission(scenario, seed, 250, instruments));
    if (run.failed()) {
      std::printf("FAILED at step %zu: %s\n", run.failure->step,
                  run.failure->what.c_str());
      sweep_failed = true;
      rc = 1;
    }
    return run;
  };
  const auto boundary_unmapped = [&] {
    if (!sweep_failed) return false;
    std::printf("stealth boundary: not mapped (a sweep mission failed)\n");
    sweep_failed = false;
    return true;
  };

  // ---- Stealthy IPS shift sweep. ----
  std::printf("\nIPS X-shift sweep (attack from 6 s, full-mission stealth "
              "check):\n%-14s %-10s %-12s\n",
              "shift [m]", "detected", "delay");
  double largest_stealthy_ips = 0.0;
  double smallest_caught_ips = -1.0;
  for (double shift : {0.005, 0.010, 0.015, 0.020, 0.030, 0.040, 0.060,
                       0.080, 0.100}) {
    const Scenario scenario(
        "stealthy ips", "swept IPS bias",
        {{InjectionPoint::kSensorOutput, "ips",
          std::make_shared<BiasInjector>(Window{60, ~std::size_t{0}},
                                         Vector{shift, 0.0, 0.0})}});
    std::printf("%-14.3f ", shift);
    const eval::ContainedRun run = fly(scenario, 60000);
    if (run.failed()) continue;
    const bool caught = scenario::sensor_detected(run.score);
    std::printf("%-10s %-12s\n", caught ? "yes" : "no",
                run.score.delays.empty()
                    ? "-"
                    : fmt_delay(run.score.delays[0].seconds).c_str());
    if (!caught) largest_stealthy_ips = shift;
    if (caught && smallest_caught_ips < 0.0) smallest_caught_ips = shift;
  }
  if (!boundary_unmapped()) {
    std::printf("stealth boundary: undetected ≤ %.3f m, caught ≥ %.3f m "
                "(paper: ~0.02 m)\n",
                largest_stealthy_ips, smallest_caught_ips);
  }

  // ---- Stealthy wheel-speed alteration sweep. ----
  std::printf("\nwheel-speed alteration sweep (±units on vL/vR):\n"
              "%-14s %-12s %-10s %-12s\n",
              "units", "m/s", "detected", "delay");
  double largest_stealthy_units = 0.0;
  double smallest_caught_units = -1.0;
  for (double units : {150.0, 300.0, 600.0, 900.0, 1500.0, 2250.0, 3000.0,
                       4500.0, 6000.0}) {
    const double mps = dyn::khepera_units_to_mps(units);
    const Scenario scenario(
        "stealthy wheel bomb", "swept actuator bias",
        {{InjectionPoint::kActuatorCommand, "wheels",
          std::make_shared<BiasInjector>(Window{60, ~std::size_t{0}},
                                         Vector{-mps, mps})}});
    std::printf("%-14.0f %-12.4f ", units, mps);
    const eval::ContainedRun run = fly(scenario, 60001);
    if (run.failed()) continue;
    const bool caught = scenario::actuator_detected(run.score);
    std::printf("%-10s %-12s\n", caught ? "yes" : "no",
                run.score.delays.empty()
                    ? "-"
                    : fmt_delay(run.score.delays[0].seconds).c_str());
    if (!caught) largest_stealthy_units = units;
    if (caught && smallest_caught_units < 0.0) smallest_caught_units = units;
  }
  if (!boundary_unmapped()) {
    std::printf("stealth boundary: undetected ≤ %.0f units, caught ≥ %.0f "
                "units (paper: ~900 units = 0.006 m/s)\n",
                largest_stealthy_units, smallest_caught_units);
  }

  std::printf("\nconclusion (paper's): an attacker constrained below these "
              "magnitudes cannot make a significant impact on the mission.\n");
  return rc;
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

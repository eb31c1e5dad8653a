// Reproduces paper Table IV: actuator anomaly vector estimation variance
// under different reference-sensor settings (IPS only / wheel encoder only /
// LiDAR only / all 3 sensors fused).
//
// The paper's point (§V-E): fusing more (or better) reference sensors
// strictly reduces the variance of the anomaly estimates — "RoboADS
// provides a scheme to improve anomaly vector estimation accuracy by adding
// more sensors or more accurate sensors." Expected shape: LiDAR-only ≈ an
// order of magnitude worse than IPS/WE-only; all-3 at least as good as the
// best single sensor.
#include "bench/bench_util.h"
#include "core/nuise.h"

namespace roboads::bench {
namespace {

// Runs a dedicated single-mode NUISE with the given reference set over a
// clean mission's recorded commands/readings and reports the empirical
// variance of d̂ᵃ plus the filter's own covariance diagonal.
struct VarianceResult {
  double empirical_vl = 0.0;
  double empirical_vr = 0.0;
  double filter_vl = 0.0;
  double filter_vr = 0.0;
};

VarianceResult actuator_variance(const eval::KheperaPlatform& platform,
                                 const eval::MissionResult& mission,
                                 std::vector<std::size_t> reference) {
  const sensors::SensorSuite& suite = platform.suite();
  core::Mode mode;
  mode.reference = std::move(reference);
  mode.testing = suite.complement(mode.reference);
  mode.label = "bench";
  core::Nuise nuise(platform.model(), suite, mode, platform.process_cov());

  Vector x = platform.initial_state();
  Matrix p = Matrix::identity(3) * 1e-4;
  std::vector<double> vl, vr;
  Vector filter_acc(2);
  for (const eval::IterationRecord& rec : mission.records) {
    const core::NuiseResult r = nuise.step(x, p, rec.u_planned, rec.z);
    x = r.state;
    p = r.state_cov;
    if (rec.k < 20) continue;  // let the filter settle
    vl.push_back(r.actuator_anomaly[0]);
    vr.push_back(r.actuator_anomaly[1]);
    filter_acc += r.actuator_anomaly_cov.diagonal_vector();
  }
  const double n = static_cast<double>(vl.size());
  VarianceResult out;
  const double svl = stats::sample_stddev(vl);
  const double svr = stats::sample_stddev(vr);
  out.empirical_vl = svl * svl;
  out.empirical_vr = svr * svr;
  out.filter_vl = filter_acc[0] / n;
  out.filter_vr = filter_acc[1] / n;
  return out;
}

int run(const obs::Instruments& instruments) {
  print_header(
      "Table IV — actuator anomaly vector variance vs sensor settings",
      "RoboADS (DSN'18) Table IV / §V-E");

  eval::KheperaPlatform platform;
  const attacks::Scenario clean = platform.clean_scenario();
  const eval::MissionResult mission = eval::run_mission(
      platform, clean, bench_mission(clean, 4242, 400, instruments));

  struct Row {
    const char* label;
    std::vector<std::size_t> reference;
  };
  const std::vector<Row> rows = {
      {"IPS", {eval::KheperaPlatform::kIps}},
      {"Wheel encoder", {eval::KheperaPlatform::kWheelEncoder}},
      {"LiDAR", {eval::KheperaPlatform::kLidar}},
      {"All 3 sensors",
       {eval::KheperaPlatform::kWheelEncoder, eval::KheperaPlatform::kIps,
        eval::KheperaPlatform::kLidar}},
  };

  std::printf("%-16s %18s %18s %18s %18s\n", "sensor setting",
              "emp Var(vL) e-5", "emp Var(vR) e-5", "filt Var(vL) e-5",
              "filt Var(vR) e-5");
  std::printf("%s\n", std::string(92, '-').c_str());

  // The four reference settings replay the same recorded mission through
  // independent single-mode NUISE filters.
  std::vector<VarianceResult> results;
  for (const Row& row : rows) {
    results.push_back(actuator_variance(platform, mission, row.reference));
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const VarianceResult& v = results[i];
    std::printf("%-16s %18.2f %18.2f %18.2f %18.2f\n", rows[i].label,
                v.empirical_vl * 1e5, v.empirical_vr * 1e5,
                v.filter_vl * 1e5, v.filter_vr * 1e5);
  }
  std::printf("%s\n", std::string(92, '-').c_str());
  std::printf(
      "paper (Var ×1e-5): IPS 2.39/1.94, WE 2.76/2.04, LiDAR 21.7/20.3, "
      "all-3 2.32/1.88\n");
  const bool lidar_worst =
      results[2].empirical_vl > results[0].empirical_vl * 3.0 &&
      results[2].empirical_vl > results[1].empirical_vl * 3.0;
  const bool fusion_best =
      results[3].empirical_vl <=
          std::min(results[0].empirical_vl, results[1].empirical_vl) * 1.15 &&
      results[3].empirical_vr <=
          std::min(results[0].empirical_vr, results[1].empirical_vr) * 1.15;
  std::printf("shape check: LiDAR-only ≫ others: %s; fusion ≤ best single: "
              "%s\n",
              lidar_worst ? "yes" : "NO", fusion_best ? "yes" : "NO");
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

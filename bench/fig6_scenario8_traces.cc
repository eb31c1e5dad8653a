// Reproduces paper Fig. 6: the raw multi-mode estimation engine outputs for
// scenario #8 (IPS logic bomb at ~4 s + wheel-controller logic bomb at
// ~10 s), emitted as CSV time series — the eight plots of the figure:
//
//   1) IPS sensor anomaly estimates (x, y, θ)
//   2) wheel-encoder sensor anomaly estimates (x, y, θ)
//   3) LiDAR sensor anomaly estimates (d1, d2, d3, θ)
//   4) actuator anomaly estimates (vL, vR)
//   5) sensor anomaly χ² statistic + threshold (α = 0.005)
//   6) sensor mode selection (Table III S0..S6)
//   7) actuator anomaly χ² statistic + threshold (α = 0.05)
//   8) actuator mode selection (A0/A1)
#include "bench/bench_util.h"

namespace roboads::bench {
namespace {

double component(const Vector& v, std::size_t i) {
  return i < v.size() ? v[i] : 0.0;
}

int run(const obs::Instruments& instruments) {
  print_header("Figure 6 — raw engine outputs for scenario #8",
               "RoboADS (DSN'18) Fig. 6");

  eval::KheperaPlatform platform;
  eval::MissionConfig cfg;
  cfg.iterations = 200;  // 20 s, matching the figure's time axis
  cfg.seed = 88;
  cfg.instruments = instruments;
  cfg.obs_label = "fig6/scenario8";
  const eval::MissionResult mission = eval::run_mission(
      platform,
      scenario::compile_spec(scenario::khepera_table2_spec(8), platform), cfg);

  std::printf(
      "t,ds_ips_x,ds_ips_y,ds_ips_th,ds_we_x,ds_we_y,ds_we_th,"
      "ds_lidar_d1,ds_lidar_d2,ds_lidar_d3,ds_lidar_th,da_vl,da_vr,"
      "sensor_stat,sensor_thresh,sensor_mode,act_stat,act_thresh,act_mode\n");

  for (const eval::IterationRecord& rec : mission.records) {
    const auto& rep = rec.report;
    const Vector& ips =
        rep.sensor_anomaly_by_sensor[eval::KheperaPlatform::kIps];
    const Vector& we =
        rep.sensor_anomaly_by_sensor[eval::KheperaPlatform::kWheelEncoder];
    const Vector& lidar =
        rep.sensor_anomaly_by_sensor[eval::KheperaPlatform::kLidar];

    // Sensor mode number per Table III naming.
    const std::string cond =
        platform.condition_name(rep.decision.misbehaving_sensors);
    const int sensor_mode =
        cond.size() == 2 && cond[0] == 'S' ? cond[1] - '0' : -1;

    std::printf(
        "%.1f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,"
        "%.2f,%.2f,%d,%.2f,%.2f,%d\n",
        static_cast<double>(rec.k) * mission.dt, component(ips, 0),
        component(ips, 1), component(ips, 2), component(we, 0),
        component(we, 1), component(we, 2), component(lidar, 0),
        component(lidar, 1), component(lidar, 2), component(lidar, 3),
        component(rep.actuator_anomaly, 0), component(rep.actuator_anomaly, 1),
        rep.decision.sensor_statistic, rep.decision.sensor_threshold,
        sensor_mode, rep.decision.actuator_statistic,
        rep.decision.actuator_threshold, rep.decision.actuator_alarm ? 1 : 0);
  }

  // Shape summary mirroring the figure's narrative: IPS anomaly on X rises
  // to ≈ +0.07 m around 4 s; actuator anomaly splits to ∓0.04 m/s around
  // 10 s; wheel-encoder and LiDAR anomaly estimates stay silent.
  Vector ips_late(3), da_late(2), we_late(3);
  std::size_t n_late = 0;
  for (const eval::IterationRecord& rec : mission.records) {
    if (rec.k < 120) continue;
    const auto& rep = rec.report;
    if (!rep.sensor_anomaly_by_sensor[eval::KheperaPlatform::kIps].empty())
      ips_late += rep.sensor_anomaly_by_sensor[eval::KheperaPlatform::kIps];
    if (!rep.sensor_anomaly_by_sensor[eval::KheperaPlatform::kWheelEncoder]
             .empty())
      we_late +=
          rep.sensor_anomaly_by_sensor[eval::KheperaPlatform::kWheelEncoder];
    da_late += rep.actuator_anomaly;
    ++n_late;
  }
  ips_late /= static_cast<double>(n_late);
  we_late /= static_cast<double>(n_late);
  da_late /= static_cast<double>(n_late);
  std::printf(
      "\nsummary (t>12s means): ds_ips_x=%.3f (inject +0.070), "
      "da=[%.3f, %.3f] (inject [-0.040, +0.040]), |ds_we| quiet=%.3f\n",
      ips_late[0], da_late[0], da_late[1], we_late.norm_inf());
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

// Runtime micro-benchmarks (google-benchmark): RoboADS must execute inside
// one control iteration (100 ms on the paper's platforms; the paper notes
// "detection delay is a constant multiple of control iterations", which
// presumes the detector itself never becomes the bottleneck).
//
// Benchmarked: a single NUISE step (healthy and with one testing sensor
// masked), one full multi-mode engine iteration (M = p estimators +
// selector), the full detector step (engine + decision maker) on one
// synthetic reading, by value and into a reused report, and replaying
// recorded missions, one fleet robot's session set-up, its complete frames
// and a lossy stream's frames, the detector's matrix kernels, the random
// draws, the LiDAR scan-processing pipeline, a Khepera iteration's sensing,
// the RRT* mission plan, and one whole Khepera mission.
#include <benchmark/benchmark.h>
#include <malloc.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "core/roboads.h"
#include "dynamics/bicycle.h"
#include "dynamics/diff_drive.h"
#include "eval/khepera.h"
#include "eval/mission.h"
#include "eval/tamiya.h"
#include "fleet/replay.h"
#include "fleet/service.h"
#include "matrix/decomp.h"
#include "scenario/compile.h"
#include "scenario/library.h"
#include "sim/lidar.h"
#include "sim/simulator.h"

// Heap accounting for the session rows: while `counting` is set, operator
// new/delete count allocations and the usable bytes of the blocks they
// hand out and take back. Otherwise they cost one relaxed load.
namespace {

struct HeapCounter {
  std::atomic<bool> counting{false};
  std::atomic<std::int64_t> allocations{0};
  std::atomic<std::int64_t> bytes{0};
};
HeapCounter g_heap;

void* counted_alloc(std::size_t size, bool nothrow) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    if (nothrow) return nullptr;
    throw std::bad_alloc();
  }
  if (g_heap.counting.load(std::memory_order_relaxed)) {
    g_heap.allocations.fetch_add(1, std::memory_order_relaxed);
    g_heap.bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  return p;
}

void counted_free(void* p) noexcept {
  if (p != nullptr && g_heap.counting.load(std::memory_order_relaxed)) {
    g_heap.bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, false); }
void* operator new[](std::size_t size) { return counted_alloc(size, false); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, true);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, true);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace roboads {
namespace {

struct KheperaFixture {
  eval::KheperaPlatform platform;
  Rng rng{99};
  Vector x{0.5, 0.5, 0.3};
  Vector u{0.05, 0.06};
  Vector z;

  KheperaFixture() {
    GaussianSampler noise(
        platform.suite().noise_covariance(platform.suite().all()));
    z = platform.suite().measure(platform.suite().all(), x) +
        noise.sample(rng);
  }
};

void BM_NuiseStepKhepera(benchmark::State& state) {
  KheperaFixture f;
  core::Mode mode{"ref:ips", {1}, {0, 2}};
  core::Nuise nuise(f.platform.model(), f.platform.suite(), mode,
                    f.platform.process_cov());
  const Matrix p = Matrix::identity(3) * 1e-4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nuise.step(f.x, p, f.u, f.z));
  }
}
BENCHMARK(BM_NuiseStepKhepera);

// The same mode with one testing sensor (odometry) unavailable: the step
// runs on the filtered testing subset, the degraded path of a masked
// iteration rather than a prediction-only step.
void BM_NuiseStepKheperaMasked(benchmark::State& state) {
  KheperaFixture f;
  core::Mode mode{"ref:ips", {1}, {0, 2}};
  core::Nuise nuise(f.platform.model(), f.platform.suite(), mode,
                    f.platform.process_cov());
  const Matrix p = Matrix::identity(3) * 1e-4;
  core::SensorMask mask;
  mask.set_missing(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nuise.step(f.x, p, f.u, f.z, mask));
  }
}
BENCHMARK(BM_NuiseStepKheperaMasked);

void BM_EngineStepKhepera(benchmark::State& state) {
  KheperaFixture f;
  core::MultiModeEngine engine(
      f.platform.model(), f.platform.suite(),
      core::one_reference_per_sensor(f.platform.suite()),
      f.platform.process_cov(), f.x, Matrix::identity(3) * 1e-4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.step(f.u, f.z));
  }
}
BENCHMARK(BM_EngineStepKhepera);

// The §VI complete mode set: 2³ − 1 = 7 NUISE instances per step.
void BM_EngineStepCompleteModeSet(benchmark::State& state) {
  KheperaFixture f;
  core::MultiModeEngine engine(
      f.platform.model(), f.platform.suite(),
      core::complete_mode_set(f.platform.suite()), f.platform.process_cov(),
      f.x, Matrix::identity(3) * 1e-4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.step(f.u, f.z));
  }
  state.counters["modes"] =
      static_cast<double>(engine.modes().size());
}
BENCHMARK(BM_EngineStepCompleteModeSet);

void BM_FullDetectorStepKhepera(benchmark::State& state) {
  KheperaFixture f;
  core::RoboAds detector(f.platform.model(), f.platform.suite(),
                         f.platform.process_cov(), f.x,
                         Matrix::identity(3) * 1e-4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.step(f.u, f.z));
  }
}
BENCHMARK(BM_FullDetectorStepKhepera);

// The step above into one reused report, as fleet sessions and missions
// step (docs/PERFORMANCE.md "In-place detector step").
void BM_DetectorStepIntoKhepera(benchmark::State& state) {
  KheperaFixture f;
  core::RoboAds detector(f.platform.model(), f.platform.suite(),
                         f.platform.process_cov(), f.x,
                         Matrix::identity(3) * 1e-4);
  const core::SensorMask all_available;
  core::DetectionReport report;
  for (auto _ : state) {
    detector.step_into(f.u, f.z, all_available, report);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_DetectorStepIntoKhepera);

void BM_FullDetectorStepTamiya(benchmark::State& state) {
  eval::TamiyaPlatform platform;
  Rng rng(11);
  const Vector x{1.0, 1.0, 0.5};
  const Vector u{0.4, 0.05};
  GaussianSampler noise(
      platform.suite().noise_covariance(platform.suite().all()));
  const Vector z =
      platform.suite().measure(platform.suite().all(), x) + noise.sample(rng);
  core::RoboAds detector(platform.model(), platform.suite(),
                         platform.process_cov(), x,
                         Matrix::identity(3) * 1e-4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.step(u, z));
  }
}
BENCHMARK(BM_FullDetectorStepTamiya);

// One detector replaying the recorded (u, z, mask) of Table II #1-11 at
// mission seeds 1001-1011, in order, reset at each mission's start: the
// covariances and innovations of real missions instead of one synthetic
// reading from a converged state. Time per detector step.
void BM_DetectorReplayKhepera(benchmark::State& state) {
  const eval::KheperaPlatform platform;
  const eval::DetectorSetup setup(platform, /*linear_baseline=*/false);
  std::vector<eval::MissionResult> missions;
  for (std::size_t number = 1; number <= 11; ++number) {
    eval::MissionConfig config;
    config.seed = 1000 + number;
    missions.push_back(eval::run_mission(
        platform,
        scenario::compile_spec(scenario::khepera_table2_spec(number),
                               platform),
        config));
  }
  core::RoboAds detector(setup.model(), setup.suite(), platform.process_cov(),
                         platform.initial_state(), setup.p0(),
                         platform.detector_config(),
                         platform.detector_modes());
  std::size_t mission = 0;
  std::size_t k = 0;
  for (auto _ : state) {
    const eval::IterationRecord& rec = missions[mission].records[k];
    benchmark::DoNotOptimize(
        detector.step(rec.u_planned, rec.z, rec.sensor_available));
    if (++k == missions[mission].records.size()) {
      k = 0;
      mission = (mission + 1) % missions.size();
      detector.reset(platform.initial_state(), setup.p0());
    }
  }
}
BENCHMARK(BM_DetectorReplayKhepera);

// Registering one Khepera robot with a fleet service: its DetectorSession
// on the spec's shared estimator bank plus the service's per-robot
// bookkeeping (docs/PERFORMANCE.md "Per-robot state"). Counters: heap bytes
// still live and allocations made per registered robot. A fresh service
// takes over every 1000 robots, outside the timing and the count.
void BM_FleetSessionSetupKhepera(benchmark::State& state) {
  const eval::KheperaPlatform platform;
  const auto spec = fleet::make_session_spec(platform);
  fleet::FleetConfig config;
  config.shards = 1;
  constexpr std::int64_t kRobotsPerService = 1000;
  std::unique_ptr<fleet::FleetService> service;
  std::int64_t robots = 0;
  g_heap.allocations = 0;
  g_heap.bytes = 0;
  for (auto _ : state) {
    if (robots % kRobotsPerService == 0) {
      state.PauseTiming();
      g_heap.counting = false;
      service.reset();
      service = std::make_unique<fleet::FleetService>(config);
      g_heap.counting = true;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(service->add_robot(spec));
    ++robots;
  }
  g_heap.counting = false;
  service.reset();
  const double n = static_cast<double>(robots);
  state.counters["bytes_per_session"] =
      static_cast<double>(g_heap.bytes.load()) / n;
  state.counters["allocs_per_session"] =
      static_cast<double>(g_heap.allocations.load()) / n;
}
BENCHMARK(BM_FleetSessionSetupKhepera);

// One complete frame (a command and three readings, in order) of a recorded
// clean Khepera mission through a fleet session, whose sink does nothing:
// reassembly and the detector step. The session restarts from its initial
// snapshot after the mission's last frame. Counter: heap allocations per
// frame.
void BM_SessionStepKhepera(benchmark::State& state) {
  const eval::KheperaPlatform platform;
  eval::MissionConfig config;
  config.seed = 1001;
  const std::vector<fleet::FleetPacket> packets = fleet::mission_packets(
      0, platform.suite(),
      eval::run_mission(platform, platform.clean_scenario(), config));
  fleet::DetectorSession session(fleet::make_session_spec(platform));
  session.set_report_sink([](const core::DetectionReport&, std::uint64_t) {});
  const fleet::SessionSnapshot start = session.save();
  const std::size_t per_frame = platform.suite().count() + 1;
  std::size_t at = 0;
  g_heap.allocations = 0;
  g_heap.counting = true;
  for (auto _ : state) {
    if (at == packets.size()) {
      session.restore(start);
      at = 0;
    }
    for (std::size_t i = 0; i < per_frame; ++i) session.ingest(packets[at++]);
  }
  g_heap.counting = false;
  state.counters["allocs_per_step"] =
      static_cast<double>(g_heap.allocations.load()) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_SessionStepKhepera);

// The same stream with the wheel-encoder packet of every 4th frame lost:
// such a frame waits in the reorder window until a later packet forces it
// out, then steps masked. The session flushes and restarts from its
// initial snapshot after the mission's last frame. Counters: heap
// allocations and masked steps per frame.
void BM_SessionStepKheperaLossy(benchmark::State& state) {
  const eval::KheperaPlatform platform;
  eval::MissionConfig config;
  config.seed = 1001;
  const std::vector<fleet::FleetPacket> all = fleet::mission_packets(
      0, platform.suite(),
      eval::run_mission(platform, platform.clean_scenario(), config));
  const std::size_t per_frame = platform.suite().count() + 1;
  // Per frame: the command, then the wheel encoder's reading (sensor 0).
  std::vector<std::vector<fleet::FleetPacket>> frames(all.size() / per_frame);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::size_t f = i / per_frame;
    if (i % per_frame == 1 && f % 4 == 3) continue;
    frames[f].push_back(all[i]);
  }
  fleet::DetectorSession session(fleet::make_session_spec(platform));
  session.set_report_sink([](const core::DetectionReport&, std::uint64_t) {});
  const fleet::SessionSnapshot start = session.save();
  std::size_t at = 0;
  std::uint64_t masked = 0;  // the restore resets the session's counters
  g_heap.allocations = 0;
  g_heap.counting = true;
  for (auto _ : state) {
    if (at == frames.size()) {
      session.flush();
      masked += session.counters().masked_steps;
      session.restore(start);
      at = 0;
    }
    for (const fleet::FleetPacket& packet : frames[at]) session.ingest(packet);
    ++at;
  }
  g_heap.counting = false;
  masked += session.counters().masked_steps;
  const double frames_run = static_cast<double>(state.iterations());
  state.counters["allocs_per_step"] =
      static_cast<double>(g_heap.allocations.load()) / frames_run;
  state.counters["masked_per_step"] =
      static_cast<double>(masked) / frames_run;
}
BENCHMARK(BM_SessionStepKheperaLossy);

// Detector kernels (matrix/kernels.h) on the shapes that dominate a Khepera
// step, with operands built from the platform at run time: the 3×3 state
// Jacobian A and covariance P, and the 4×4 LiDAR innovation covariance
// C P Cᵀ + R.
struct KernelFixture {
  KheperaFixture f;
  Matrix a = f.platform.model().jacobian_state(f.x, f.u);
  Matrix p = Matrix::identity(3) * 1e-4 + f.platform.process_cov();
  Matrix innov4;

  KernelFixture() {
    const std::vector<std::size_t> lidar{2};
    innov4 = sandwich(f.platform.suite().jacobian(lidar, f.x), p);
    innov4 += f.platform.suite().noise_covariance(lidar);
  }
};

void BM_MatMul3x3(benchmark::State& state) {
  const KernelFixture k;
  for (auto _ : state) benchmark::DoNotOptimize(k.a * k.p);
}
BENCHMARK(BM_MatMul3x3);

void BM_Sandwich3x3(benchmark::State& state) {
  const KernelFixture k;
  for (auto _ : state) benchmark::DoNotOptimize(sandwich(k.a, k.p));
}
BENCHMARK(BM_Sandwich3x3);

void BM_JacobiEigen4(benchmark::State& state) {
  const KernelFixture k;
  for (auto _ : state) benchmark::DoNotOptimize(eigen_symmetric(k.innov4));
}
BENCHMARK(BM_JacobiEigen4);

void BM_Cholesky4(benchmark::State& state) {
  const KernelFixture k;
  for (auto _ : state) benchmark::DoNotOptimize(Cholesky(k.innov4));
}
BENCHMARK(BM_Cholesky4);

// One random draw as a mission makes them: RRT* samples two uniform
// coordinates per iteration, and the LiDAR adds a Gaussian to each of its
// 81 beams every control iteration.
void BM_RngUniform(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform(0.0, 2.0));
}
BENCHMARK(BM_RngUniform);

void BM_RngGaussian(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.gaussian(0.0, 0.01));
}
BENCHMARK(BM_RngGaussian);

void BM_LidarScanAndProcess(benchmark::State& state) {
  const sim::World world(2.0, 1.5);
  sim::LidarConfig cfg;
  cfg.fov = 2.0 * M_PI;
  cfg.beam_count = static_cast<std::size_t>(state.range(0));
  sim::LidarScanner scanner(cfg);
  sim::ScanProcessor processor(sim::ScanProcessorConfig{}, 2.0, 1.5);
  Rng rng(5);
  const Vector pose{0.7, 0.6, 0.4};
  for (auto _ : state) {
    const Vector ranges = scanner.scan(world, pose, rng);
    benchmark::DoNotOptimize(processor.process(scanner, ranges, pose));
  }
}
BENCHMARK(BM_LidarScanAndProcess)->Arg(81)->Arg(241)->Arg(681);

// The LiDAR reduction a Khepera mission runs every iteration: the
// platform's arena (its obstacle included) and scanner, over a fixed
// seeded set of free poses, the scan buffer reused as the workflow does.
void BM_LidarScanAndProcessKhepera(benchmark::State& state) {
  const eval::KheperaPlatform platform;
  const sim::World& world = platform.world();
  sim::SensingStack sensing =
      platform.make_sensing(attacks::Scenario("clean", "", {}));
  const sim::LidarScanner& scanner =
      dynamic_cast<sim::LidarSensingWorkflow&>(sensing.workflow_named("lidar"))
          .scanner();
  const sim::ScanProcessor processor(sim::ScanProcessorConfig{},
                                     world.width(), world.height(),
                                     world.obstacles());
  Rng pose_rng(5);
  std::vector<Vector> poses;
  while (poses.size() < 64) {
    const geom::Vec2 p{pose_rng.uniform(0.0, world.width()),
                       pose_rng.uniform(0.0, world.height())};
    if (!world.free(p, platform.robot_radius())) continue;
    poses.push_back(Vector{p.x, p.y, pose_rng.uniform(-M_PI, M_PI)});
  }
  Rng rng(7);
  Vector ranges;
  std::size_t i = 0;
  for (auto _ : state) {
    const Vector& pose = poses[i++ % poses.size()];
    scanner.scan(world, pose, rng, ranges);
    benchmark::DoNotOptimize(processor.process(scanner, ranges, pose));
  }
}
BENCHMARK(BM_LidarScanAndProcessKhepera);

// Everything a Khepera mission senses in one iteration: the sensing
// stack's sense_all (IPS, wheel odometry, and the LiDAR scan with its
// processing) over the true states a clean mission recorded, in order,
// cycling back to the first after the last.
void BM_SenseAllKhepera(benchmark::State& state) {
  const eval::KheperaPlatform platform;
  eval::MissionConfig config;
  config.seed = 1001;
  const eval::MissionResult mission =
      eval::run_mission(platform, platform.clean_scenario(), config);
  sim::SensingStack sensing = platform.make_sensing(platform.clean_scenario());
  Rng rng(7);
  std::size_t i = 0;
  for (auto _ : state) {
    const eval::IterationRecord& rec =
        mission.records[i++ % mission.records.size()];
    benchmark::DoNotOptimize(sensing.sense_all(rec.k, rec.x_true, rng));
  }
}
BENCHMARK(BM_SenseAllKhepera);

// One Table II mission as a campaign job flies it: compile, RRT* plan and
// smoothing, then 250 iterations of control, sensing and detection.
// Successive iterations cycle through #1-11, each at a fixed mission seed.
void BM_MissionKhepera(benchmark::State& state) {
  const eval::KheperaPlatform platform;
  eval::MissionConfig config;
  config.iterations = 250;
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t number = i++ % 11 + 1;
    config.seed = 1000 + number;
    const attacks::Scenario scenario = scenario::compile_spec(
        scenario::khepera_table2_spec(number), platform);
    benchmark::DoNotOptimize(eval::run_mission(platform, scenario, config));
  }
}
BENCHMARK(BM_MissionKhepera);

void BM_RrtStarPlan(benchmark::State& state) {
  const sim::World world(2.0, 1.5, {geom::Aabb{{0.85, 0.55}, {1.15, 0.85}}});
  planning::RrtStarConfig cfg;
  cfg.max_iterations = static_cast<std::size_t>(state.range(0));
  planning::RrtStar planner(world, cfg);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    benchmark::DoNotOptimize(planner.plan({0.35, 0.3}, {1.6, 1.2}, rng));
  }
}
BENCHMARK(BM_RrtStarPlan)->Arg(1000)->Arg(4000);

// One mission plan exactly as the platform's controller makes it: its
// world, start, goal and RRT* settings, a fresh seed per plan.
template <typename PlatformT>
void plan_missions(benchmark::State& state, const PlatformT& platform,
                   const geom::Vec2& start) {
  const planning::RrtStar planner(platform.world(), platform.planner_config());
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    benchmark::DoNotOptimize(planner.plan(start, platform.goal(), rng));
  }
}

void BM_RrtStarPlanKhepera(benchmark::State& state) {
  const eval::KheperaPlatform platform;
  const Vector& s = platform.config().start_pose;
  plan_missions(state, platform, {s[0], s[1]});
}
BENCHMARK(BM_RrtStarPlanKhepera);

void BM_RrtStarPlanTamiya(benchmark::State& state) {
  const eval::TamiyaPlatform platform;
  const Vector& s = platform.config().start_state;
  plan_missions(state, platform, {s[0], s[1]});
}
BENCHMARK(BM_RrtStarPlanTamiya);

}  // namespace
}  // namespace roboads

BENCHMARK_MAIN();

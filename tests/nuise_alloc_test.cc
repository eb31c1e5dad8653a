// Steady-state allocation audit of the NUISE hot path, of the full
// detector step, and of mission sensing.
//
// The detector's per-iteration work — one Nuise::step per mode — must not
// touch the heap once the estimator is constructed: all vectors/matrices on
// the Khepera-sized path fit the inline storage of matrix.h and all
// mode-invariant structure lives in the per-instance workspace (see
// docs/PERFORMANCE.md). Nor may a mission's sensing, once its first scan
// has sized the LiDAR workflow's buffers. A full RoboAds::step allocates
// only the result containers it hands back, and its exact count is pinned
// so a new per-step allocation shows up here. This test replaces the global
// allocation functions with counting versions and asserts the count stays
// zero across steady-state steps, so any future change that sneaks an
// allocation into the hot path (a temporary std::vector, an eager
// error-message string, a fallback that spills past the inline capacity)
// fails loudly here instead of showing up only as a benchmark regression.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/nuise.h"
#include "core/roboads.h"
#include "dynamics/diff_drive.h"
#include "eval/khepera.h"
#include "scenario/compile.h"
#include "scenario/library.h"
#include "sensors/standard_sensors.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace roboads::core {
namespace {

struct Rig {
  dyn::DiffDrive model{{.axle_length = 0.089, .dt = 0.1}};
  sensors::SensorSuite suite{{
      sensors::make_wheel_odometry(3, 0.01, 0.02),
      sensors::make_ips(3, 0.005, 0.01),
      sensors::make_lidar_nav(3, 2.0, 0.03, 0.03),
  }};
  Matrix q = Matrix::diagonal(Vector{2.5e-7, 2.5e-7, 1e-6});
};

class AllocationGuard {
 public:
  AllocationGuard() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocationGuard() { g_counting.store(false, std::memory_order_relaxed); }
  std::size_t count() const {
    return g_allocations.load(std::memory_order_relaxed);
  }
};

TEST(NuiseAllocation, SteadyStateStepIsAllocationFree) {
  Rig rig;
  // The paper's Khepera-style configuration: single-reference mode over the
  // three-sensor suite, 10-dimensional full reading.
  const Mode mode{"ref:ips", {1}, {0, 2}};
  const Nuise nuise(rig.model, rig.suite, mode, rig.q);

  Vector x{0.3, 0.4, 0.1};
  Matrix p = Matrix::identity(3) * 1e-4;
  const Vector u{0.05, 0.04};
  const Vector z = rig.suite.measure(rig.suite.all(), x);

  // Warm-up step outside the audit: first-call lazy init anywhere in the
  // stack (there should be none, but the audit targets steady state).
  NuiseResult r = nuise.step(x, p, u, z);
  ASSERT_TRUE(r.state.all_finite());

  AllocationGuard guard;
  for (int i = 0; i < 100; ++i) {
    r = nuise.step(r.state, r.state_cov, u, z);
  }
  const std::size_t allocs = guard.count();
  ASSERT_TRUE(r.state.all_finite());
  EXPECT_EQ(allocs, 0u)
      << "steady-state Nuise::step touched the heap " << allocs << " times";
}

TEST(NuiseAllocation, EveryModeOfTheBankIsAllocationFree) {
  Rig rig;
  const std::vector<Mode> modes = one_reference_per_sensor(rig.suite);
  for (const Mode& mode : modes) {
    const Nuise nuise(rig.model, rig.suite, mode, rig.q);
    Vector x{0.3, 0.4, 0.1};
    Matrix p = Matrix::identity(3) * 1e-4;
    const Vector u{0.05, 0.04};
    const Vector z = rig.suite.measure(rig.suite.all(), x);
    NuiseResult r = nuise.step(x, p, u, z);

    AllocationGuard guard;
    for (int i = 0; i < 20; ++i) {
      r = nuise.step(r.state, r.state_cov, u, z);
    }
    EXPECT_EQ(guard.count(), 0u) << "mode " << mode.label;
  }
}

TEST(DetectorAllocation, SteadyCleanKheperaStepAllocatesFiveBlocks) {
  // A Khepera standing still with exact readings: every step is a clean,
  // healthy, all-available step with no alarm.
  const eval::KheperaPlatform platform;
  const sensors::SensorSuite& suite = platform.suite();
  const Vector x = platform.initial_state();
  RoboAds detector(platform.model(), suite, platform.process_cov(), x,
                   Matrix::identity(x.size()) * 1e-4,
                   platform.detector_config(), platform.detector_modes());
  const Vector u(platform.model().input_dim());
  const Vector z = suite.measure(suite.all(), x);
  for (int i = 0; i < 5; ++i) detector.step(u, z);

  constexpr std::size_t kSteps = 50;
  bool alarmed = false;
  AllocationGuard guard;
  for (std::size_t i = 0; i < kSteps; ++i) {
    const DetectionReport report = detector.step(u, z);
    alarmed = alarmed || report.decision.sensor_alarm ||
              report.decision.actuator_alarm;
  }
  const std::size_t allocs = guard.count();
  ASSERT_FALSE(alarmed);
  // Per step: the engine's per-mode results, its weights and health
  // (moved into the report), the report's per-sensor anomaly split and
  // its reserved verdict list.
  EXPECT_EQ(allocs, 5 * kSteps);
}

// One Khepera SensingStack::sense_all per iteration along a straight
// drive: odometry, IPS, and the LiDAR scan, raw-scan injectors, line
// extraction, wall matching and output noise.
std::size_t steady_sensing_allocations(const attacks::Scenario& scenario) {
  const eval::KheperaPlatform platform;
  sim::SensingStack sensing = platform.make_sensing(scenario);
  Rng rng(41);
  const Vector start = platform.initial_state();
  Vector x = start;
  const auto drive = [&](std::size_t k) {
    x[0] = start[0] + 0.003 * static_cast<double>(k) * std::cos(start[2]);
    x[1] = start[1] + 0.003 * static_cast<double>(k) * std::sin(start[2]);
    return sensing.sense_all(k, x, rng);
  };
  // Warm-up outside the audit: the first scans size the buffers.
  Vector z;
  for (std::size_t k = 0; k < 20; ++k) z = drive(k);

  AllocationGuard guard;
  for (std::size_t k = 20; k < 150; ++k) z = drive(k);
  const std::size_t allocs = guard.count();
  EXPECT_EQ(z.size(), sensing.total_dim());
  return allocs;
}

TEST(SensingAllocation, SteadyStateKheperaSensingIsAllocationFree) {
  EXPECT_EQ(steady_sensing_allocations(attacks::Scenario("clean", "", {})),
            0u);
}

TEST(SensingAllocation, LidarDosInjectorKeepsSensingAllocationFree) {
  // Table II #6 zeroes every range from iteration 60 on, so the audit
  // covers clean scans and DoS'd ones.
  const eval::KheperaPlatform platform;
  const attacks::Scenario dos =
      scenario::compile_spec(scenario::khepera_table2_spec(6), platform);
  ASSERT_FALSE(
      dos.injectors_for(attacks::InjectionPoint::kLidarRawScan, "lidar")
          .empty());
  EXPECT_EQ(steady_sensing_allocations(dos), 0u);
}

}  // namespace
}  // namespace roboads::core

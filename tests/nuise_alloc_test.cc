// Steady-state allocation audit of the NUISE hot path, of the full
// detector step, and of mission sensing.
//
// The detector's per-iteration work — one Nuise::step per mode — must not
// touch the heap once the estimator is constructed: all vectors/matrices on
// the Khepera-sized path fit the inline storage of matrix.h and all
// mode-invariant structure is built with the estimator (see
// docs/PERFORMANCE.md). Nor may a mission's sensing, once its first scan
// has sized the LiDAR workflow's buffers. Nor may a full detector step into
// a reused report (RoboAds::step_into), on either platform and on the
// complete mode set, nor a complete in-order frame through a fleet
// session. The by-value RoboAds::step allocates only the containers of the
// report it hands back, and its exact count is pinned so a new per-step
// allocation shows up here. The same holds under any availability mask:
// each mode steps a pattern built at construction (docs/PERFORMANCE.md
// "One NUISE step for every availability pattern"), so a masked step into
// a reused report and a lossy session stream allocate nothing, and a
// by-value masked step only its report. This test replaces the global
// allocation functions with counting versions and asserts the count stays
// zero across steady-state steps, so any future change that sneaks an
// allocation into the hot path (a temporary std::vector, an eager
// error-message string, a fallback that spills past the inline capacity)
// fails loudly here instead of showing up only as a benchmark regression.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "core/nuise.h"
#include "core/roboads.h"
#include "dynamics/diff_drive.h"
#include "eval/khepera.h"
#include "eval/mission.h"
#include "eval/tamiya.h"
#include "fleet/replay.h"
#include "fleet/session.h"
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

// A platform's detector standing still with exact readings: every step is
// a clean, healthy, all-available step with no alarm.
struct StandingDetector {
  RoboAds detector;
  Vector u;
  Vector z;

  explicit StandingDetector(const eval::Platform& platform,
                            std::vector<Mode> modes = {})
      : detector(platform.model(), platform.suite(), platform.process_cov(),
                 platform.initial_state(),
                 Matrix::identity(platform.initial_state().size()) * 1e-4,
                 platform.detector_config(),
                 modes.empty() ? platform.detector_modes() : std::move(modes)),
        u(platform.model().input_dim()),
        z(platform.suite().measure(platform.suite().all(),
                                   platform.initial_state())) {}

  // Heap allocations over 50 steady steps into one reused report, after
  // warm-up steps outside the audit have sized it and this thread's engine
  // result.
  std::size_t step_into_allocations(const SensorMask& mask) {
    DetectionReport report;
    return allocations([&]() -> const DetectionReport& {
      detector.step_into(u, z, mask, report);
      return report;
    });
  }

  // The same through the by-value step(), one fresh report per step.
  std::size_t step_allocations(const SensorMask& mask) {
    DetectionReport report;
    return allocations([&]() -> const DetectionReport& {
      report = detector.step(u, z, mask);
      return report;
    });
  }

  // Steps through `step`, which returns the step's report.
  template <typename Step>
  std::size_t allocations(Step step) {
    for (int i = 0; i < 5; ++i) step();
    AllocationGuard guard;
    bool alarmed = false;
    for (int i = 0; i < 50; ++i) {
      const DetectionReport& report = step();
      alarmed = alarmed || report.decision.sensor_alarm ||
                report.decision.actuator_alarm;
    }
    const std::size_t allocs = guard.count();
    EXPECT_FALSE(alarmed);
    return allocs;
  }
};

TEST(DetectorAllocation, SteadyCleanKheperaStepAllocatesFourBlocks) {
  const eval::KheperaPlatform platform;
  StandingDetector khepera(platform);
  // Per step: the containers of the report step() returns — its mode
  // weights, mode health, per-sensor anomaly split and verdict list. The
  // engine steps into this thread's reused result.
  EXPECT_EQ(khepera.step_allocations({}), 4u * 50);
}

TEST(DetectorAllocation, SteadyStepIntoAReusedReportIsAllocationFree) {
  const eval::KheperaPlatform khepera;
  const eval::TamiyaPlatform tamiya;
  EXPECT_EQ(StandingDetector(khepera).step_into_allocations({}), 0u)
      << "Khepera";
  EXPECT_EQ(StandingDetector(tamiya).step_into_allocations({}), 0u)
      << "Tamiya";
  EXPECT_EQ(StandingDetector(khepera, complete_mode_set(khepera.suite()))
                .step_into_allocations({}),
            0u)
      << "Khepera complete mode set";
}

TEST(DetectorAllocation, CompleteSessionFramesAreAllocationFree) {
  // A recorded clean Khepera mission's packets, in order: every frame
  // completes and steps with no mask into the thread's report.
  const eval::KheperaPlatform platform;
  eval::MissionConfig config;
  config.iterations = 60;
  config.seed = 7;
  const eval::MissionResult mission =
      eval::run_mission(platform, platform.clean_scenario(), config);
  const std::vector<fleet::FleetPacket> packets =
      fleet::mission_packets(0, platform.suite(), mission);
  fleet::DetectorSession session(fleet::make_session_spec(platform));
  std::size_t reports = 0;
  session.set_report_sink(
      [&](const DetectionReport&, std::uint64_t) { ++reports; });
  const std::size_t warm_up = 10 * (platform.suite().count() + 1);
  for (std::size_t i = 0; i < warm_up; ++i) session.ingest(packets[i]);

  AllocationGuard guard;
  for (std::size_t i = warm_up; i < packets.size(); ++i) {
    session.ingest(packets[i]);
  }
  const std::size_t allocs = guard.count();
  EXPECT_EQ(reports, mission.records.size());
  EXPECT_EQ(session.counters().masked_steps, 0u);
  EXPECT_EQ(allocs, 0u);
}

// Every mask with one sensor missing, and the mask with every sensor
// missing, over a suite of `count` sensors.
std::vector<SensorMask> lossy_masks(std::size_t count) {
  std::vector<SensorMask> masks(count + 1);
  for (std::size_t i = 0; i < count; ++i) {
    masks[i].set_missing(i);
    masks[count].set_missing(i);
  }
  return masks;
}

TEST(DetectorAllocation, MaskedStepIntoAReusedReportIsAllocationFree) {
  const eval::KheperaPlatform khepera;
  const eval::TamiyaPlatform tamiya;
  for (const eval::Platform* platform :
       {static_cast<const eval::Platform*>(&khepera),
        static_cast<const eval::Platform*>(&tamiya)}) {
    for (const SensorMask& mask : lossy_masks(platform->suite().count())) {
      SCOPED_TRACE(testing::Message() << platform->name() << " missing bits "
                                      << int{mask.bits()});
      EXPECT_EQ(StandingDetector(*platform).step_into_allocations(mask), 0u);
    }
  }
}

TEST(DetectorAllocation, MaskedStepAllocatesOnlyTheReportItReturns) {
  // Per by-value step: the containers of the report step() returns, as on
  // a complete step — and, with one Khepera sensor missing, the active
  // testing list of its selected result.
  const eval::KheperaPlatform khepera;
  const eval::TamiyaPlatform tamiya;
  struct Case {
    const eval::Platform* platform;
    std::size_t one_missing;
    std::size_t every_missing;
  };
  for (const Case& c : {Case{&khepera, 5, 4}, Case{&tamiya, 3, 3}}) {
    const std::size_t count = c.platform->suite().count();
    for (const SensorMask& mask : lossy_masks(count)) {
      SCOPED_TRACE(testing::Message() << c.platform->name()
                                      << " missing bits " << int{mask.bits()});
      const bool every = mask.bits() == (1u << count) - 1;
      EXPECT_EQ(StandingDetector(*c.platform).step_allocations(mask),
                (every ? c.every_missing : c.one_missing) * 50);
    }
  }
}

TEST(DetectorAllocation, LossySessionFramesAreAllocationFree) {
  // A recorded clean Khepera mission's packets, in order, with the
  // wheel-encoder packet of every 4th frame lost: each such frame waits in
  // the reorder window until a later packet forces it out, then steps
  // masked. Neither kind of frame touches the heap once warm.
  const eval::KheperaPlatform platform;
  eval::MissionConfig config;
  config.iterations = 120;
  config.seed = 7;
  const eval::MissionResult mission =
      eval::run_mission(platform, platform.clean_scenario(), config);
  const std::size_t per_frame = platform.suite().count() + 1;
  std::vector<fleet::FleetPacket> packets;
  {
    const std::vector<fleet::FleetPacket> all =
        fleet::mission_packets(0, platform.suite(), mission);
    for (std::size_t i = 0; i < all.size(); ++i) {
      const bool wheel_encoder = i % per_frame == 1;
      if (!(wheel_encoder && (i / per_frame) % 4 == 3)) {
        packets.push_back(all[i]);
      }
    }
  }
  fleet::DetectorSession session(fleet::make_session_spec(platform));
  std::size_t reports = 0;
  session.set_report_sink(
      [&](const DetectionReport&, std::uint64_t) { ++reports; });
  // The first eight frames' packets, outside the audit: frame 3 steps
  // masked, frame 7 waits for its eviction.
  const std::size_t warm_up = 8 * per_frame - 2;
  for (std::size_t i = 0; i < warm_up; ++i) session.ingest(packets[i]);
  ASSERT_EQ(session.counters().masked_steps, 1u);

  AllocationGuard guard;
  for (std::size_t i = warm_up; i < packets.size(); ++i) {
    session.ingest(packets[i]);
  }
  session.flush();
  const std::size_t allocs = guard.count();
  EXPECT_EQ(reports, mission.records.size());
  EXPECT_EQ(session.counters().masked_steps, mission.records.size() / 4);
  EXPECT_EQ(allocs, 0u);
}

TEST(NuiseAllocation, SuitesBeyondTheSensorBoundAreRefused) {
  // A Nuise builds all 2^p availability patterns of its mode, so a suite
  // may hold at most kMaxSuiteSensors sensors.
  const dyn::DiffDrive model{{.axle_length = 0.089, .dt = 0.1}};
  const Matrix q = Matrix::identity(3) * 1e-6;
  // One IPS as the reference and `count` − 1 more as the testing group.
  const auto build = [&](std::size_t count) {
    std::vector<sensors::SensorPtr> sensors;
    std::vector<std::size_t> testing;
    for (std::size_t i = 0; i < count; ++i) {
      sensors.push_back(sensors::make_ips(3, 0.005, 0.01));
      if (i > 0) testing.push_back(i);
    }
    const sensors::SensorSuite suite(std::move(sensors));
    const Nuise nuise(model, suite, Mode{"ref:0", {0}, testing}, q);
  };
  ASSERT_EQ(kMaxSuiteSensors, 8u);
  EXPECT_NO_THROW(build(8));
  try {
    build(9);
    ADD_FAILURE() << "a 9-sensor suite was accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("kMaxSuiteSensors"),
              std::string::npos)
        << e.what();
  }
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

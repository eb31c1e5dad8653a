// EstimatorBank — the detector's immutable part, built once per fleet spec
// and shared by every robot's detector (core/bank.h). Pins: sessions built
// from one spec step through one bank; a session and a detector on a shared
// bank keep only per-robot state (a byte-counting allocator holds them to
// their budgets); engines sharing a bank record NUISE stage timers only
// into their own registries; a shared-bank detector reports bit-identically
// to one owning its bank; a missing or mismatched bank is rejected.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>

#include "core/roboads.h"
#include "eval/khepera.h"
#include "fleet/replay.h"
#include "fleet/session.h"
#include "obs/metrics.h"
#include "random/rng.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};
std::atomic<std::int64_t> g_live_bytes{0};

// Every block carries its requested size in a header so a free can be
// charged back; 16 bytes keep malloc's alignment for the caller.
constexpr std::size_t kHeader = 16;

void* counted_alloc(std::size_t size, bool nothrow) {
  auto* block = static_cast<unsigned char*>(std::malloc(size + kHeader));
  if (block == nullptr) {
    if (nothrow) return nullptr;
    throw std::bad_alloc();
  }
  std::memcpy(block, &size, sizeof size);
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_live_bytes.fetch_add(static_cast<std::int64_t>(size),
                           std::memory_order_relaxed);
  }
  return block + kHeader;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  unsigned char* block = static_cast<unsigned char*>(p) - kHeader;
  if (g_counting.load(std::memory_order_relaxed)) {
    std::size_t size = 0;
    std::memcpy(&size, block, sizeof size);
    g_live_bytes.fetch_sub(static_cast<std::int64_t>(size),
                           std::memory_order_relaxed);
  }
  std::free(block);
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

// Heap bytes still live, and allocations made, while `build` ran. The
// object `build` returns is kept alive, so its own block counts too.
struct Footprint {
  std::int64_t bytes = 0;
  std::size_t allocations = 0;
};

template <typename Build>
auto measure(Footprint& fp, Build build) {
  g_live_bytes.store(0, std::memory_order_relaxed);
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  auto built = build();
  g_counting.store(false, std::memory_order_relaxed);
  fp.bytes = g_live_bytes.load(std::memory_order_relaxed);
  fp.allocations = g_allocations.load(std::memory_order_relaxed);
  return built;
}

struct Khepera {
  eval::KheperaPlatform platform;
  std::shared_ptr<const fleet::SessionSpec> spec =
      fleet::make_session_spec(platform);
};

TEST(EstimatorBank, SessionsBuiltFromOneSpecShareItsBank) {
  const Khepera k;
  const fleet::DetectorSession a(k.spec);
  const fleet::DetectorSession b(k.spec);
  EXPECT_EQ(&a.bank(), k.spec->bank.get());
  EXPECT_EQ(&b.bank(), k.spec->bank.get());
  EXPECT_EQ(k.spec->bank->modes().size(), k.platform.suite().count());
}

TEST(EstimatorBank, KheperaSessionKeepsOnlyPerRobotState) {
  const Khepera k;
  // Warm-up outside the count: first-use statics anywhere in the stack.
  fleet::DetectorSession warm(k.spec);
  Footprint fp;
  const auto session = measure(fp, [&] {
    return std::make_unique<fleet::DetectorSession>(k.spec);
  });
  ASSERT_NE(session, nullptr);
  // 19.3 KB and 87 allocations when every session built its own three
  // NUISE estimators, mode set and χ² tables.
  EXPECT_LE(fp.bytes, 5 * 1024) << fp.allocations << " allocations";
  EXPECT_LE(fp.allocations, 30u) << fp.bytes << " bytes";
}

TEST(EstimatorBank, DetectorOnASharedBankKeepsOnlyPerRobotState) {
  const Khepera k;
  const fleet::SessionSpec& s = *k.spec;
  core::RoboAds warm(s.bank, s.x0, s.p0, s.config);
  Footprint fp;
  const auto detector = measure(fp, [&] {
    return std::make_unique<core::RoboAds>(s.bank, s.x0, s.p0, s.config);
  });
  ASSERT_NE(detector, nullptr);
  EXPECT_EQ(&detector->bank(), s.bank.get());
  EXPECT_LE(fp.bytes, 3 * 1024) << fp.allocations << " allocations";

  // A detector owning its bank pays for the estimators again.
  Footprint owning;
  const auto alone = measure(owning, [&] {
    return std::make_unique<core::RoboAds>(*s.model, *s.suite, *s.process_cov,
                                           s.x0, s.p0, s.config, s.modes);
  });
  EXPECT_GT(owning.bytes, fp.bytes + 10 * 1024);
}

TEST(EstimatorBank, StageTimersRecordOnlyIntoTheSteppingEngine) {
  const Khepera k;
  const fleet::SessionSpec& s = *k.spec;
  ASSERT_EQ(s.config.engine.instruments.metrics, nullptr);
  obs::MetricsRegistry metrics;
  core::EngineConfig instrumented = s.config.engine;
  instrumented.instruments.metrics = &metrics;
  core::MultiModeEngine timed(s.bank, s.x0, s.p0, instrumented);
  core::MultiModeEngine plain(s.bank, s.x0, s.p0, s.config.engine);

  // A robot standing still with exact readings: every mode runs its full
  // healthy step, so each stage records once per mode and step.
  const Vector u(k.platform.model().input_dim());
  const Vector z = s.suite->measure(s.suite->all(), s.x0);
  constexpr std::size_t kSteps = 7;
  for (std::size_t i = 0; i < kSteps; ++i) {
    timed.step(u, z);
    plain.step(u, z);
    plain.step(u, z);
  }
  const std::size_t want = kSteps * s.bank->modes().size();
  for (const char* name :
       {"nuise.input_estimation_ns", "nuise.predict_ns", "nuise.correct_ns",
        "nuise.sensor_anomaly_ns", "nuise.likelihood_ns"}) {
    EXPECT_EQ(metrics.histogram(name).count(), want) << name;
  }
  EXPECT_EQ(metrics.histogram("engine.step_ns").count(), kSteps);
}

TEST(EstimatorBank, SharedBankDetectorMatchesAPrivateOne) {
  const Khepera k;
  const fleet::SessionSpec& s = *k.spec;
  core::RoboAds owning(*s.model, *s.suite, *s.process_cov, s.x0, s.p0,
                       s.config, s.modes);
  core::RoboAds shared(s.bank, s.x0, s.p0, s.config);

  const sensors::SensorSuite& suite = *s.suite;
  GaussianSampler noise(suite.noise_covariance(suite.all()));
  Rng rng(17);
  Vector x = s.x0;
  const Vector u{0.04, 0.05};
  std::size_t alarms = 0;
  for (int i = 0; i < 60; ++i) {
    x = s.model->step(x, u);
    Vector z = suite.measure(suite.all(), x) + noise.sample(rng);
    if (i >= 30) z[0] += 0.05;  // a biased first sensor: alarms fire
    const core::DetectionReport report = shared.step(u, z);
    const std::string diff = fleet::compare_reports(owning.step(u, z), report);
    ASSERT_TRUE(diff.empty()) << "step " << i << ": " << diff;
    if (report.decision.sensor_alarm) ++alarms;
  }
  EXPECT_GT(alarms, 0u);
}

TEST(EstimatorBank, RejectsMissingAndMismatchedBanks) {
  const Khepera k;
  const fleet::SessionSpec& s = *k.spec;

  // An engine needs estimators; a decision maker needs tables at its own
  // confidence levels.
  const auto tables_only = std::make_shared<const core::EstimatorBank>(
      *s.suite, s.config.decision);
  EXPECT_THROW(core::MultiModeEngine(tables_only, s.x0, s.p0), CheckError);
  EXPECT_THROW(core::MultiModeEngine(nullptr, s.x0, s.p0), CheckError);
  core::DecisionConfig other = s.config.decision;
  other.sensor_alpha = 0.01;
  EXPECT_THROW(core::DecisionMaker(s.bank, other), CheckError);
  EXPECT_NO_THROW(core::DecisionMaker(s.bank, s.config.decision));

  // A session spec must carry a bank built for its own suite.
  auto bankless = std::make_shared<fleet::SessionSpec>(s);
  bankless->bank = nullptr;
  EXPECT_THROW(fleet::DetectorSession{bankless}, CheckError);
  const sensors::SensorSuite other_suite(s.suite->sensors());
  auto foreign = std::make_shared<fleet::SessionSpec>(s);
  foreign->bank = core::make_bank(*s.model, other_suite, *s.process_cov,
                                  s.config, s.modes);
  EXPECT_THROW(fleet::DetectorSession{foreign}, CheckError);
}

}  // namespace
}  // namespace roboads

#include <gtest/gtest.h>

#include "sensors/standard_sensors.h"
#include "sim/faults.h"

namespace roboads::sim {
namespace {

sensors::SensorSuite khepera_suite() {
  return sensors::SensorSuite({
      sensors::make_wheel_odometry(3, 0.01, 0.02),
      sensors::make_ips(3, 0.005, 0.01),
      sensors::make_lidar_nav(3, 2.0, 0.03, 0.03),
  });
}

// Distinct, recognizable stacked readings per iteration.
Vector reading_at(const sensors::SensorSuite& suite, std::size_t k) {
  Vector z(suite.total_dim());
  for (std::size_t j = 0; j < z.size(); ++j) {
    z[j] = static_cast<double>(k) + 0.01 * static_cast<double>(j);
  }
  return z;
}

TEST(TransportFaultConfig, ActiveOnlyWhenAFaultCanFire) {
  TransportFaultConfig config;
  EXPECT_FALSE(config.active());
  config.sensors.push_back({"ips"});  // all-zero rates
  EXPECT_FALSE(config.active());
  config.sensors.push_back({"lidar", 0.1});
  EXPECT_TRUE(config.active());
}

TEST(TransportFaultModel, InactiveConfigDeliversEverythingUntouched) {
  const sensors::SensorSuite suite = khepera_suite();
  TransportFaultModel model(suite, {});
  EXPECT_FALSE(model.active());
  for (std::size_t k = 0; k < 5; ++k) {
    const Vector z = reading_at(suite, k);
    const BusDelivery d = model.deliver(k, z);
    EXPECT_EQ(d.z, z);
    EXPECT_TRUE(d.available.complete());
    EXPECT_EQ(d.dropped + d.stale + d.duplicated + d.frozen, 0u);
  }
  EXPECT_EQ(model.total_dropped(), 0u);
}

TEST(TransportFaultModel, RejectsInvalidSpecs) {
  const sensors::SensorSuite suite = khepera_suite();
  EXPECT_THROW(
      TransportFaultModel(suite, TransportFaultConfig::single({"gps", 0.1})),
      CheckError);  // unknown sensor
  EXPECT_THROW(TransportFaultModel(
                   suite, TransportFaultConfig::single({"ips", -0.1})),
               CheckError);
  EXPECT_THROW(TransportFaultModel(suite, TransportFaultConfig::single(
                                              {"ips", 0.5, 0.4, 0.2})),
               CheckError);  // rates sum past 1
  SensorFaultSpec freeze_without_start{"ips"};
  freeze_without_start.freeze_duration = 5;
  EXPECT_THROW(TransportFaultModel(
                   suite, TransportFaultConfig::single(freeze_without_start)),
               CheckError);
  // deliver() rejects a mis-sized stacked vector.
  TransportFaultModel model(suite, {});
  EXPECT_THROW(model.deliver(0, Vector(3)), CheckError);
}

TEST(TransportFaultModel, DropMarksUnavailableAndHoldsLastArrivedFrame) {
  const sensors::SensorSuite suite = khepera_suite();
  const std::size_t ips = suite.index_of("ips");
  const std::size_t off = suite.offset(ips);
  const std::size_t dim = suite.sensor(ips).dim();
  TransportFaultModel model(suite,
                            TransportFaultConfig::single({"ips", 0.5}, 99));

  Vector last_arrived;
  std::size_t drops = 0;
  for (std::size_t k = 0; k < 200; ++k) {
    const Vector z = reading_at(suite, k);
    const BusDelivery d = model.deliver(k, z);
    const Vector block = d.z.segment(off, dim);
    if (d.available.available(ips)) {
      EXPECT_EQ(block, z.segment(off, dim));
      last_arrived = block;
    } else {
      ++drops;
      // The placeholder payload is the last frame that did arrive (or the
      // current reading when nothing ever arrived).
      EXPECT_EQ(block, last_arrived.empty() ? z.segment(off, dim)
                                            : last_arrived);
    }
    // Other sensors are untouched.
    for (std::size_t i = 0; i < suite.count(); ++i) {
      if (i == ips) continue;
      EXPECT_TRUE(d.available.available(i));
      EXPECT_EQ(d.z.segment(suite.offset(i), suite.sensor(i).dim()),
                z.segment(suite.offset(i), suite.sensor(i).dim()));
    }
  }
  // A 50% drop rate over 200 iterations fires a healthy number of times.
  EXPECT_GT(drops, 50u);
  EXPECT_LT(drops, 150u);
  EXPECT_EQ(model.total_dropped(), drops);
}

TEST(TransportFaultModel, StaleDeliversPreviousReadingAsAvailable) {
  const sensors::SensorSuite suite = khepera_suite();
  const std::size_t ips = suite.index_of("ips");
  const std::size_t off = suite.offset(ips);
  const std::size_t dim = suite.sensor(ips).dim();
  SensorFaultSpec spec{"ips"};
  spec.stale_rate = 1.0;
  TransportFaultModel model(suite, TransportFaultConfig::single(spec));

  for (std::size_t k = 0; k < 10; ++k) {
    const Vector z = reading_at(suite, k);
    const BusDelivery d = model.deliver(k, z);
    // A late frame still arrives: the consumer cannot tell, so the sensor
    // counts as available — only the payload is one period old.
    EXPECT_TRUE(d.available.available(ips));
    const Vector expected =
        k == 0 ? z.segment(off, dim) : reading_at(suite, k - 1).segment(off, dim);
    EXPECT_EQ(d.z.segment(off, dim), expected);
  }
  EXPECT_EQ(model.total_stale(), 10u);
  EXPECT_EQ(model.total_dropped(), 0u);
}

TEST(TransportFaultModel, FreezeRedeliversLastPreFreezeFrame) {
  const sensors::SensorSuite suite = khepera_suite();
  const std::size_t lidar = suite.index_of("lidar");
  const std::size_t off = suite.offset(lidar);
  const std::size_t dim = suite.sensor(lidar).dim();
  SensorFaultSpec spec{"lidar"};
  spec.freeze_at = 5;
  spec.freeze_duration = 3;
  TransportFaultModel model(suite, TransportFaultConfig::single(spec));

  const Vector pre_freeze = reading_at(suite, 4).segment(off, dim);
  for (std::size_t k = 0; k < 12; ++k) {
    const Vector z = reading_at(suite, k);
    const BusDelivery d = model.deliver(k, z);
    EXPECT_TRUE(d.available.available(lidar));
    if (k >= 5 && k < 8) {
      EXPECT_EQ(d.z.segment(off, dim), pre_freeze) << "k=" << k;
      EXPECT_EQ(d.frozen, 1u);
    } else {
      EXPECT_EQ(d.z.segment(off, dim), z.segment(off, dim)) << "k=" << k;
      EXPECT_EQ(d.frozen, 0u);
    }
  }
  EXPECT_EQ(model.total_frozen(), 3u);
}

TEST(TransportFaultModel, DeterministicPerSeedAndAcrossReset) {
  const sensors::SensorSuite suite = khepera_suite();
  SensorFaultSpec spec{"wheel_encoder", 0.2, 0.2, 0.1};
  TransportFaultModel a(suite, TransportFaultConfig::single(spec, 1234));
  TransportFaultModel b(suite, TransportFaultConfig::single(spec, 1234));

  std::vector<BusDelivery> first_run;
  for (std::size_t k = 0; k < 100; ++k) {
    const Vector z = reading_at(suite, k);
    const BusDelivery da = a.deliver(k, z);
    const BusDelivery db = b.deliver(k, z);
    EXPECT_EQ(da.z, db.z);
    EXPECT_EQ(da.available, db.available);
    first_run.push_back(da);
  }
  // reset() replays the identical fault pattern.
  a.reset();
  EXPECT_EQ(a.total_dropped(), 0u);
  for (std::size_t k = 0; k < 100; ++k) {
    const BusDelivery d = a.deliver(k, reading_at(suite, k));
    EXPECT_EQ(d.z, first_run[k].z);
    EXPECT_EQ(d.available, first_run[k].available);
  }
}

TEST(TransportFaultModel, PerSensorStreamsAreIndependent) {
  // Adding a spec for a second sensor must not change the first sensor's
  // fault pattern: each sensor draws from its own split stream.
  const sensors::SensorSuite suite = khepera_suite();
  const std::size_t ips = suite.index_of("ips");
  TransportFaultModel solo(suite,
                           TransportFaultConfig::single({"ips", 0.3}, 7));
  TransportFaultConfig both = TransportFaultConfig::single({"ips", 0.3}, 7);
  both.sensors.push_back({"wheel_encoder", 0.5});
  TransportFaultModel pair(suite, both);

  for (std::size_t k = 0; k < 100; ++k) {
    const Vector z = reading_at(suite, k);
    const BusDelivery ds = solo.deliver(k, z);
    const BusDelivery dp = pair.deliver(k, z);
    EXPECT_EQ(ds.available.available(ips), dp.available.available(ips))
        << "k=" << k;
  }
}

}  // namespace
}  // namespace roboads::sim

#include <gtest/gtest.h>

#include "attacks/scenario.h"
#include "sensors/standard_sensors.h"

namespace roboads::attacks {
namespace {

TEST(Window, ContainsHalfOpen) {
  Window w{5, 10};
  EXPECT_FALSE(w.contains(4));
  EXPECT_TRUE(w.contains(5));
  EXPECT_TRUE(w.contains(9));
  EXPECT_FALSE(w.contains(10));
}

TEST(BiasInjector, AddsOffsetOnlyWhenActive) {
  BiasInjector inj(Window{2, 4}, Vector{1.0, -1.0});
  Vector data{10.0, 10.0};
  inj.apply(1, data);
  EXPECT_EQ(data, (Vector{10.0, 10.0}));
  inj.apply(2, data);
  EXPECT_EQ(data, (Vector{11.0, 9.0}));
  inj.apply(4, data);
  EXPECT_EQ(data, (Vector{11.0, 9.0}));
  EXPECT_THROW(BiasInjector(Window{3, 3}, Vector{1.0}), CheckError);
  EXPECT_THROW(BiasInjector(Window{0, 1}, Vector{}), CheckError);
}

TEST(ReplaceInjector, MaskedReplacement) {
  ReplaceInjector inj(Window{0, 10}, std::vector<bool>{true, false},
                      Vector{0.0, 99.0});
  Vector data{5.0, 5.0};
  inj.apply(0, data);
  EXPECT_EQ(data, (Vector{0.0, 5.0}));  // only the masked component
  EXPECT_THROW(
      ReplaceInjector(Window{0, 1}, std::vector<bool>{true}, Vector{1.0, 2.0}),
      CheckError);
}

TEST(ReplaceInjector, FullReplacementConvenience) {
  ReplaceInjector inj(Window{0, 10}, 3, 0.0);
  Vector data{1.0, 2.0, 3.0};
  inj.apply(0, data);
  EXPECT_EQ(data, (Vector{0.0, 0.0, 0.0}));
  Vector wrong(2);
  EXPECT_THROW(inj.apply(1, wrong), CheckError);
}

TEST(ScaleInjector, Scales) {
  ScaleInjector inj(Window{0, 10}, Vector{2.0, 0.5});
  Vector data{4.0, 4.0};
  inj.apply(0, data);
  EXPECT_EQ(data, (Vector{8.0, 2.0}));
}

TEST(StuckAtInjector, HoldsLastCleanValue) {
  StuckAtInjector inj(Window{3, 6});
  Vector data{1.0};
  inj.apply(1, data);  // observes 1.0
  data = Vector{2.0};
  inj.apply(2, data);  // observes 2.0
  data = Vector{3.0};
  inj.apply(3, data);
  EXPECT_EQ(data, (Vector{2.0}));  // held at last clean value
  data = Vector{4.0};
  inj.apply(4, data);
  EXPECT_EQ(data, (Vector{2.0}));
  data = Vector{5.0};
  inj.apply(6, data);  // window over
  EXPECT_EQ(data, (Vector{5.0}));
}

TEST(StuckAtInjector, ActiveFromStartHoldsFirstValue) {
  StuckAtInjector inj(Window{0, 5});
  Vector data{7.0};
  inj.apply(0, data);
  EXPECT_EQ(data, (Vector{7.0}));
  data = Vector{9.0};
  inj.apply(1, data);
  EXPECT_EQ(data, (Vector{7.0}));
}

TEST(RampInjector, GrowsLinearlyFromTrigger) {
  RampInjector inj(Window{10, 100}, Vector{0.01});
  Vector data{0.0};
  inj.apply(10, data);
  EXPECT_NEAR(data[0], 0.0, 1e-12);
  data = Vector{0.0};
  inj.apply(15, data);
  EXPECT_NEAR(data[0], 0.05, 1e-12);
}

sensors::SensorSuite suite() {
  return sensors::SensorSuite({
      sensors::make_wheel_odometry(3, 0.01, 0.02),
      sensors::make_ips(3, 0.005, 0.01),
      sensors::make_lidar_nav(3, 2.0, 0.03, 0.03),
  });
}

Scenario two_phase_scenario() {
  return Scenario(
      "test", "wheel encoder then ips",
      {{InjectionPoint::kSensorOutput, "wheel_encoder",
        std::make_shared<BiasInjector>(Window{10, 100}, Vector{0.1, 0.0, 0.0})},
       {InjectionPoint::kSensorOutput, "ips",
        std::make_shared<BiasInjector>(Window{20, 50}, Vector{0.1, 0.0, 0.0})},
       {InjectionPoint::kActuatorCommand, "wheels",
        std::make_shared<BiasInjector>(Window{30, 100}, Vector{0.01, 0.0})}});
}

TEST(Scenario, TruthTimeline) {
  const sensors::SensorSuite s = suite();
  const Scenario sc = two_phase_scenario();

  EXPECT_TRUE(sc.truth_at(5, s).clean());
  EXPECT_EQ(sc.truth_at(15, s).corrupted_sensors,
            (std::vector<std::size_t>{0}));
  EXPECT_FALSE(sc.truth_at(15, s).actuator_corrupted);
  EXPECT_EQ(sc.truth_at(25, s).corrupted_sensors,
            (std::vector<std::size_t>{0, 1}));
  EXPECT_TRUE(sc.truth_at(35, s).actuator_corrupted);
  // IPS attack window ends at 50.
  EXPECT_EQ(sc.truth_at(60, s).corrupted_sensors,
            (std::vector<std::size_t>{0}));
}

TEST(Scenario, TransitionIterations) {
  const sensors::SensorSuite s = suite();
  const Scenario sc = two_phase_scenario();
  EXPECT_EQ(sc.transition_iterations(s, 120),
            (std::vector<std::size_t>{10, 20, 30, 50, 100}));
}

TEST(Scenario, InjectorsForFiltersByPointAndWorkflow) {
  const Scenario sc = two_phase_scenario();
  EXPECT_EQ(sc.injectors_for(InjectionPoint::kSensorOutput, "ips").size(),
            1u);
  EXPECT_EQ(
      sc.injectors_for(InjectionPoint::kSensorOutput, "wheel_encoder").size(),
      1u);
  EXPECT_EQ(sc.injectors_for(InjectionPoint::kSensorOutput, "lidar").size(),
            0u);
  EXPECT_EQ(
      sc.injectors_for(InjectionPoint::kActuatorCommand, "anything").size(),
      1u);
}

TEST(Scenario, RejectsInvalidConstruction) {
  EXPECT_THROW(
      Scenario("bad", "null injector",
               {{InjectionPoint::kSensorOutput, "ips", nullptr}}),
      CheckError);
  EXPECT_THROW(
      Scenario("bad", "missing workflow",
               {{InjectionPoint::kSensorOutput, "",
                 std::make_shared<BiasInjector>(Window{0, 1}, Vector{1.0})}}),
      CheckError);
}

}  // namespace
}  // namespace roboads::attacks

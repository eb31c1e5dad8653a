// Evaluation platform abstraction: everything the mission runner needs to
// fly one robot — dynamics, sensor suite, world, workflows (with a
// scenario's injectors attached), and the mission controller.
#pragma once

#include <memory>

#include "attacks/scenario.h"
#include "core/linear_baseline.h"
#include "core/roboads.h"
#include "dynamics/model.h"
#include "planning/rrt_star.h"
#include "sim/simulator.h"

namespace roboads::eval {

// Generates planned control commands from the latest readings — the paper's
// planner-side control units, which track the RRT* path "using real-time
// positioning data from the IPS" (§V-A). Attacked readings therefore steer
// the real robot, as in the paper's experiments.
class Controller {
 public:
  virtual ~Controller() = default;
  virtual Vector control(const Vector& z_full) = 0;

  // True once the controller believes the mission is complete (goal
  // reached per its own positioning). The mission runner stops here, as the
  // paper's missions do — detection is only meaningful while the robot
  // operates.
  virtual bool finished() const { return false; }

  // Called by the mission runner after each detection iteration; response-
  // capable controllers (eval/recovery.h) consume the report here.
  virtual void observe(const core::DetectionReport& /*report*/) {}
};

class Platform {
 public:
  virtual ~Platform() = default;

  virtual std::string name() const = 0;
  virtual const dyn::DynamicModel& model() const = 0;
  virtual const sensors::SensorSuite& suite() const = 0;
  virtual const sim::World& world() const = 0;
  virtual const Matrix& process_cov() const = 0;
  virtual Vector initial_state() const = 0;
  virtual geom::Vec2 goal() const = 0;
  virtual core::RoboAdsConfig detector_config() const = 0;

  // Body radius used for collision clamping in the ground-truth simulator.
  virtual double robot_radius() const { return 0.06; }

  // Smallest executed-vs-planned command deviation that counts as actuator
  // misbehavior ground truth. Input-dependent corruptions (gain faults,
  // stuck-at during near-zero commands) produce literally no corruption at
  // some iterations; scoring those as missed detections would be wrong.
  // Sized from §V-H's evasive-attack boundary (Khepera: ~0.006 m/s).
  virtual double actuator_significance() const { return 0.005; }

  // Detector mode set; empty means the paper's default one-reference-per-
  // sensor set. Platforms whose dynamics make single-sensor references too
  // weak (see §VI "sensor capabilities") override this with grouped
  // references.
  virtual std::vector<core::Mode> detector_modes() const { return {}; }

  // Fresh sensing workflows with the scenario's sensor-side injectors
  // attached (each run gets its own stateful injector instances via the
  // shared scenario, so runs must not interleave).
  virtual sim::SensingStack make_sensing(
      const attacks::Scenario& scenario) const = 0;

  // Fresh actuation workflow with the scenario's actuator injectors.
  virtual sim::ActuationWorkflow make_actuation(
      const attacks::Scenario& scenario) const = 0;

  // Mission controller tracking an RRT* path planned in this world.
  virtual std::unique_ptr<Controller> make_controller(Rng& rng) const = 0;

  // Human-readable name of the condition (paper Table III: S0..S6, A0/A1)
  // for a set of corrupted sensors.
  virtual std::string condition_name(
      const std::vector<std::size_t>& corrupted_sensors) const;

  // No attacks (for false-positive profiling and Table IV). The attack
  // scenarios themselves are ScenarioSpecs in scenario/library.h.
  static attacks::Scenario clean_scenario();
};

// The platform registry: known platform names, in registry order.
std::vector<std::string> platform_names();

// Builds a fresh default-configured platform by name (a bundle's provenance,
// a spec's platform field); throws CheckError for unknown names.
std::unique_ptr<Platform> make_platform(const std::string& name);

// The detector's side of a mission, decided once for the mission runner,
// bundle replay and the fleet, which must agree bit for bit: the dynamics
// and sensor suite the detector estimates with — the platform's own, or for
// the §V-G linear baseline both linearized once at the initial state (the
// simulation stays nonlinear either way) — and its initial covariance
// p0 = 10⁻⁴·I. Borrows `platform`, which must outlive it.
class DetectorSetup {
 public:
  DetectorSetup(const Platform& platform, bool linear_baseline);

  const dyn::DynamicModel& model() const { return *model_; }
  const sensors::SensorSuite& suite() const { return *suite_; }
  const Matrix& p0() const { return p0_; }

 private:
  std::unique_ptr<core::FrozenLinearModel> frozen_model_;
  std::unique_ptr<sensors::SensorSuite> frozen_suite_;
  const dyn::DynamicModel* model_;
  const sensors::SensorSuite* suite_;
  Matrix p0_;
};

}  // namespace roboads::eval

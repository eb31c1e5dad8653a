// Sensing and actuation workflows (paper Fig. 1).
//
// A sensing workflow owns everything between the physical signal and the
// reading the planner receives: signal capture, digitization, processing,
// encoding. Workflows run isolated from each other (§II-A's modular-design
// assumption), which in this library means each workflow is its own object
// holding its own state and its own attack injectors — corrupting one never
// touches another.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attacks/injector.h"
#include "random/rng.h"
#include "sensors/sensor_model.h"
#include "sim/lidar.h"
#include "sim/world.h"

namespace roboads::sim {

class SensingWorkflow {
 public:
  virtual ~SensingWorkflow() = default;

  // Must equal the matching SensorModel's name in the estimator suite.
  virtual std::string name() const = 0;
  virtual std::size_t dim() const = 0;

  // Produces the reading delivered to the planner for iteration k, given
  // the true robot state — including noise and any active corruption.
  virtual Vector sense(std::size_t k, const Vector& x_true, Rng& rng) = 0;

  // Attaches an injector to the processed output (cyber-channel corruption
  // of the utility process / bus packet).
  void attach_output_injector(attacks::InjectorPtr injector);

  virtual void reset() {}

 protected:
  Vector apply_output_injectors(std::size_t k, Vector reading);

 private:
  std::vector<attacks::InjectorPtr> output_injectors_;
};

// Workflow for sensors whose reading is h(x_true) + noise directly: the IPS
// (Vicon), wheel-encoder odometry pose, and IMU inertial navigation.
class DirectSensingWorkflow final : public SensingWorkflow {
 public:
  explicit DirectSensingWorkflow(sensors::SensorPtr model);

  std::string name() const override { return model_->name(); }
  std::size_t dim() const override { return model_->dim(); }
  Vector sense(std::size_t k, const Vector& x_true, Rng& rng) override;

 private:
  sensors::SensorPtr model_;
  GaussianSampler noise_;
};

// The LiDAR workflow: ray-cast scan → (optional raw-scan corruption) →
// split-and-merge line extraction → wall matching → navigation reading →
// (optional processed-output corruption). Keeps its own pose track as the
// wall-matching hint, isolated from the rest of the system.
class LidarSensingWorkflow final : public SensingWorkflow {
 public:
  // `output_noise_stddev` (4 components, may be empty for none) adds
  // processing noise to the navigation reading so the workflow's total
  // error budget matches the estimator-side measurement model R — the
  // geometric line extraction alone is far less noisy than a real
  // reflectivity-, incidence- and clutter-limited pipeline.
  LidarSensingWorkflow(const World& world, LidarConfig lidar_config,
                       ScanProcessorConfig processor_config,
                       const Vector& initial_pose,
                       const Vector& output_noise_stddev = Vector());

  std::string name() const override { return "lidar"; }
  std::size_t dim() const override { return 4; }
  Vector sense(std::size_t k, const Vector& x_true, Rng& rng) override;

  void attach_raw_injector(attacks::InjectorPtr injector);
  void reset() override;

  const LidarScanner& scanner() const { return scanner_; }

 private:
  const World& world_;
  LidarScanner scanner_;
  ScanProcessor processor_;
  std::vector<attacks::InjectorPtr> raw_injectors_;
  Vector ranges_;  // the latest scan, its storage reused every iteration
  Vector initial_pose_;
  Vector hint_pose_;  // the workflow's private track
  std::optional<GaussianSampler> output_noise_;
};

// The actuation workflow: planned commands in, executed commands out.
// Injectors here realize actuator misbehaviors (logic bombs, jamming).
class ActuationWorkflow {
 public:
  explicit ActuationWorkflow(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void attach_injector(attacks::InjectorPtr injector);

  // Executed command for iteration k (u + dᵃ in the paper's model).
  Vector execute(std::size_t k, const Vector& planned);

 private:
  std::string name_;
  std::vector<attacks::InjectorPtr> injectors_;
};

}  // namespace roboads::sim

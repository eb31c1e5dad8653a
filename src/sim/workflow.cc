#include "sim/workflow.h"

namespace roboads::sim {

void SensingWorkflow::attach_output_injector(attacks::InjectorPtr injector) {
  ROBOADS_CHECK(injector != nullptr, "null injector");
  output_injectors_.push_back(std::move(injector));
}

Vector SensingWorkflow::apply_output_injectors(std::size_t k,
                                               Vector reading) {
  for (const attacks::InjectorPtr& inj : output_injectors_) {
    inj->apply(k, reading);
  }
  return reading;
}

DirectSensingWorkflow::DirectSensingWorkflow(sensors::SensorPtr model)
    : model_(std::move(model)), noise_([&] {
        ROBOADS_CHECK(model_ != nullptr, "null sensor model");
        return model_->noise_covariance();
      }()) {}

Vector DirectSensingWorkflow::sense(std::size_t k, const Vector& x_true,
                                    Rng& rng) {
  Vector reading = model_->measure(x_true) + noise_.sample(rng);
  return apply_output_injectors(k, std::move(reading));
}

LidarSensingWorkflow::LidarSensingWorkflow(const World& world,
                                           LidarConfig lidar_config,
                                           ScanProcessorConfig processor_config,
                                           const Vector& initial_pose,
                                           const Vector& output_noise_stddev)
    : world_(world),
      scanner_(lidar_config),
      processor_(processor_config, world.width(), world.height(),
                 world.obstacles()),
      initial_pose_(initial_pose),
      hint_pose_(initial_pose) {
  ROBOADS_CHECK(initial_pose.size() >= 3, "initial pose needs (x, y, θ)");
  if (!output_noise_stddev.empty()) {
    ROBOADS_CHECK_EQ(output_noise_stddev.size(), std::size_t{4},
                     "lidar output noise needs 4 components");
    Vector var(4);
    for (std::size_t i = 0; i < 4; ++i)
      var[i] = output_noise_stddev[i] * output_noise_stddev[i];
    output_noise_.emplace(Matrix::diagonal(var));
  }
}

void LidarSensingWorkflow::attach_raw_injector(attacks::InjectorPtr injector) {
  ROBOADS_CHECK(injector != nullptr, "null injector");
  raw_injectors_.push_back(std::move(injector));
}

void LidarSensingWorkflow::reset() { hint_pose_ = initial_pose_; }

Vector LidarSensingWorkflow::sense(std::size_t k, const Vector& x_true,
                                   Rng& rng) {
  scanner_.scan(world_, x_true, rng, ranges_);
  for (const attacks::InjectorPtr& inj : raw_injectors_) {
    inj->apply(k, ranges_);
  }
  const ProcessedScan processed =
      processor_.process(scanner_, ranges_, hint_pose_);
  if (processed.any_wall_matched) {
    // Advance the private track from the workflow's own output: west and
    // south distances are x and y, θ from the wall fit.
    hint_pose_ = Vector{processed.reading[0], processed.reading[1],
                        processed.reading[3]};
  }
  Vector reading = processed.reading;
  if (output_noise_ && processed.any_wall_matched) {
    reading += output_noise_->sample(rng);
  }
  return apply_output_injectors(k, std::move(reading));
}

void ActuationWorkflow::attach_injector(attacks::InjectorPtr injector) {
  ROBOADS_CHECK(injector != nullptr, "null injector");
  injectors_.push_back(std::move(injector));
}

Vector ActuationWorkflow::execute(std::size_t k, const Vector& planned) {
  Vector executed = planned;
  for (const attacks::InjectorPtr& inj : injectors_) {
    inj->apply(k, executed);
  }
  return executed;
}

}  // namespace roboads::sim

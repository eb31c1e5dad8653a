#include "eval/mission.h"

#include "eval/recovery.h"
#include "obs/timer.h"
#include "obs/trace.h"

namespace roboads::eval {

MissionResult run_mission(const Platform& platform,
                          const attacks::Scenario& scenario,
                          const MissionConfig& config) {
  Rng rng(config.seed);
  const dyn::DynamicModel& model = platform.model();
  const sensors::SensorSuite& suite = platform.suite();

  sim::SensingStack sensing = platform.make_sensing(scenario);
  sim::ActuationWorkflow actuation = platform.make_actuation(scenario);
  sim::RobotSimulator simulator(model, platform.process_cov(),
                                platform.initial_state(), &platform.world(),
                                platform.robot_radius());
  std::unique_ptr<Controller> controller = platform.make_controller(rng);
  if (config.resilient_control) {
    controller = std::make_unique<ResilientController>(std::move(controller),
                                                       suite);
  }

  core::RoboAdsConfig detector_config =
      config.detector_override.value_or(platform.detector_config());
  // Thread the mission's observability handles into the detector so engine
  // timers and trace events land in the same registry/sink as the mission's
  // own records. Mission-level handles win over any the override carried.
  if (config.instruments.enabled()) {
    detector_config.engine.instruments = config.instruments;
    detector_config.engine.obs_label = config.obs_label;
  }
  obs::Histogram* h_iteration = nullptr;
  if (obs::MetricsRegistry* metrics = config.instruments.metrics) {
    h_iteration = &metrics->histogram("mission.iteration_ns",
                                      obs::default_latency_bounds_ns());
  }
  obs::TraceSink* trace = config.instruments.trace;
  if (trace != nullptr) {
    trace->emit(obs::TraceEvent("mission_start", config.obs_label, 0)
                    .add("scenario", scenario.name())
                    .add("seed", static_cast<std::int64_t>(config.seed))
                    .add("iterations",
                         static_cast<std::int64_t>(config.iterations)));
  }
  const DetectorSetup setup(platform, config.linear_baseline);
  const dyn::DynamicModel& detector_model = setup.model();
  const sensors::SensorSuite& detector_suite = setup.suite();
  core::RoboAds detector(detector_model, detector_suite,
                         platform.process_cov(), platform.initial_state(),
                         setup.p0(), detector_config,
                         platform.detector_modes());

  // Flight recorder: open this mission's timeline with full provenance so
  // any bundle frozen later is self-describing — eval/replay.h rebuilds the
  // detector from these fields alone. Missions flown one after another may
  // share a recorder; each begin_mission opens a new timeline.
  obs::FlightRecorder* const recorder = config.instruments.recorder;
  if (recorder != nullptr) {
    obs::BundleProvenance prov;
    prov.label = config.obs_label;
    prov.platform = platform.name();
    prov.scenario = scenario.name();
    prov.description = scenario.description();
    prov.seed = static_cast<std::int64_t>(config.seed);
    prov.iterations = static_cast<std::int64_t>(config.iterations);
    prov.dt = model.dt();
    prov.linear_baseline = config.linear_baseline;
    prov.likelihood_floor = detector_config.engine.likelihood_floor;
    prov.health_enabled = detector_config.engine.health.enabled;
    prov.sensor_alpha = detector_config.decision.sensor_alpha;
    prov.actuator_alpha = detector_config.decision.actuator_alpha;
    prov.sensor_window = static_cast<std::int64_t>(
        detector_config.decision.sensor_window.window);
    prov.sensor_criteria = static_cast<std::int64_t>(
        detector_config.decision.sensor_window.criteria);
    prov.actuator_window = static_cast<std::int64_t>(
        detector_config.decision.actuator_window.window);
    prov.actuator_criteria = static_cast<std::int64_t>(
        detector_config.decision.actuator_window.criteria);
    for (const core::Mode& m : detector.modes()) {
      if (!prov.modes.empty()) prov.modes += ';';
      prov.modes += m.label;
    }
    for (std::size_t s = 0; s < detector_suite.count(); ++s) {
      if (!prov.sensors.empty()) prov.sensors += ';';
      prov.sensors += detector_suite.sensor(s).name();
      prov.sensor_dims.push_back(
          static_cast<std::int64_t>(detector_suite.sensor(s).dim()));
    }
    prov.state_dim = static_cast<std::int64_t>(detector_model.state_dim());
    prov.input_dim = static_cast<std::int64_t>(detector_model.input_dim());
    recorder->begin_mission(std::move(prov));
  }

  // Transport faults sit between the sensing workflows and every reading
  // consumer (planner *and* detector read the same bus). An inactive config
  // never touches the readings or draws from an Rng, so the default mission
  // is bit-identical to the pre-fault-layer runner.
  sim::TransportFaultModel faults(suite, config.transport_faults);
  const bool faults_active = faults.active();

  MissionResult result;
  result.dt = model.dt();
  result.records.reserve(config.iterations);

  // Initial readings before the first command (k = 0 is attack-free in all
  // bundled scenarios; the controller needs a pose to start from).
  Vector z = sensing.sense_all(0, simulator.state(), rng);
  core::SensorMask mask;  // every sensor delivered
  if (faults_active) {
    sim::BusDelivery delivery = faults.deliver(0, z);
    z = std::move(delivery.z);
    mask = delivery.available;
  }

  for (std::size_t k = 1; k <= config.iterations; ++k) {
    const obs::ScopedTimer iteration_timer(h_iteration);
    // Filled in place (a record is ≈7 KB). An iteration that throws leaves
    // it half filled, but the throw also discards `result`.
    IterationRecord& rec = result.records.emplace_back();
    rec.k = k;
    try {
      rec.u_planned = controller->control(z);
      rec.u_executed = actuation.execute(k, rec.u_planned);
      simulator.step(rec.u_executed, rng);
      rec.x_true = simulator.state();
      rec.collided = simulator.collided();
      z = sensing.sense_all(k, simulator.state(), rng);
      if (faults_active) {
        sim::BusDelivery delivery = faults.deliver(k, z);
        z = std::move(delivery.z);
        mask = delivery.available;
      }
      rec.z = z;
      rec.sensor_available = mask;
      detector.step_into(rec.u_planned, z, mask, rec.report);
      controller->observe(rec.report);
    } catch (const MissionError&) {
      throw;
    } catch (const std::exception& e) {
      throw MissionError(k, e.what());
    }
    rec.truth = scenario.truth_at(k, suite);
    if (rec.truth.actuator_corrupted &&
        (rec.u_executed - rec.u_planned).norm_inf() <
            platform.actuator_significance()) {
      rec.truth.actuator_corrupted = false;
    }
    if (rec.collided) rec.truth.actuator_corrupted = true;
    if (recorder != nullptr) {
      std::string truth_sensors(suite.count(), '0');
      for (std::size_t s : rec.truth.corrupted_sensors) {
        if (s < truth_sensors.size()) truth_sensors[s] = '1';
      }
      recorder->annotate_truth(static_cast<std::int64_t>(k), truth_sensors,
                               rec.truth.actuator_corrupted);
    }
    if (controller->finished()) break;
  }
  result.frames_dropped = faults.total_dropped();
  result.frames_stale = faults.total_stale();
  result.frames_duplicated = faults.total_duplicated();
  result.frames_frozen = faults.total_frozen();

  const Vector final_state = simulator.state();
  result.goal_reached =
      geom::distance({final_state[0], final_state[1]}, platform.goal()) < 0.2;
  if (obs::MetricsRegistry* metrics = config.instruments.metrics) {
    metrics->counter("mission.iterations").increment(result.records.size());
    metrics->counter("mission.frames_dropped")
        .increment(result.frames_dropped);
    metrics->counter("mission.frames_stale").increment(result.frames_stale);
    metrics->counter("mission.frames_duplicated")
        .increment(result.frames_duplicated);
    metrics->counter("mission.frames_frozen").increment(result.frames_frozen);
  }
  if (trace != nullptr) {
    trace->emit(
        obs::TraceEvent("mission_end", config.obs_label,
                        result.records.size())
            .add("goal_reached", result.goal_reached)
            .add("iterations_run",
                 static_cast<std::int64_t>(result.records.size()))
            .add("frames_dropped",
                 static_cast<std::int64_t>(result.frames_dropped))
            .add("frames_stale", static_cast<std::int64_t>(result.frames_stale))
            .add("frames_duplicated",
                 static_cast<std::int64_t>(result.frames_duplicated))
            .add("frames_frozen",
                 static_cast<std::int64_t>(result.frames_frozen)));
  }
  return result;
}

}  // namespace roboads::eval

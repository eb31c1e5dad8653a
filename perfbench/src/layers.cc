#include "layers.h"

#include "core/decision.h"
#include "core/engine.h"
#include "core/roboads.h"
#include "fleet/replay.h"
#include "fleet/service.h"
#include "fleet/session.h"
#include "matrix/decomp.h"
#include "scenario/library.h"

namespace perfbench {
namespace {

using roboads::Matrix;
using roboads::Rng;
using roboads::Vector;
namespace core = roboads::core;
namespace fleet = roboads::fleet;

// Kernel calls per timed batch: single calls take tens of ns, close to the
// clock's own cost.
constexpr int kKernelBatch = 32;

double us(double ns) { return ns * 1e-3; }
double ms(double ns) { return ns * 1e-6; }

// Keeps kernel results observable so the timed calls cannot be elided.
volatile double g_sink = 0.0;

}  // namespace

std::string scenario_name(std::size_t number) {
  return number == 0 ? "clean" : scenario::khepera_table2_spec(number).name;
}

attacks::Scenario compile_named(const std::string& name,
                                const eval::Platform& platform,
                                const scenario::PlatformTraits& traits) {
  const bool clean = name == "clean";
  const std::string lookup = clean ? scenario_name(1) : name;
  for (scenario::ScenarioSpec& spec : scenario::all_library_specs()) {
    if (spec.name != lookup) continue;
    if (clean) {
      spec.attacks.clear();
      spec.name = name;
    }
    return scenario::compile_spec(spec, platform, traits);
  }
  throw std::runtime_error("unknown library scenario \"" + name + "\"");
}

eval::MissionResult fly(const std::string& name, std::uint64_t seed,
                        std::size_t iterations, const eval::Platform& platform,
                        const scenario::PlatformTraits& traits,
                        LayerSamples* layers, Tracer& tracer,
                        std::uint32_t parent, RequestId request,
                        eval::ScenarioScore* score) {
  Timed compile(tracer, "scenario.compile", parent, request);
  const attacks::Scenario compiled = compile_named(name, platform, traits);
  const double compile_ns = compile.stop();

  eval::MissionConfig config;
  config.iterations = iterations;
  config.seed = seed;
  if (layers == nullptr) {
    eval::MissionResult result = eval::run_mission(platform, compiled, config);
    if (score != nullptr) *score = eval::score_mission(result, platform);
    return result;
  }
  layers->compile_us.add(us(compile_ns));

  {
    Rng rng(seed);
    Timed plan(tracer, "planning.make_controller", parent, request);
    const auto controller = platform.make_controller(rng);
    layers->plan_ms.add(ms(plan.stop()));
  }

  Timed mission(tracer, "eval.run_mission", parent, request);
  eval::MissionResult result = eval::run_mission(platform, compiled, config);
  layers->mission_ms.add(ms(mission.stop()));

  Timed scoring(tracer, "eval.score_mission", parent, request);
  const eval::ScenarioScore s = eval::score_mission(result, platform);
  layers->score_us.add(us(scoring.stop()));
  if (score != nullptr) *score = s;

  // Sensing replay: the scenario's injectors are stateful, so a fresh
  // compile feeds a fresh stack.
  const attacks::Scenario fresh = compile_named(name, platform, traits);
  roboads::sim::SensingStack sensing = platform.make_sensing(fresh);
  Rng rng(seed);
  Timed first(tracer, "sim.sense_all", parent, request);
  sensing.sense_all(0, platform.initial_state(), rng);
  layers->sense_us.add(us(first.stop()));
  for (const eval::IterationRecord& rec : result.records) {
    Timed sense(tracer, "sim.sense_all", parent, request);
    sensing.sense_all(rec.k, rec.x_true, rng);
    layers->sense_us.add(us(sense.stop()));
  }
  return result;
}

void replay_core(const eval::Platform& platform,
                 const eval::MissionResult& mission, LayerSamples& out,
                 Tracer& tracer, std::uint32_t parent, RequestId request) {
  const auto spec = fleet::make_session_spec(platform);
  const roboads::dyn::DynamicModel& model = *spec->model;
  const roboads::sensors::SensorSuite& suite = *spec->suite;
  const Matrix& q = *spec->process_cov;
  const std::vector<core::Mode> modes =
      spec->modes.empty() ? core::one_reference_per_sensor(suite)
                          : spec->modes;

  core::RoboAds detector(model, suite, q, spec->x0, spec->p0, spec->config,
                         spec->modes);
  core::MultiModeEngine engine(model, suite, modes, q, spec->x0, spec->p0,
                               spec->config.engine);
  std::vector<core::Nuise> estimators;
  for (const core::Mode& mode : modes) estimators.emplace_back(model, suite, mode, q);
  core::DecisionMaker decision(suite, spec->config.decision);

  for (const eval::IterationRecord& rec : mission.records) {
    Timed step(tracer, "core.RoboAds::step", parent, request);
    const std::uint64_t allocs_before = thread_allocations();
    const core::DetectionReport report =
        detector.step(rec.u_planned, rec.z, rec.sensor_available);
    out.allocations += thread_allocations() - allocs_before;
    ++out.alloc_steps;
    out.detector_step_us.add(us(step.stop()));
    if (!fleet::compare_reports(report, rec.report).empty()) {
      ++out.replay_mismatches;
    }

    const Vector x_prev = engine.state();
    const Matrix p_prev = engine.state_cov();
    Timed engine_step(tracer, "core.MultiModeEngine::step", parent, request);
    const core::EngineResult er =
        engine.step(rec.u_planned, rec.z, rec.sensor_available);
    out.engine_step_us.add(us(engine_step.stop()));
    for (const core::Nuise& nuise : estimators) {
      Timed t(tracer, "core.Nuise::step", parent, request);
      const core::NuiseResult r =
          nuise.step(x_prev, p_prev, rec.u_planned, rec.z,
                     rec.sensor_available);
      out.nuise_step_us.add(us(t.stop()));
      g_sink = g_sink + r.log_likelihood;
    }
    if (!er.fallback_previous_estimate) {
      Timed t(tracer, "core.DecisionMaker::evaluate", parent, request);
      const core::Decision d =
          decision.evaluate(modes[er.selected_mode], er.selected());
      out.decision_us.add(us(t.stop()));
      g_sink = g_sink + d.sensor_statistic;
    }

    // Kernels on this step's detector-sized operands: the state Jacobian
    // around the estimated covariance, and the innovation covariance.
    const Matrix a = model.jacobian_state(report.state_estimate, rec.u_planned);
    const Matrix& p = report.state_covariance;
    const Matrix& s = report.selected_result.innovation_cov;
    {
      Timed t(tracer, "matrix.sandwich", parent, request);
      for (int i = 0; i < kKernelBatch; ++i) {
        g_sink = g_sink + roboads::sandwich(a, p)(0, 0);
      }
      out.sandwich_ns.add(t.stop() / kKernelBatch);
    }
    if (s.rows() == 0) continue;
    {
      Timed t(tracer, "matrix.SpdFactor", parent, request);
      for (int i = 0; i < kKernelBatch; ++i) {
        g_sink = g_sink + roboads::SpdFactor(s).log_determinant();
      }
      out.spd_factor_ns.add(t.stop() / kKernelBatch);
    }
    {
      Timed t(tracer, "matrix.SpdEigenFactor", parent, request);
      for (int i = 0; i < kKernelBatch; ++i) {
        g_sink = g_sink +
                 roboads::SpdEigenFactor(s, 1e-10, true).log_pseudo_determinant();
      }
      out.spd_eigen_factor_ns.add(t.stop() / kKernelBatch);
    }
  }
}

void frame_packets(std::vector<fleet::FleetPacket>& out, std::uint64_t robot,
                   const eval::Platform& platform,
                   const eval::IterationRecord& rec, SeededStream* shuffle,
                   double dup_share) {
  out.clear();
  fleet::append_iteration_packets(out, robot, platform.suite(), rec);
  if (shuffle == nullptr) return;
  const std::size_t unique = out.size();
  for (std::size_t i = 0; i < unique; ++i) {
    if (shuffle->unit() < dup_share) out.push_back(out[i]);
  }
  shuffle->shuffle(out);
}

void replay_sessions(const eval::Platform& platform,
                     const eval::MissionResult& mission, std::uint64_t seed,
                     double dup_share, LayerSamples& out, Tracer& tracer,
                     std::uint32_t parent, RequestId request) {
  const auto spec = fleet::make_session_spec(platform);
  std::vector<fleet::FleetPacket> frame;
  for (const bool shuffled : {false, true}) {
    fleet::DetectorSession session(spec);
    session.set_report_sink([&](const core::DetectionReport& report,
                                std::uint64_t) {
      const std::size_t k = report.iteration;
      if (k == 0 || k > mission.records.size() ||
          !fleet::compare_reports(report, mission.records[k - 1].report)
               .empty()) {
        ++out.replay_mismatches;
      }
    });
    SeededStream order(seed);
    Samples& samples = shuffled ? out.ingest_shuffled_us : out.ingest_inorder_us;
    for (const eval::IterationRecord& rec : mission.records) {
      frame_packets(frame, 0, platform, rec, shuffled ? &order : nullptr,
                    dup_share);
      Timed t(tracer,
              shuffled ? "fleet.DetectorSession::ingest.shuffled"
                       : "fleet.DetectorSession::ingest.inorder",
              parent, request);
      for (const fleet::FleetPacket& p : frame) session.ingest(p);
      samples.add(us(t.stop()));
    }
    if (session.counters().steps != mission.records.size()) {
      out.replay_mismatches += 1;
    }
  }
}

void replay_fleet_sync(const eval::Platform& platform,
                       const eval::MissionResult& mission, std::uint64_t seed,
                       double dup_share, FleetSamples& f, LayerSamples& layers,
                       Tracer& tracer, std::uint32_t parent,
                       RequestId request) {
  std::uint64_t report_ns = 0;
  std::uint64_t report_ingest_ns = 0;
  fleet::FleetConfig config;
  config.shards = 1;  // a one-worker pool: pump_once runs on this thread
  config.on_report = [&](std::uint64_t, const core::DetectionReport& report,
                         std::uint64_t ingest_ns) {
    report_ns = now_ns();
    report_ingest_ns = ingest_ns;
    const std::size_t k = report.iteration;
    if (k == 0 || k > mission.records.size() ||
        !fleet::compare_reports(report, mission.records[k - 1].report)
             .empty()) {
      ++layers.replay_mismatches;
    }
  };
  fleet::FleetService service(config);
  service.add_robot(fleet::make_session_spec(platform));

  SeededStream order(seed);
  std::vector<fleet::FleetPacket> frame;
  for (const eval::IterationRecord& rec : mission.records) {
    frame_packets(frame, 0, platform, rec, &order, dup_share);
    const std::size_t packets = frame.size();
    Timed submit(tracer, "fleet.FleetService::submit", parent, request);
    const std::uint64_t start = now_ns();
    for (fleet::FleetPacket& p : frame) service.submit(std::move(p));
    f.submit_ns.add(submit.stop() / static_cast<double>(packets));
    Timed pump(tracer, "fleet.FleetService::pump_once", parent, request);
    service.pump_once();
    pump.stop();
    f.ingest_to_report_us.add(
        static_cast<double>(report_ns - report_ingest_ns) * 1e-3);
    f.latency_ms.add(static_cast<double>(report_ns - start) * 1e-6);
  }
  const fleet::SessionCounters& c = service.session_counters(0);
  f.duplicate_packets += c.duplicate_packets;
  f.late_packets += c.late_packets;
  f.masked_steps += c.masked_steps;
  f.dropped_packets += service.status().dropped_packets;
  for (const fleet::ShardStat& s : service.introspection().shards) {
    f.queue_high_water = std::max(f.queue_high_water, s.queue_high_water);
  }
  if (c.steps != mission.records.size()) ++layers.replay_mismatches;
}

void add_fleet_metrics(const FleetSamples& f, const LayerSamples& layers,
                       Result& r) {
  r.add("fleet.submit_ns", f.submit_ns.median(), "ns");
  const double i2r50 = f.ingest_to_report_us.median();
  r.add("fleet.ingest_to_report_us_p50", i2r50, "us");
  r.add("fleet.ingest_to_report_us_p99", f.ingest_to_report_us.quantile(0.99),
        "us");
  r.detail("fleet.ingest_to_report.samples",
           std::to_string(f.ingest_to_report_us.size()));
  r.add("fleet.queue_wait_us_p50", i2r50 - layers.detector_step_us.median(),
        "us");
  r.add("fleet.queue_high_water", static_cast<double>(f.queue_high_water),
        "count");
  r.add("fleet.duplicate_packets", static_cast<double>(f.duplicate_packets),
        "count");
  r.add("fleet.late_packets", static_cast<double>(f.late_packets), "count");
  r.add("fleet.masked_steps", static_cast<double>(f.masked_steps), "count");
  r.add("fleet.dropped_packets", static_cast<double>(f.dropped_packets),
        "count");
  r.add("fleet.latency_ms_p99", f.latency_ms.quantile(0.99), "ms");
  r.detail("fleet.latency.samples", std::to_string(f.latency_ms.size()));
  r.add("gen.lag_us_p99", f.lag_us.quantile(0.99), "us");
  r.detail("gen.lag.samples", std::to_string(f.lag_us.size()));
}

void add_layer_metrics(const LayerSamples& s, Result& r) {
  const auto counted = [&r](const std::string& name, const Samples& x,
                            double value, const std::string& unit) {
    r.add(name, value, unit);
    r.detail(name + ".samples", std::to_string(x.size()));
  };
  counted("planning.plan_ms", s.plan_ms, s.plan_ms.median(), "ms");
  const double mission_total = s.mission_ms.sum();
  r.add("planning.share",
        mission_total > 0.0 ? s.plan_ms.sum() / mission_total : 0.0, "ratio");
  r.detail("planning.share.plan_ms_total", s.plan_ms.sum());
  r.detail("planning.share.mission_ms_total", mission_total);
  counted("sim.sense_us", s.sense_us, s.sense_us.median(), "us");
  counted("scenario.compile_us", s.compile_us, s.compile_us.median(), "us");
  counted("eval.mission_ms", s.mission_ms, s.mission_ms.median(), "ms");
  counted("eval.score_us", s.score_us, s.score_us.median(), "us");
  counted("core.detector_step_us_p50", s.detector_step_us,
          s.detector_step_us.median(), "us");
  counted("core.detector_step_us_p99", s.detector_step_us,
          s.detector_step_us.quantile(0.99), "us");
  counted("core.engine_step_us", s.engine_step_us, s.engine_step_us.median(),
          "us");
  counted("core.nuise_step_us", s.nuise_step_us, s.nuise_step_us.median(),
          "us");
  counted("core.decision_us", s.decision_us, s.decision_us.median(), "us");
  r.add("core.step_allocs",
        s.alloc_steps > 0 ? static_cast<double>(s.allocations) /
                                static_cast<double>(s.alloc_steps)
                          : 0.0,
        "count");
  r.detail("core.step_allocs.steps", std::to_string(s.alloc_steps));
  counted("matrix.sandwich_ns", s.sandwich_ns, s.sandwich_ns.median(), "ns");
  counted("matrix.spd_factor_ns", s.spd_factor_ns, s.spd_factor_ns.median(),
          "ns");
  counted("matrix.spd_eigen_factor_ns", s.spd_eigen_factor_ns,
          s.spd_eigen_factor_ns.median(), "ns");
  counted("fleet.session_ingest_us.inorder", s.ingest_inorder_us,
          s.ingest_inorder_us.median(), "us");
  counted("fleet.session_ingest_us.shuffled", s.ingest_shuffled_us,
          s.ingest_shuffled_us.median(), "us");
  r.fail("replay_mismatch", s.replay_mismatches);
}

}  // namespace perfbench

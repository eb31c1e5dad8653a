// fleet-paced and fleet-capacity (README.md).
//
// Both drive one fleet::FleetService with kShards shards from this thread
// (the generator): pump thread + (kShards - 1) pool workers + generator stay
// within the host's CPUs. Every robot replays one of kMissions missions
// recorded in set-up (one clean, then Table II #1-11, so alarms fire; the
// seed picks each mission's seed), and every report is checked against the recording with
// fleet::compare_reports from the service's on_report hook.
//
//   fleet-paced    open loop: each robot sends at 10 Hz, phases spread
//                  evenly over the period; each frame's packets go out in
//                  seeded order with a seeded share duplicated. Latency runs
//                  from a frame's due time to its report.
//   fleet-capacity closed loop: clean in-order frames, at most
//                  kInflightFrames submitted but not yet reported. Rate and
//                  latency are taken on the pump thread's CPU clock: steps
//                  per pump CPU-second, and the pump CPU time from a
//                  frame's last ingest stamp to its report. The pump runs
//                  the calibration kernel every kKernelEvery reports; both
//                  figures leave its time out and are scaled to the
//                  reference speed (common.h "Host-speed calibration").
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "eval/khepera.h"
#include "fleet/replay.h"
#include "fleet/service.h"
#include "layers.h"
#include "scenario/compile.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = roboads::core;
namespace fleet = roboads::fleet;

// One shard: the pump thread steps every robot itself (a one-worker pool
// runs pump passes inline), so no pass waits at a barrier for a stalled
// worker; on a shared host that keeps run-to-run spread low (README.md
// "Threads").
constexpr std::size_t kShards = 1;
// fleet-paced offers about a quarter of fleet-capacity's lossless rate on
// the seed code; fleet-capacity needs enough frames for its run (README.md
// "Sizing").
constexpr std::size_t kPacedRobots = 1000;
constexpr std::size_t kCapacityRobots = 8000;
constexpr std::size_t kShortRobots = 64;
constexpr std::size_t kMissions = 12;
constexpr std::size_t kIterations = 250;
constexpr std::size_t kShortIterations = 40;
constexpr std::size_t kWarmIterations = 20;
constexpr std::size_t kShortWarmIterations = 5;
constexpr std::uint64_t kPeriodNs = 100'000'000;  // 10 Hz control period
constexpr double kDupShare = 0.05;
constexpr std::size_t kInflightFrames = 1024;
// fleet-capacity's timed frames come from blocks of this many robots in
// turn, so the pump's working set is one block's sessions (README.md
// "Sizing").
constexpr std::size_t kActiveRobots = 32;
constexpr std::uint64_t kWindowNs = 500'000'000;  // capacity rate windows
constexpr std::size_t kQueueCapacity = std::size_t{1} << 15;
constexpr int kSetupRepeats = 5;
// Robots whose frames become spans in the traced run (every Nth).
constexpr std::size_t kSpanSample = 16;
// Reports between two calibration kernel runs on the pump (capacity only):
// about 2.5% of the pump's time.
constexpr std::uint64_t kKernelEvery = 512;

struct FrameStamps {
  std::uint64_t allowed = 0;  // due time, or when in-flight room appeared
  std::uint64_t submit_start = 0;
  std::uint64_t submit_end = 0;
};

struct ReportStamps {
  std::uint64_t ingest = 0;
  std::uint64_t report = 0;
};

// One robot's bookkeeping. Generator fields are written by this thread
// before the frame is submitted; report fields only by the pump worker
// stepping the robot. Aligned so neighbouring robots on different shards
// share no cache line.
struct alignas(64) RobotState {
  const eval::MissionResult* mission = nullptr;
  std::uint64_t frames_sent = 0;
  std::vector<FrameStamps> sent;  // traced, sampled robots only
  std::uint64_t reports = 0;
  std::uint64_t out_of_order = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t late = 0;
  std::vector<double> latency_ms;
  // Capacity only: every report's frame.
  struct CapacityFrame {
    std::uint64_t ingest = 0;  // the frame's last ingest stamp
    std::uint64_t report = 0;  // wall clock at the report
    std::uint64_t cpu = 0;     // pump work clock at the report
  };
  std::vector<CapacityFrame> capacity_frames;
  std::vector<double> ingest_to_report_us;  // traced only
  std::vector<ReportStamps> reported;       // traced, sampled robots only
};

struct Phase {
  bool paced = false;
  bool traced = false;
  bool perturb_report = false;
  std::size_t robots = 0;
  std::uint64_t warm = 0;  // warm-up iterations, untimed
  std::uint64_t t0 = 0;    // paced: schedule origin
  std::vector<RobotState> state;
  std::atomic<std::uint64_t> completed{0};
  // Capacity only, written by the pump in on_report. Its work clock is its
  // CPU time without the kernel runs: the clock at the latest report,
  // (wall, work clock) at every report, and the kernel samples.
  std::atomic<std::uint64_t> pump_cpu{0};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pump_clock;
  std::uint64_t kernel_cpu = 0;
  std::uint64_t since_kernel = 0;
  SpeedTrack speed;

  // The pump's CPU clock at wall time t, interpolated between the reports
  // around it.
  std::uint64_t pump_cpu_at(std::uint64_t t) const {
    const auto it = std::lower_bound(
        pump_clock.begin(), pump_clock.end(), t,
        [](const auto& mark, std::uint64_t v) { return mark.first < v; });
    if (it == pump_clock.begin()) return it->second;
    if (it == pump_clock.end()) return pump_clock.back().second;
    const auto& [w0, c0] = *(it - 1);
    const auto& [w1, c1] = *it;
    if (w1 == w0) return c1;
    return c0 + static_cast<std::uint64_t>(
                    static_cast<double>(c1 - c0) *
                    static_cast<double>(t - w0) / static_cast<double>(w1 - w0));
  }

  std::uint64_t due(std::uint64_t robot, std::uint64_t k) const {
    return t0 + (k - warm - 1) * kPeriodNs + robot * kPeriodNs / robots;
  }

  void on_report(std::uint64_t robot, const core::DetectionReport& report,
                 std::uint64_t ingest_ns) {
    const std::uint64_t now = now_ns();
    RobotState& st = state[robot];
    const std::size_t k = report.iteration;
    if (k != st.reports + 1) ++st.out_of_order;
    ++st.reports;
    const auto& records = st.mission->records;
    if (k == 0 || k > records.size()) {
      ++st.mismatches;
    } else if (perturb_report && robot == 0 && k == 1) {
      core::DetectionReport planted = report;
      planted.decision.sensor_statistic += 1.0;
      if (!fleet::compare_reports(planted, records[k - 1].report).empty()) {
        ++st.mismatches;
      }
    } else if (!fleet::compare_reports(report, records[k - 1].report)
                    .empty()) {
      ++st.mismatches;
    }
    std::uint64_t cpu = 0;
    if (!paced) {
      cpu = thread_cpu_ns() - kernel_cpu;
      pump_clock.emplace_back(now, cpu);
      pump_cpu.store(cpu, std::memory_order_relaxed);
      if (++since_kernel == kKernelEvery) {
        since_kernel = 0;
        const double kernel = kernel_ns();
        kernel_cpu += static_cast<std::uint64_t>(kernel);
        speed.add(now, kernel);
      }
    }
    completed.fetch_add(1, std::memory_order_release);
    if (k <= warm) return;
    const std::uint64_t from = paced ? due(robot, k) : ingest_ns;
    const double latency_ns = now > from ? static_cast<double>(now - from) : 0.0;
    st.latency_ms.push_back(latency_ns * 1e-6);
    if (!paced) st.capacity_frames.push_back({ingest_ns, now, cpu});
    if (paced && latency_ns > static_cast<double>(kPeriodNs)) ++st.late;
    if (traced) {
      st.ingest_to_report_us.push_back(
          static_cast<double>(now - ingest_ns) * 1e-3);
      if (robot % kSpanSample == 0) st.reported.push_back({ingest_ns, now});
    }
  }
};

struct PhaseOutcome {
  FleetSamples fleet;       // submit and ingest-to-report: traced only
  double throughput = 0.0;  // steps/s
  // Capacity only: steps/s per window, the whole run's rate, and whether
  // the streams ran out before the deadline.
  Samples window_rates;
  double run_rate = 0.0;  // wall clock
  // Capacity only: figures as measured, before scaling to the reference
  // speed.
  double raw_throughput = 0.0;
  Samples raw_latency_ms;
  Samples wall_latency_ms;
  bool exhausted = false;
};

void spin_until(std::uint64_t t) {
  for (;;) {
    const std::uint64_t now = now_ns();
    if (now >= t) return;
    if (t - now > 300'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(t - now - 200'000));
    }
  }
}

// Builds a service with every robot registered: the per-phase set-up.
std::unique_ptr<fleet::FleetService> make_service(
    Phase& phase, const std::shared_ptr<fleet::SessionSpec>& spec) {
  fleet::FleetConfig config;
  config.shards = kShards;
  config.queue_capacity = kQueueCapacity;
  config.on_report = [&phase](std::uint64_t robot,
                              const core::DetectionReport& report,
                              std::uint64_t ingest_ns) {
    phase.on_report(robot, report, ingest_ns);
  };
  auto service = std::make_unique<fleet::FleetService>(config);
  for (std::size_t r = 0; r < phase.robots; ++r) service->add_robot(spec);
  return service;
}

void init_phase(Phase& phase, bool paced, bool traced, std::size_t robots,
                std::size_t warm,
                const std::vector<eval::MissionResult>& missions) {
  phase.paced = paced;
  phase.warm = warm;
  phase.traced = traced;
  phase.robots = robots;
  phase.state = std::vector<RobotState>(robots);
  phase.pump_clock.clear();
  if (!paced) {
    phase.pump_clock.reserve(robots * kIterations);
    phase.speed.reserve(robots * kIterations / kKernelEvery + 1);
  }
  for (std::size_t r = 0; r < robots; ++r) {
    RobotState& st = phase.state[r];
    st.mission = &missions[r % missions.size()];
    const std::size_t n = st.mission->records.size();
    st.latency_ms.reserve(n);
    if (!paced) st.capacity_frames.reserve(n);
    if (traced) {
      st.ingest_to_report_us.reserve(n);
      if (r % kSpanSample == 0) {
        st.sent.reserve(n);
        st.reported.reserve(n);
      }
    }
  }
}

// Runs one phase for `seconds` on a fresh service and checks it. Failures
// land in `result`.
PhaseOutcome run_phase(Phase& phase, fleet::FleetService& service,
                       const eval::Platform& platform, const Options& o,
                       double seconds, Tracer& tracer, Result& result) {
  PhaseOutcome out;
  const std::uint64_t budget = static_cast<std::uint64_t>(seconds * 1e9);
  const bool plant_drop = o.plant == "drop-packet";
  SeededStream order(o.seed * 0x9e3779b97f4a7c15ULL + 17);
  std::vector<fleet::FleetPacket> frame;
  std::uint64_t injected_dups = 0;
  std::uint64_t sent = 0;

  // Sends robot r's iteration k; `allowed` is when the generator could
  // first send it (its due time, or when in-flight room appeared).
  const auto send = [&](std::uint64_t r, std::uint64_t k,
                        std::uint64_t allowed) {
    RobotState& st = phase.state[r];
    frame_packets(frame, r, platform, st.mission->records[k - 1],
                  phase.paced ? &order : nullptr,
                  phase.paced ? kDupShare : 0.0);
    injected_dups += frame.size() - (platform.suite().count() + 1);
    if (plant_drop && r == 0 && k == phase.warm + 1) frame.pop_back();
    st.frames_sent = k;
    ++sent;
    const std::uint64_t s0 = now_ns();
    for (fleet::FleetPacket& p : frame) service.submit(std::move(p));
    if (k <= phase.warm) return;
    out.fleet.lag_us.add(static_cast<double>(s0 - allowed) * 1e-3);
    if (phase.traced) {
      const std::uint64_t s1 = now_ns();
      out.fleet.submit_ns.add(static_cast<double>(s1 - s0) /
                              static_cast<double>(frame.size()));
      if (r % kSpanSample == 0) st.sent.push_back({allowed, s0, s1});
    }
  };

  service.start();
  // Sends iterations [k_first, k_last] of robots [r_first, r_last),
  // iteration-major, never more than kInflightFrames unreported. With
  // `marks`, notes (time, reports completed, pump CPU clock) at every
  // window boundary. Returns false once `end` has passed.
  struct Mark {
    std::uint64_t wall, done, cpu;
  };
  const auto mark = [&phase](std::uint64_t wall) {
    const std::uint64_t done = phase.completed.load(std::memory_order_acquire);
    return Mark{wall, done, phase.pump_cpu.load(std::memory_order_relaxed)};
  };
  using Marks = std::vector<Mark>;
  std::uint64_t next_mark = ~0ULL;
  const auto closed_loop = [&](std::uint64_t r_first, std::uint64_t r_last,
                               std::uint64_t k_first, std::uint64_t k_last,
                               std::uint64_t end, Marks* marks) {
    for (std::uint64_t k = k_first; k <= k_last; ++k) {
      bool any = false;
      for (std::uint64_t r = r_first; r < r_last; ++r) {
        if (k > phase.state[r].mission->records.size()) continue;
        const std::uint64_t now = now_ns();
        if (now >= end) return false;
        if (marks != nullptr && now >= next_mark) {
          marks->push_back(mark(now));
          next_mark += kWindowNs;
        }
        any = true;
        if (sent - phase.completed.load(std::memory_order_acquire) >=
            kInflightFrames) {
          // Full: sleep until half the frames in flight are reported, so
          // the generator stays off the cache line the pump writes on
          // every report while the pump still has half a window queued.
          while (sent - phase.completed.load(std::memory_order_acquire) >
                 kInflightFrames / 2) {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
          }
        }
        send(r, k, now_ns());
      }
      if (!any) break;
    }
    return true;
  };
  // Warm-up: iterations 1..warm of every robot, closed loop, in the phase's
  // stream shape — checked like the rest, but untimed, so the measurement
  // starts with sessions, caches and allocator arenas warm.
  closed_loop(0, phase.robots, 1, phase.warm, ~0ULL, nullptr);
  const std::uint64_t give_up = now_ns() + 60'000'000'000ULL;
  while (phase.completed.load(std::memory_order_acquire) < sent) {
    if (now_ns() > give_up) throw std::runtime_error("warm-up never completed");
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const std::uint64_t warm_sent = sent;

  const std::uint64_t start = now_ns();
  if (phase.paced) {
    // Open loop: slot j is robot j % R at iteration warm + j / R + 1, due
    // at t0 + (j / R)·period + r·period/R, sent whether or not the service
    // keeps up.
    phase.t0 = start + 10'000'000;
    const std::uint64_t end = phase.t0 + budget;
    out.fleet.lag_us.reserve(phase.robots * (budget / kPeriodNs + 1));
    for (std::uint64_t j = 0;; ++j) {
      const std::uint64_t r = j % phase.robots;
      const std::uint64_t k = phase.warm + j / phase.robots + 1;
      const std::uint64_t due = phase.due(r, k);
      if (due >= end) break;
      if (k > phase.state[r].mission->records.size()) continue;
      spin_until(due);
      send(r, k, due);
    }
  } else {
    // Closed loop until the time is up or the streams run out, one block
    // of kActiveRobots robots at a time, each to the end of its streams.
    // The rate is steps per pump CPU-second, the median over kWindowNs
    // windows, so a host stall that hits a few windows does not move it
    // (the whole-run wall-clock rate is in the details).
    const std::uint64_t end = start + budget;
    Marks marks{mark(start)};
    next_mark = start + kWindowNs;
    for (std::uint64_t b = 0; b < phase.robots; b += kActiveRobots) {
      const std::uint64_t b_end = std::min<std::uint64_t>(
          b + kActiveRobots, phase.robots);
      if (!closed_loop(b, b_end, phase.warm + 1, ~0ULL, end, &marks)) break;
    }
    const std::uint64_t stop = now_ns();
    const Mark last = mark(stop);
    out.exhausted = stop < end;
    if (marks.size() == 1) marks.push_back(last);
    out.run_rate = static_cast<double>(last.done - marks.front().done) /
                   (static_cast<double>(stop - start) * 1e-9);
    service.drain();
    service.stop();
    // The pump has stopped: its clock and kernel samples are complete.
    phase.speed.finish();
    Samples raw_rates;
    for (std::size_t i = 1; i < marks.size(); ++i) {
      if (marks[i].cpu == marks[i - 1].cpu) continue;
      const double rate =
          static_cast<double>(marks[i].done - marks[i - 1].done) /
          (static_cast<double>(marks[i].cpu - marks[i - 1].cpu) * 1e-9);
      raw_rates.add(rate);
      // Steps per second at the reference speed: the rate × the local
      // kernel time ÷ the reference kernel time.
      const std::uint64_t mid = marks[i - 1].wall / 2 + marks[i].wall / 2;
      out.window_rates.add(rate * phase.speed.at(mid) / kReferenceKernelNs);
    }
    out.throughput = out.window_rates.median();
    out.raw_throughput = raw_rates.median();
  }
  service.drain();
  const std::uint64_t drained = now_ns();
  service.stop();
  if (phase.paced) {
    out.throughput = static_cast<double>(sent - warm_sent) /
                     (static_cast<double>(drained - phase.t0) * 1e-9);
  }

  // Checks: every frame reported, in order, equal to the recording; no
  // shed packet, no masked step; every duplicate accounted for.
  result.attempted += sent;
  std::uint64_t missing = 0, out_of_order = 0, mismatches = 0, late = 0;
  std::uint64_t unknown = 0, evictions = 0;
  for (std::size_t r = 0; r < phase.robots; ++r) {
    const RobotState& st = phase.state[r];
    if (st.reports < st.frames_sent) missing += st.frames_sent - st.reports;
    out_of_order += st.out_of_order;
    mismatches += st.mismatches;
    late += st.late;
    const fleet::SessionCounters& c = service.session_counters(r);
    out.fleet.duplicate_packets += c.duplicate_packets;
    out.fleet.late_packets += c.late_packets;
    out.fleet.masked_steps += c.masked_steps;
    unknown += c.unknown_source;
    evictions += c.forced_evictions;
    if (phase.paced) {
      for (double v : st.latency_ms) out.fleet.latency_ms.add(v);
    } else {
      for (double v : st.latency_ms) out.wall_latency_ms.add(v);
      for (const RobotState::CapacityFrame& f : st.capacity_frames) {
        const std::uint64_t from = phase.pump_cpu_at(f.ingest);
        const double ms =
            f.cpu > from ? static_cast<double>(f.cpu - from) * 1e-6 : 0.0;
        out.raw_latency_ms.add(ms);
        out.fleet.latency_ms.add(phase.speed.scale(ms, f.report));
      }
    }
    for (double v : st.ingest_to_report_us) {
      out.fleet.ingest_to_report_us.add(v);
    }
  }
  const fleet::FleetStatus status = service.status();
  out.fleet.dropped_packets = status.dropped_packets;
  for (const fleet::ShardStat& s : service.introspection().shards) {
    out.fleet.queue_high_water =
        std::max(out.fleet.queue_high_water, s.queue_high_water);
  }
  result.fail("missing_report", missing);
  result.fail("out_of_order_report", out_of_order);
  result.fail("report_mismatch", mismatches);
  result.fail("deadline_missed", late);
  result.fail("dropped_packet", out.fleet.dropped_packets);
  result.fail("masked_step", out.fleet.masked_steps);
  result.fail("unknown_source_packet", unknown);
  result.fail("forced_eviction", evictions);
  if (status.steps != sent) result.fail("step_count");
  if (out.fleet.duplicate_packets + out.fleet.late_packets != injected_dups) {
    result.fail("duplicate_accounting");
  }

  if (phase.traced) {
    // Spans of the sampled robots: the frame (from when it could be sent
    // to its report) holding the generator's submit calls and the
    // service's ingest → report interval.
    for (std::size_t r = 0; r < phase.robots; r += kSpanSample) {
      const RobotState& st = phase.state[r];
      const std::size_t n = std::min(st.sent.size(), st.reported.size());
      for (std::size_t i = 0; i < n; ++i) {
        const RequestId req = RequestId::frame(r, phase.warm + i + 1);
        const FrameStamps& s = st.sent[i];
        const ReportStamps& rep = st.reported[i];
        const std::uint32_t root =
            tracer.record("fleet.frame", 0, req, s.allowed, rep.report);
        tracer.record("fleet.FleetService::submit", root, req,
                      s.submit_start, s.submit_end);
        tracer.record("fleet.ingest_to_report", root, req, rep.ingest,
                      rep.report);
      }
    }
  }
  return out;
}

// Records kMissions missions of at least `min_records` iterations, so that
// no robot's stream ends before the run does; shorter ones (the robot
// reached its goal early) are redrawn.
std::vector<eval::MissionResult> record_missions(
    const Options& o, const eval::Platform& platform, std::size_t min_records,
    LayerSamples* layers, Tracer& tracer) {
  const scenario::PlatformTraits traits = scenario::platform_traits("khepera");
  SeededStream mix(o.seed);
  std::vector<eval::MissionResult> missions;
  for (std::size_t draw = 0; missions.size() < kMissions; ++draw) {
    if (draw == 100 * kMissions) {
      throw std::runtime_error("too few missions long enough for the run");
    }
    // Mission m flies scenario m: clean, then Table II #1-11. The mix is
    // the same for every seed, because a step's cost depends on its
    // scenario.
    const std::size_t number = missions.size();
    const std::uint64_t seed = 1 + mix.below(1'000'000);
    const RequestId req = RequestId::job(draw);
    Timed root(tracer, "fleet.setup.record_mission", 0, req);
    eval::MissionResult mission =
        fly(scenario_name(number), seed,
            o.short_mode ? kShortIterations : kIterations, platform, traits,
            layers, tracer, root.id(), req);
    root.stop();
    if (mission.records.size() >= min_records) {
      missions.push_back(std::move(mission));
    }
  }
  return missions;
}

}  // namespace

void run_fleet(const Options& o, bool paced, Result& r) {
  const std::size_t robots = o.short_mode ? kShortRobots
                             : paced        ? kPacedRobots
                                            : kCapacityRobots;
  const std::size_t warm = o.short_mode ? kShortWarmIterations : kWarmIterations;
  // The paced schedule needs every stream to last the run; the closed loop
  // just stops when the streams run out.
  const std::size_t min_records =
      paced ? warm + static_cast<std::size_t>(
                         std::ceil(o.seconds * 1e9 / kPeriodNs))
            : warm + 1;
  Tracer tracer(o.trace);
  const roboads::eval::KheperaPlatform platform;
  const std::shared_ptr<fleet::SessionSpec> spec =
      fleet::make_session_spec(platform);
  LayerSamples layers;

  // Set-up: record the missions, then build the service with every robot
  // registered. Repeated untraced; the median counts.
  std::vector<double> setup_s;      // at the reference speed
  std::vector<double> setup_raw_s;  // CPU time as measured
  std::vector<eval::MissionResult> missions;
  auto phase = std::make_unique<Phase>();
  std::unique_ptr<fleet::FleetService> service;
  for (int i = 0; i < (o.trace ? 1 : kSetupRepeats); ++i) {
    service.reset();
    const std::uint64_t t0 = thread_cpu_ns();
    missions = record_missions(o, platform, min_records,
                               o.trace ? &layers : nullptr, tracer);
    phase = std::make_unique<Phase>();
    init_phase(*phase, paced, false, robots, warm, missions);
    service = make_service(*phase, spec);
    const double raw_s = static_cast<double>(thread_cpu_ns() - t0) * 1e-9;
    setup_raw_s.push_back(raw_s);
    setup_s.push_back(raw_s * kReferenceKernelNs / kernel_median_ns());
  }
  std::size_t shortest = missions.front().records.size();
  for (const auto& m : missions) {
    shortest = std::min(shortest, m.records.size());
  }
  r.detail("fleet.robots", std::to_string(robots));
  r.detail("fleet.shards", std::to_string(kShards));
  r.detail("fleet.shortest_mission_iterations", std::to_string(shortest));
  r.detail("fleet.loop", paced ? "open, 10 Hz per robot" : "closed");
  phase->perturb_report = o.plant == "perturb-report";

  const double seconds = o.trace ? o.seconds / 2 : o.seconds;
  const PhaseOutcome untraced =
      run_phase(*phase, *service, platform, o, seconds, tracer, r);
  service.reset();

  if (!o.trace) {
    r.add("throughput_per_s", untraced.throughput, "1/s");
    r.add("latency_ms_p50", untraced.fleet.latency_ms.median(), "ms");
    r.add("setup_s", median_of(setup_s), "s");
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    r.detail("workload", paced ? "fleet-paced: delivered steps_per_s, "
                                 "due-to-report latency"
                               : "fleet-capacity: lossless steps per pump "
                                 "CPU-second, ingest-to-report pump CPU ms "
                                 "at the bound, both at the reference "
                                 "speed");
    r.detail("latency.samples",
             std::to_string(untraced.fleet.latency_ms.size()));
    r.detail("latency_ms_p90", untraced.fleet.latency_ms.quantile(0.90));
    r.detail("latency_ms_p99", untraced.fleet.latency_ms.quantile(0.99));
    r.detail("gen.lag_us_p99", untraced.fleet.lag_us.quantile(0.99));
    if (paced) {
      r.detail("offered_steps_per_s",
               static_cast<double>(robots) * 1e9 / kPeriodNs);
    } else {
      r.detail("inflight_frames", std::to_string(kInflightFrames));
      r.detail("throughput.windows", std::to_string(untraced.window_rates.size()));
      r.detail("kernel_us_p50", phase->speed.median() * 1e-3);
      r.detail("raw.throughput_per_s", untraced.raw_throughput);
      r.detail("raw.latency_ms_p50", untraced.raw_latency_ms.median());
      r.detail("raw.setup_s", median_of(setup_raw_s));
      r.detail("wall.steps_per_s", untraced.run_rate);
      r.detail("wall.latency_ms_p50", untraced.wall_latency_ms.median());
      if (untraced.exhausted) r.detail("streams_exhausted", "yes");
    }
    return;
  }

  // Traced phase on a fresh service, then the layer replays on the
  // recorded missions.
  Phase traced_phase;
  init_phase(traced_phase, paced, true, robots, warm, missions);
  {
    const std::unique_ptr<fleet::FleetService> traced_service =
        make_service(traced_phase, spec);
    const PhaseOutcome traced = run_phase(traced_phase, *traced_service,
                                          platform, o, seconds, tracer, r);

    for (std::size_t m = 0; m < missions.size(); ++m) {
      const RequestId req = RequestId::job(m);
      Timed root(tracer, "fleet.replay_mission", 0, req);
      replay_core(platform, missions[m], layers, tracer, root.id(), req);
      replay_sessions(platform, missions[m], o.seed + m, kDupShare, layers,
                      tracer, root.id(), req);
      root.stop();
    }
    add_layer_metrics(layers, r);
    add_fleet_metrics(traced.fleet, layers, r);
    // Detector share of the stepping threads' time at the measured rate,
    // with its base (thread-µs available per step).
    const double rate = paced ? traced.throughput : traced.raw_throughput;
    const double budget_us = static_cast<double>(kShards) * 1e6 / rate;
    r.add("core.detector_share", layers.detector_step_us.median() / budget_us,
          "ratio");
    r.detail("core.detector_share.base_thread_us_per_step", budget_us);
    r.detail("core.detector_share.steps_per_s", rate);
    r.add("trace.overhead_frac",
          paced ? traced.fleet.latency_ms.median() /
                          untraced.fleet.latency_ms.median() -
                      1.0
                : untraced.throughput / traced.throughput - 1.0,
          "ratio");
  }

  tracer.write(o.out_dir + "/perfbench-trace-" + o.workload + ".tsv");
}

}  // namespace perfbench

// roboads_fleet — drive the fleet-scale detection service from recorded
// missions, and watch a live fleet (docs/FLEET.md, docs/OBSERVABILITY.md).
//
//   roboads_fleet --robots=32 --scenario=8 --iterations=120 --parity
//   roboads_fleet --robots=64 --hz=20 --trace-sample=8
//                 --trace-out=spans.jsonl --status-out=fleet_status.json
//   roboads_fleet top --status=fleet_status.json
//
// Run mode records a handful of distinct missions (cycling seeds), replays
// them as interleaved packet streams through a live FleetService
// (concurrent producers + pump thread), and reports fleet totals. With
// --parity every robot's streamed DetectionReports are compared bit-exactly
// against its source mission — the guarantee ./ci.sh fleet-smoke enforces,
// and it must hold with every introspection knob on (./ci.sh
// fleet-watch-smoke pins that). `top` renders a published fleet_status.json
// as a live terminal frame; `top --once --json` re-emits the snapshot line
// byte-identically for CI.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "eval/khepera.h"
#include "eval/mission.h"
#include "fleet/cli.h"
#include "fleet/introspect.h"
#include "fleet/replay.h"
#include "fleet/service.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "scenario/compile.h"
#include "scenario/library.h"

namespace {

using namespace roboads;

int usage(std::ostream& os, int rc) {
  os << "usage: roboads_fleet [--robots=N] [--shards=N] [--iterations=N]\n"
        "                     [--scenario=N] [--seed=N] [--missions=N]\n"
        "                     [--hz=R] [--parity] [--json]\n"
        "                     [--trace-sample=N] [--trace-out=FILE]\n"
        "                     [--status-out=FILE] [--status-interval=S]\n"
        "                     [--hist-out=FILE]\n"
        "       roboads_fleet top --status=FILE [--once] [--json]\n"
        "                     [--interval=S]\n"
        "  --robots     fleet size (default 32)\n"
        "  --shards     detection shards; 0 = hardware concurrency\n"
        "  --iterations mission length per robot (default 120)\n"
        "  --scenario   Table II scenario number; 0 = attack-free\n"
        "  --seed       base mission seed (robot r uses seed + r % missions)\n"
        "  --missions   distinct recorded missions cycled over the fleet\n"
        "  --hz         pace producers at R iterations/s per robot; 0 = "
        "firehose\n"
        "  --parity     verify every robot's streamed reports bit-exactly\n"
        "               against its source mission (exit 1 on mismatch)\n"
        "  --json       machine-readable fleet summary on stdout\n"
        "  --trace-sample=N  emit causal spans for every Nth robot\n"
        "  --trace-out  span JSONL path (requires --trace-sample)\n"
        "  --status-out fleet_status.json path, published atomically on\n"
        "               --status-interval seconds (and once at exit)\n"
        "  --hist-out   per-shard + fleet latency histograms as JSONL for\n"
        "               roboads_report\n"
        "  top          render a published fleet_status.json; --once exits\n"
        "               after one frame, --json (with --once) re-emits the\n"
        "               snapshot line byte-identically\n";
  return rc;
}

int run(const fleet::FleetRunOptions& o) {
  eval::KheperaPlatform platform;
  const auto spec = fleet::make_session_spec(platform);
  const attacks::Scenario scenario =
      o.scenario == 0 ? platform.clean_scenario()
                      : scenario::compile_spec(
                            scenario::khepera_table2_spec(o.scenario),
                            platform);

  // Record the mission streams once; robots cycle over them.
  std::vector<eval::MissionResult> missions;
  for (std::size_t m = 0; m < std::min(o.missions, o.robots); ++m) {
    eval::MissionConfig cfg;
    cfg.iterations = o.iterations;
    cfg.seed = o.seed + m;
    missions.push_back(eval::run_mission(platform, scenario, cfg));
  }

  obs::TraceSink spans;
  fleet::FleetConfig config;
  config.shards = o.shards;
  config.introspect.trace_sample = o.trace_sample;
  if (o.trace_sample > 0) config.introspect.span_sink = &spans;
  config.introspect.status_path = o.status_out;
  config.introspect.status_interval_s = o.status_interval_s;
  // Per-robot collected reports for parity (robot-disjoint writes; see
  // FleetConfig::on_report).
  std::vector<std::vector<core::DetectionReport>> streamed(o.robots);
  if (o.parity) {
    // Drop-oldest backpressure is correct service behavior but incompatible
    // with a bit-parity check: a shed packet is a masked step. Size each
    // shard's ring to hold its robots' entire streams so a slow pump (e.g.
    // a one-core box) backs the producers onto the queue instead of
    // shedding.
    const std::size_t shards =
        common::ThreadPool::resolve_thread_count(o.shards);
    const std::size_t per_shard = (o.robots + shards - 1) / shards;
    config.queue_capacity =
        per_shard * o.iterations * (platform.suite().count() + 1);
    config.on_report = [&streamed](std::uint64_t robot,
                                   const core::DetectionReport& report,
                                   std::uint64_t) {
      streamed[robot].push_back(report);
    };
  }
  fleet::FleetService service(config);
  for (std::size_t r = 0; r < o.robots; ++r) service.add_robot(spec);
  service.start();

  // Concurrent producers, one per hardware-ish slice of the fleet, each
  // interleaving its robots' packets iteration by iteration. With --hz the
  // producers tick-pace each iteration wave, which keeps the rings shallow
  // and makes the EWMA rates in fleet_status.json meaningful.
  const std::size_t producers =
      std::max<std::size_t>(1, std::min<std::size_t>(4, o.robots));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < producers; ++t) {
    threads.emplace_back([&, t] {
      std::size_t max_iters = 0;
      for (const eval::MissionResult& m : missions) {
        max_iters = std::max(max_iters, m.records.size());
      }
      const auto start = std::chrono::steady_clock::now();
      std::vector<fleet::FleetPacket> batch;
      for (std::size_t i = 0; i < max_iters; ++i) {
        if (o.hz > 0.0) {
          std::this_thread::sleep_until(
              start + std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(i / o.hz)));
        }
        for (std::size_t r = t; r < o.robots; r += producers) {
          const eval::MissionResult& m = missions[r % missions.size()];
          if (i >= m.records.size()) continue;
          batch.clear();
          fleet::append_iteration_packets(batch, r, platform.suite(),
                                          m.records[i]);
          for (fleet::FleetPacket& p : batch) service.submit(std::move(p));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  service.drain();
  service.stop();
  service.flush_sessions();

  const fleet::FleetStatus status = service.status();
  // The final published snapshot reflects every step, including the
  // end-of-stream flush above.
  service.publish_status_now();

  if (!o.trace_out.empty()) {
    std::ofstream os(o.trace_out, std::ios::trunc);
    if (!os) {
      std::cerr << "roboads_fleet: cannot write " << o.trace_out << "\n";
      return 2;
    }
    spans.write_jsonl(os);
  }
  if (!o.hist_out.empty()) {
    std::ofstream os(o.hist_out, std::ios::trunc);
    if (!os) {
      std::cerr << "roboads_fleet: cannot write " << o.hist_out << "\n";
      return 2;
    }
    for (const fleet::ShardStatus& s : status.shards) {
      obs::write_named_histogram(
          os, "fleet.shard" + std::to_string(s.shard) + ".ingest_to_step_ns",
          s.ingest_to_step_ns);
      os << '\n';
    }
    obs::write_named_histogram(os, "fleet.ingest_to_step_ns",
                               status.ingest_to_step_ns);
    os << '\n';
    obs::write_named_histogram(os, "fleet.ingest_to_alarm_ns",
                               status.ingest_to_alarm_ns);
    os << '\n';
  }

  std::size_t parity_failures = 0;
  if (o.parity) {
    for (std::size_t r = 0; r < o.robots; ++r) {
      const eval::MissionResult& m = missions[r % missions.size()];
      if (streamed[r].size() != m.records.size()) {
        std::cerr << "parity: robot " << r << " stepped " << streamed[r].size()
                  << " iterations, mission has " << m.records.size() << "\n";
        ++parity_failures;
        continue;
      }
      for (std::size_t i = 0; i < streamed[r].size(); ++i) {
        const std::string diff =
            fleet::compare_reports(m.records[i].report, streamed[r][i]);
        if (!diff.empty()) {
          std::cerr << "parity: robot " << r << " iteration "
                    << m.records[i].k << ": " << diff << "\n";
          ++parity_failures;
          break;
        }
      }
    }
  }

  if (o.json) {
    std::cout << "{\"robots\":" << o.robots << ",\"shards\":"
              << service.shard_count() << ",\"steps\":" << status.steps
              << ",\"sensor_alarms\":" << status.sensor_alarms
              << ",\"actuator_alarms\":" << status.actuator_alarms
              << ",\"quarantine_iterations\":" << status.quarantine_iterations
              << ",\"dropped_packets\":" << status.dropped_packets
              << ",\"forwarded_packets\":" << status.forwarded_packets
              << ",\"p50_ingest_to_step_ns\":"
              << status.ingest_to_step_ns.quantile(0.50)
              << ",\"p99_ingest_to_step_ns\":"
              << status.ingest_to_step_ns.quantile(0.99)
              << ",\"trace_sample\":" << o.trace_sample
              << ",\"spans\":" << spans.size()
              << ",\"parity\":" << (o.parity ? "true" : "false")
              << ",\"parity_failures\":" << parity_failures << "}\n";
  } else {
    std::cout << "fleet     " << o.robots << " robots on "
              << service.shard_count() << " shards\n"
              << "steps     " << status.steps << " (sensor alarms "
              << status.sensor_alarms << ", actuator alarms "
              << status.actuator_alarms << ")\n"
              << "transport dropped " << status.dropped_packets
              << ", forwarded " << status.forwarded_packets << "\n"
              << "latency   ingest->step p50<="
              << status.ingest_to_step_ns.quantile(0.50) << "ns p99<="
              << status.ingest_to_step_ns.quantile(0.99) << "ns\n";
    if (o.trace_sample > 0) {
      std::cout << "spans     " << spans.size() << " (sampling 1/"
                << o.trace_sample << " robots)\n";
    }
    if (o.parity) {
      std::cout << "parity    "
                << (parity_failures == 0 ? "bit-identical to serial missions"
                                         : "FAILED")
                << "\n";
    }
  }
  return parity_failures == 0 ? 0 : 1;
}

int top(const fleet::FleetTopOptions& o) {
  for (;;) {
    const fleet::FleetStatusSnapshot status =
        fleet::read_fleet_status_file(o.status_path);
    if (o.json) {
      // serialize(parse(line)) — byte-identical to the published line.
      std::cout << fleet::serialize_fleet_status(status) << "\n";
    } else {
      if (!o.once) std::cout << "\033[H\033[2J";
      std::cout << fleet::render_fleet_status(status) << std::flush;
    }
    if (o.once) return 0;
    std::this_thread::sleep_for(std::chrono::duration<double>(o.interval_s));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  for (const std::string& arg : args) {
    if (arg == "--help" || arg == "-h") return usage(std::cout, 0);
  }
  try {
    if (!args.empty() && args.front() == "top") {
      fleet::FleetTopOptions o;
      const std::string error = fleet::parse_fleet_top_args(
          std::vector<std::string>(args.begin() + 1, args.end()), o);
      if (!error.empty()) {
        std::cerr << "roboads_fleet top: " << error << "\n";
        return 2;
      }
      return top(o);
    }
    fleet::FleetRunOptions o;
    const std::string error = fleet::parse_fleet_run_args(args, o);
    if (!error.empty()) {
      std::cerr << "roboads_fleet: " << error << "\n";
      return usage(std::cerr, 2);
    }
    return run(o);
  } catch (const std::exception& e) {
    std::cerr << "roboads_fleet: " << e.what() << "\n";
    return 2;
  }
}

// fleet_throughput — fleet-scale detection service capacity and latency
// (docs/FLEET.md; wired into ./ci.sh bench and BENCH_PERF.json).
//
// Two phases over the same recorded mission streams (Khepera, Table II
// scenario 8 so the streams carry real alarms):
//
//   max_rate — concurrent producers firehose every robot's packets through
//     a live FleetService as fast as the rings accept them. Measures
//     steps/second and asserts the box sustains at least robots × hz
//     detector steps per second (exit 1 otherwise) — the "N robots at
//     M Hz on one box" capacity claim, enforced, not eyeballed.
//
//   paced — the same fleet driven at the real control rate (--hz ticks;
//     every robot's iteration-k packets land on tick k). With ingestion no
//     longer saturated, the ingest→step and ingest→alarm histograms
//     measure honest end-to-end service latency; the summary records their
//     p50/p99.
//
// Emits google-benchmark-shaped JSON (--json-out=) so bench_summary.py
// folds both phases into BENCH_PERF.json next to perf_nuise's rows.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/parse.h"
#include "eval/khepera.h"
#include "eval/mission.h"
#include "fleet/introspect.h"
#include "fleet/replay.h"
#include "fleet/service.h"
#include "obs/trace.h"
#include "scenario/compile.h"
#include "scenario/library.h"

namespace {

using namespace roboads;

struct Options {
  std::size_t robots = 1000;
  std::size_t shards = 0;      // 0 = hardware concurrency
  double hz = 10.0;            // per-robot control rate to sustain / pace
  std::size_t iterations = 120;  // max-rate mission length
  std::size_t paced_iterations = 60;  // paced phase: ~6 s at 10 Hz
  std::size_t missions = 4;    // distinct recorded streams, cycled
  std::size_t producers = 4;
  std::uint64_t seed = 1;
  std::string json_out;
  // Introspection-plane knobs, to measure the serving tiers under load:
  // live fleet_status.json publishing from the pump and/or span sampling.
  std::string status_out;
  double status_interval_s = 1.0;
  std::size_t trace_sample = 0;
};

struct PhaseResult {
  std::string name;
  double wall_seconds = 0.0;
  std::uint64_t steps = 0;
  std::uint64_t dropped = 0;
  double p50_step_ns = 0.0;
  double p99_step_ns = 0.0;
  double p50_alarm_ns = 0.0;
  double p99_alarm_ns = 0.0;
  std::size_t shards = 0;
  std::size_t queue_high_water = 0;  // deepest any shard ring got
  std::uint64_t spans = 0;           // span events emitted (trace_sample on)
};

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Runs one phase: submit every robot's packets (cycling the recorded
// missions), optionally paced to `hz` ticks, through a live service.
PhaseResult run_phase(const std::string& name, const Options& o,
                      const eval::KheperaPlatform& platform,
                      const std::vector<eval::MissionResult>& missions,
                      std::size_t iterations, double pace_hz) {
  fleet::FleetConfig config;
  config.shards = o.shards;
  obs::TraceSink spans;
  config.introspect.trace_sample = o.trace_sample;
  if (o.trace_sample > 0) config.introspect.span_sink = &spans;
  config.introspect.status_path = o.status_out;
  config.introspect.status_interval_s = o.status_interval_s;
  fleet::FleetService service(config);
  const auto spec = fleet::make_session_spec(platform);
  for (std::size_t r = 0; r < o.robots; ++r) service.add_robot(spec);
  service.start();

  const double start = now_seconds();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < o.producers; ++t) {
    threads.emplace_back([&, t] {
      std::vector<fleet::FleetPacket> batch;
      for (std::size_t i = 0; i < iterations; ++i) {
        if (pace_hz > 0.0) {
          // Tick i opens at start + i/hz; sleep only when ahead of it.
          const double tick = start + static_cast<double>(i) / pace_hz;
          const double ahead = tick - now_seconds();
          if (ahead > 0.0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(ahead));
          }
        }
        for (std::size_t r = t; r < o.robots; r += o.producers) {
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
  const double wall = now_seconds() - start;
  service.stop();
  service.flush_sessions();

  const fleet::FleetStatus status = service.status();
  // Final snapshot covers the end-of-stream flush; also the source of the
  // per-shard ring high-water marks.
  service.publish_status_now();
  const fleet::FleetStatusSnapshot snapshot = service.introspection();

  PhaseResult result;
  result.name = name;
  result.wall_seconds = wall;
  result.steps = status.steps;
  result.dropped = status.dropped_packets;
  result.p50_step_ns = status.ingest_to_step_ns.quantile(0.50);
  result.p99_step_ns = status.ingest_to_step_ns.quantile(0.99);
  result.p50_alarm_ns = status.ingest_to_alarm_ns.quantile(0.50);
  result.p99_alarm_ns = status.ingest_to_alarm_ns.quantile(0.99);
  result.shards = service.shard_count();
  for (const fleet::ShardStat& s : snapshot.shards) {
    result.queue_high_water = std::max(
        result.queue_high_water, static_cast<std::size_t>(s.queue_high_water));
  }
  result.spans = spans.size();
  return result;
}

void write_json(const Options& o, const std::vector<PhaseResult>& phases,
                std::ostream& os) {
  char date[64];
  const std::time_t now = std::time(nullptr);
  std::tm tm_buf{};
  localtime_r(&now, &tm_buf);
  std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%S", &tm_buf);

  os << "{\"context\":{\"date\":\"" << date << "\",\"num_cpus\":"
     << std::thread::hardware_concurrency() << ",\"library_build_type\":\""
#ifdef NDEBUG
     << "release"
#else
     << "debug"
#endif
     << "\"},\"benchmarks\":[";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseResult& p = phases[i];
    const double steps_per_s =
        p.wall_seconds > 0.0 ? static_cast<double>(p.steps) / p.wall_seconds
                             : 0.0;
    const double ns_per_step =
        p.steps > 0 ? p.wall_seconds * 1e9 / static_cast<double>(p.steps)
                    : 0.0;
    if (i > 0) os << ',';
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "{\"name\":\"%s\",\"run_type\":\"iteration\","
        "\"iterations\":%llu,\"real_time\":%.1f,\"cpu_time\":%.1f,"
        "\"time_unit\":\"ns\",\"robots\":%zu,\"shards\":%zu,\"hz\":%.1f,"
        "\"steps\":%llu,\"steps_per_s\":%.1f,\"dropped_packets\":%llu,"
        "\"p50_ingest_to_step_ns\":%.1f,\"p99_ingest_to_step_ns\":%.1f,"
        "\"p50_ingest_to_alarm_ns\":%.1f,\"p99_ingest_to_alarm_ns\":%.1f,"
        "\"queue_high_water\":%zu,\"trace_sample\":%zu,\"spans\":%llu}",
        p.name.c_str(), static_cast<unsigned long long>(p.steps), ns_per_step,
        ns_per_step, o.robots, p.shards, o.hz,
        static_cast<unsigned long long>(p.steps), steps_per_s,
        static_cast<unsigned long long>(p.dropped), p.p50_step_ns,
        p.p99_step_ns, p.p50_alarm_ns, p.p99_alarm_ns, p.queue_high_water,
        o.trace_sample, static_cast<unsigned long long>(p.spans));
    os << buf;
  }
  os << "]}\n";
}

int usage(std::ostream& os, int rc) {
  os << "usage: fleet_throughput [--robots=N] [--shards=N] [--hz=F]\n"
        "           [--iterations=N] [--paced-iterations=N] [--missions=N]\n"
        "           [--producers=N] [--seed=N] [--json-out=FILE]\n"
        "           [--status-out=FILE] [--status-interval=S]\n"
        "           [--trace-sample=N]\n"
        "  --status-out      publish fleet_status.json while each phase runs\n"
        "                    (the last phase's final snapshot wins)\n"
        "  --status-interval publish cadence in seconds (default 1.0)\n"
        "  --trace-sample    emit causal spans for every Nth robot, so the\n"
        "                    capacity gate runs with tracing tax included\n";
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&arg](const std::string& name,
                                 std::string* out) {
      const std::string prefix = name + "=";
      if (arg.rfind(prefix, 0) != 0) return false;
      *out = arg.substr(prefix.size());
      return true;
    };
    std::string value;
    const auto parse_count = [&](std::size_t* out) {
      const auto n = common::parse_u64(value);
      if (!n || *n == 0) {
        std::cerr << "fleet_throughput: " << arg
                  << " expects a positive integer\n";
        return false;
      }
      *out = static_cast<std::size_t>(*n);
      return true;
    };
    if (arg == "--help" || arg == "-h") {
      return usage(std::cout, 0);
    } else if (value_of("--robots", &value)) {
      if (!parse_count(&o.robots)) return 2;
    } else if (value_of("--shards", &value)) {
      const auto n = common::parse_u64(value);
      if (!n) {
        std::cerr << "fleet_throughput: --shards expects a non-negative "
                     "integer\n";
        return 2;
      }
      o.shards = static_cast<std::size_t>(*n);
    } else if (value_of("--hz", &value)) {
      const auto f = common::parse_double(value);
      if (!f || *f <= 0.0) {
        std::cerr << "fleet_throughput: --hz expects a positive number\n";
        return 2;
      }
      o.hz = *f;
    } else if (value_of("--iterations", &value)) {
      if (!parse_count(&o.iterations)) return 2;
    } else if (value_of("--paced-iterations", &value)) {
      if (!parse_count(&o.paced_iterations)) return 2;
    } else if (value_of("--missions", &value)) {
      if (!parse_count(&o.missions)) return 2;
    } else if (value_of("--producers", &value)) {
      if (!parse_count(&o.producers)) return 2;
    } else if (value_of("--seed", &value)) {
      const auto n = common::parse_u64(value);
      if (!n) {
        std::cerr << "fleet_throughput: --seed expects a non-negative "
                     "integer\n";
        return 2;
      }
      o.seed = *n;
    } else if (value_of("--json-out", &value)) {
      o.json_out = value;
    } else if (value_of("--status-out", &value)) {
      o.status_out = value;
    } else if (value_of("--status-interval", &value)) {
      const auto f = common::parse_double(value);
      if (!f || *f <= 0.0) {
        std::cerr << "fleet_throughput: --status-interval expects a positive "
                     "number of seconds\n";
        return 2;
      }
      o.status_interval_s = *f;
    } else if (value_of("--trace-sample", &value)) {
      const auto n = common::parse_u64(value);
      if (!n || *n == 0) {
        std::cerr << "fleet_throughput: --trace-sample expects a positive "
                     "integer (sample every Nth robot)\n";
        return 2;
      }
      o.trace_sample = static_cast<std::size_t>(*n);
    } else {
      std::cerr << "fleet_throughput: unknown argument " << arg << "\n";
      return usage(std::cerr, 2);
    }
  }

  try {
    eval::KheperaPlatform platform;
    std::vector<eval::MissionResult> missions;
    for (std::size_t m = 0; m < std::min(o.missions, o.robots); ++m) {
      eval::MissionConfig cfg;
      cfg.iterations = o.iterations;
      cfg.seed = o.seed + m;
      missions.push_back(eval::run_mission(
          platform,
          scenario::compile_spec(scenario::khepera_table2_spec(8), platform),
          cfg));
    }

    std::vector<PhaseResult> phases;
    phases.push_back(run_phase("fleet/max_rate", o, platform, missions,
                               o.iterations, /*pace_hz=*/0.0));
    phases.push_back(run_phase("fleet/paced", o, platform, missions,
                               std::min(o.paced_iterations, o.iterations),
                               o.hz));

    for (const PhaseResult& p : phases) {
      const double steps_per_s =
          p.wall_seconds > 0.0 ? static_cast<double>(p.steps) / p.wall_seconds
                               : 0.0;
      std::printf(
          "%-14s %7.2fs wall  %9llu steps  %10.0f steps/s  dropped %llu\n"
          "               ingest->step p50<=%.0fns p99<=%.0fns  "
          "ingest->alarm p50<=%.0fns p99<=%.0fns\n"
          "               ring high-water %zu%s\n",
          p.name.c_str(), p.wall_seconds,
          static_cast<unsigned long long>(p.steps), steps_per_s,
          static_cast<unsigned long long>(p.dropped), p.p50_step_ns,
          p.p99_step_ns, p.p50_alarm_ns, p.p99_alarm_ns, p.queue_high_water,
          o.trace_sample > 0
              ? ("  spans " + std::to_string(p.spans)).c_str()
              : "");
    }

    if (!o.json_out.empty()) {
      std::ofstream os(o.json_out, std::ios::trunc);
      if (!os) {
        std::cerr << "fleet_throughput: cannot write " << o.json_out << "\n";
        return 2;
      }
      write_json(o, phases, os);
    }

    // The capacity gate: the max-rate phase must sustain at least
    // robots × hz detector steps per second, or the "fleet at control
    // rate on one box" claim is false.
    const PhaseResult& max_rate = phases.front();
    const double sustained =
        max_rate.wall_seconds > 0.0
            ? static_cast<double>(max_rate.steps) / max_rate.wall_seconds
            : 0.0;
    const double required = static_cast<double>(o.robots) * o.hz;
    if (sustained < required) {
      std::cerr << "fleet_throughput: sustained " << sustained
                << " steps/s < required " << required << " (" << o.robots
                << " robots x " << o.hz << " Hz)\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "fleet_throughput: " << e.what() << "\n";
    return 2;
  }
}

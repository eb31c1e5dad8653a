#include "fleet/introspect.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/check.h"
#include "obs/json.h"
#include "obs/jsonl.h"
#include "obs/report.h"

namespace roboads::fleet {
namespace {

namespace json = obs::json;

void write_shard(std::ostream& os, const ShardStat& s) {
  os << '{';
  json::write_field_key(os, "shard", /*first=*/true);
  os << s.shard;
  json::write_field_key(os, "sessions");
  os << s.sessions;
  json::write_field_key(os, "steps");
  os << s.steps;
  json::write_field_key(os, "sensor_alarms");
  os << s.sensor_alarms;
  json::write_field_key(os, "actuator_alarms");
  os << s.actuator_alarms;
  json::write_field_key(os, "quarantine_iterations");
  os << s.quarantine_iterations;
  json::write_field_key(os, "dropped_packets");
  os << s.dropped_packets;
  json::write_field_key(os, "forwarded_packets");
  os << s.forwarded_packets;
  json::write_field_key(os, "queue_depth");
  os << s.queue_depth;
  json::write_field_key(os, "queue_high_water");
  os << s.queue_high_water;
  json::write_field_key(os, "reorder_pending");
  os << s.reorder_pending;
  json::write_field_key(os, "ewma_queue_depth");
  json::write_number(os, s.ewma_queue_depth);
  json::write_field_key(os, "ewma_steps_per_s");
  json::write_number(os, s.ewma_steps_per_s);
  json::write_field_key(os, "ingest_to_step_ns");
  obs::write_histogram(os, s.ingest_to_step_ns);
  json::write_field_key(os, "ingest_to_alarm_ns");
  obs::write_histogram(os, s.ingest_to_alarm_ns);
  os << '}';
}

ShardStat parse_shard(const json::Fields& f) {
  ShardStat s;
  s.shard = static_cast<std::size_t>(f.integer("shard"));
  s.sessions = static_cast<std::uint64_t>(f.integer("sessions"));
  s.steps = static_cast<std::uint64_t>(f.integer("steps"));
  s.sensor_alarms = static_cast<std::uint64_t>(f.integer("sensor_alarms"));
  s.actuator_alarms = static_cast<std::uint64_t>(f.integer("actuator_alarms"));
  s.quarantine_iterations =
      static_cast<std::uint64_t>(f.integer("quarantine_iterations"));
  s.dropped_packets = static_cast<std::uint64_t>(f.integer("dropped_packets"));
  s.forwarded_packets =
      static_cast<std::uint64_t>(f.integer("forwarded_packets"));
  s.queue_depth = static_cast<std::size_t>(f.integer("queue_depth"));
  s.queue_high_water = static_cast<std::size_t>(f.integer("queue_high_water"));
  s.reorder_pending = static_cast<std::uint64_t>(f.integer("reorder_pending"));
  s.ewma_queue_depth = f.number("ewma_queue_depth");
  s.ewma_steps_per_s = f.number("ewma_steps_per_s");
  s.ingest_to_step_ns = obs::parse_histogram(json::Fields(
      f.at("ingest_to_step_ns").members, "shard field 'ingest_to_step_ns'"));
  s.ingest_to_alarm_ns = obs::parse_histogram(json::Fields(
      f.at("ingest_to_alarm_ns").members, "shard field 'ingest_to_alarm_ns'"));
  return s;
}

void write_robot(std::ostream& os, const RobotStat& r) {
  os << '{';
  json::write_field_key(os, "robot", /*first=*/true);
  os << r.robot;
  json::write_field_key(os, "shard");
  os << r.shard;
  json::write_field_key(os, "steps");
  os << r.steps;
  json::write_field_key(os, "sensor_alarms");
  os << r.sensor_alarms;
  json::write_field_key(os, "actuator_alarms");
  os << r.actuator_alarms;
  json::write_field_key(os, "late_packets");
  os << r.late_packets;
  json::write_field_key(os, "duplicate_packets");
  os << r.duplicate_packets;
  json::write_field_key(os, "forced_evictions");
  os << r.forced_evictions;
  json::write_field_key(os, "masked_steps");
  os << r.masked_steps;
  json::write_field_key(os, "command_substituted");
  os << r.command_substituted;
  json::write_field_key(os, "reorder_pending");
  os << r.reorder_pending;
  json::write_field_key(os, "ewma_steps_per_s");
  json::write_number(os, r.ewma_steps_per_s);
  json::write_field_key(os, "ewma_step_latency_ns");
  json::write_number(os, r.ewma_step_latency_ns);
  json::write_field_key(os, "traced");
  os << (r.traced ? "true" : "false");
  os << '}';
}

RobotStat parse_robot(const json::Fields& f) {
  RobotStat r;
  r.robot = static_cast<std::uint64_t>(f.integer("robot"));
  r.shard = static_cast<std::size_t>(f.integer("shard"));
  r.steps = static_cast<std::uint64_t>(f.integer("steps"));
  r.sensor_alarms = static_cast<std::uint64_t>(f.integer("sensor_alarms"));
  r.actuator_alarms = static_cast<std::uint64_t>(f.integer("actuator_alarms"));
  r.late_packets = static_cast<std::uint64_t>(f.integer("late_packets"));
  r.duplicate_packets =
      static_cast<std::uint64_t>(f.integer("duplicate_packets"));
  r.forced_evictions =
      static_cast<std::uint64_t>(f.integer("forced_evictions"));
  r.masked_steps = static_cast<std::uint64_t>(f.integer("masked_steps"));
  r.command_substituted =
      static_cast<std::uint64_t>(f.integer("command_substituted"));
  r.reorder_pending = static_cast<std::uint64_t>(f.integer("reorder_pending"));
  r.ewma_steps_per_s = f.number("ewma_steps_per_s");
  r.ewma_step_latency_ns = f.number("ewma_step_latency_ns");
  r.traced = f.boolean("traced");
  return r;
}

void write_alarm(std::ostream& os, const FleetAlarm& a) {
  os << '{';
  json::write_field_key(os, "unix_time", /*first=*/true);
  json::write_number(os, a.unix_time);
  json::write_field_key(os, "robot");
  os << a.robot;
  json::write_field_key(os, "k");
  os << a.k;
  json::write_field_key(os, "sensor");
  os << (a.sensor ? "true" : "false");
  json::write_field_key(os, "actuator");
  os << (a.actuator ? "true" : "false");
  json::write_field_key(os, "latency_ns");
  json::write_number(os, a.latency_ns);
  os << '}';
}

FleetAlarm parse_alarm(const json::Fields& f) {
  FleetAlarm a;
  a.unix_time = f.number("unix_time");
  a.robot = static_cast<std::uint64_t>(f.integer("robot"));
  a.k = static_cast<std::uint64_t>(f.integer("k"));
  a.sensor = f.boolean("sensor");
  a.actuator = f.boolean("actuator");
  a.latency_ns = f.number("latency_ns");
  return a;
}

void write_hint(std::ostream& os, const RebalanceHint& h) {
  os << '{';
  json::write_field_key(os, "robot", /*first=*/true);
  os << h.robot;
  json::write_field_key(os, "from_shard");
  os << h.from_shard;
  json::write_field_key(os, "to_shard");
  os << h.to_shard;
  json::write_field_key(os, "from_rate");
  json::write_number(os, h.from_rate);
  json::write_field_key(os, "to_rate");
  json::write_number(os, h.to_rate);
  json::write_field_key(os, "robot_rate");
  json::write_number(os, h.robot_rate);
  os << '}';
}

RebalanceHint parse_hint(const json::Fields& f) {
  RebalanceHint h;
  h.robot = static_cast<std::uint64_t>(f.integer("robot"));
  h.from_shard = static_cast<std::size_t>(f.integer("from_shard"));
  h.to_shard = static_cast<std::size_t>(f.integer("to_shard"));
  h.from_rate = f.number("from_rate");
  h.to_rate = f.number("to_rate");
  h.robot_rate = f.number("robot_rate");
  return h;
}

}  // namespace

std::vector<RebalanceHint> rebalance_hints(const std::vector<ShardStat>& shards,
                                           const std::vector<RobotStat>& robots,
                                           double hot_ratio) {
  std::vector<RebalanceHint> hints;
  if (shards.size() < 2 || hot_ratio <= 0.0) return hints;
  double mean_rate = 0.0;
  for (const ShardStat& s : shards) mean_rate += s.ewma_steps_per_s;
  mean_rate /= static_cast<double>(shards.size());
  if (mean_rate <= 0.0) return hints;

  // Target: the coolest shard (lowest EWMA rate; ties → lowest id).
  const ShardStat* coolest = &shards.front();
  for (const ShardStat& s : shards) {
    if (s.ewma_steps_per_s < coolest->ewma_steps_per_s) coolest = &s;
  }

  for (const ShardStat& s : shards) {
    if (s.sessions < 2) continue;  // nothing to shed without starving it
    if (s.shard == coolest->shard) continue;
    if (s.ewma_steps_per_s <= hot_ratio * mean_rate) continue;
    // The hot shard's busiest robot (ties → lowest id).
    const RobotStat* busiest = nullptr;
    for (const RobotStat& r : robots) {
      if (r.shard != s.shard) continue;
      if (busiest == nullptr ||
          r.ewma_steps_per_s > busiest->ewma_steps_per_s) {
        busiest = &r;
      }
    }
    if (busiest == nullptr) continue;
    RebalanceHint hint;
    hint.robot = busiest->robot;
    hint.from_shard = s.shard;
    hint.to_shard = coolest->shard;
    hint.from_rate = s.ewma_steps_per_s;
    hint.to_rate = coolest->ewma_steps_per_s;
    hint.robot_rate = busiest->ewma_steps_per_s;
    hints.push_back(hint);
  }
  std::sort(hints.begin(), hints.end(),
            [](const RebalanceHint& a, const RebalanceHint& b) {
              return a.from_shard < b.from_shard;
            });
  return hints;
}

std::string serialize_fleet_status(const FleetStatusSnapshot& status) {
  std::ostringstream os;
  os << '{';
  json::write_field_key(os, "event", /*first=*/true);
  os << "\"fleet_status\"";
  json::write_field_key(os, "name");
  os << "\"roboads-fleet-status\"";
  json::write_field_key(os, "version");
  os << 1;
  json::write_field_key(os, "unix_time");
  json::write_number(os, status.unix_time);
  json::write_field_key(os, "seq");
  os << status.seq;
  json::write_field_key(os, "robots");
  os << status.robots;
  json::write_field_key(os, "steps");
  os << status.steps;
  json::write_field_key(os, "sensor_alarms");
  os << status.sensor_alarms;
  json::write_field_key(os, "actuator_alarms");
  os << status.actuator_alarms;
  json::write_field_key(os, "quarantine_iterations");
  os << status.quarantine_iterations;
  json::write_field_key(os, "dropped_packets");
  os << status.dropped_packets;
  json::write_field_key(os, "forwarded_packets");
  os << status.forwarded_packets;
  json::write_field_key(os, "unknown_robot_packets");
  os << status.unknown_robot_packets;
  json::write_field_key(os, "trace_sample");
  os << status.trace_sample;
  json::write_field_key(os, "spans");
  os << status.spans;
  json::write_field_key(os, "ingest_to_step_ns");
  obs::write_histogram(os, status.ingest_to_step_ns);
  json::write_field_key(os, "ingest_to_alarm_ns");
  obs::write_histogram(os, status.ingest_to_alarm_ns);
  json::write_field_key(os, "shards");
  os << '[';
  for (std::size_t i = 0; i < status.shards.size(); ++i) {
    if (i > 0) os << ',';
    write_shard(os, status.shards[i]);
  }
  os << ']';
  json::write_field_key(os, "hot_robots");
  os << '[';
  for (std::size_t i = 0; i < status.hot_robots.size(); ++i) {
    if (i > 0) os << ',';
    write_robot(os, status.hot_robots[i]);
  }
  os << ']';
  json::write_field_key(os, "alarms");
  os << '[';
  for (std::size_t i = 0; i < status.alarms.size(); ++i) {
    if (i > 0) os << ',';
    write_alarm(os, status.alarms[i]);
  }
  os << ']';
  json::write_field_key(os, "hints");
  os << '[';
  for (std::size_t i = 0; i < status.hints.size(); ++i) {
    if (i > 0) os << ',';
    write_hint(os, status.hints[i]);
  }
  os << ']';
  os << '}';
  return os.str();
}

FleetStatusSnapshot parse_fleet_status(const std::string& line) {
  const std::string context = "fleet_status";
  json::Fields f(json::parse_object_line(line, context), context);
  if (f.string("event") != "fleet_status" ||
      f.string("name") != "roboads-fleet-status" || f.integer("version") != 1) {
    throw CheckError("not a roboads-fleet-status v1 snapshot");
  }
  FleetStatusSnapshot status;
  status.unix_time = f.number("unix_time");
  status.seq = static_cast<std::uint64_t>(f.integer("seq"));
  status.robots = static_cast<std::uint64_t>(f.integer("robots"));
  status.steps = static_cast<std::uint64_t>(f.integer("steps"));
  status.sensor_alarms = static_cast<std::uint64_t>(f.integer("sensor_alarms"));
  status.actuator_alarms =
      static_cast<std::uint64_t>(f.integer("actuator_alarms"));
  status.quarantine_iterations =
      static_cast<std::uint64_t>(f.integer("quarantine_iterations"));
  status.dropped_packets =
      static_cast<std::uint64_t>(f.integer("dropped_packets"));
  status.forwarded_packets =
      static_cast<std::uint64_t>(f.integer("forwarded_packets"));
  status.unknown_robot_packets =
      static_cast<std::uint64_t>(f.integer("unknown_robot_packets"));
  status.trace_sample = static_cast<std::size_t>(f.integer("trace_sample"));
  status.spans = static_cast<std::uint64_t>(f.integer("spans"));
  status.ingest_to_step_ns = obs::parse_histogram(
      json::Fields(f.at("ingest_to_step_ns").members,
                   "fleet_status field 'ingest_to_step_ns'"));
  status.ingest_to_alarm_ns = obs::parse_histogram(
      json::Fields(f.at("ingest_to_alarm_ns").members,
                   "fleet_status field 'ingest_to_alarm_ns'"));
  for (const json::Fields& s : f.objects("shards")) {
    status.shards.push_back(parse_shard(s));
  }
  for (const json::Fields& r : f.objects("hot_robots")) {
    status.hot_robots.push_back(parse_robot(r));
  }
  for (const json::Fields& a : f.objects("alarms")) {
    status.alarms.push_back(parse_alarm(a));
  }
  for (const json::Fields& h : f.objects("hints")) {
    status.hints.push_back(parse_hint(h));
  }
  return status;
}

void write_fleet_status_file(const std::string& path,
                             const FleetStatusSnapshot& status) {
  json::publish_line(path, serialize_fleet_status(status), "fleet status");
}

FleetStatusSnapshot read_fleet_status_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw CheckError(path + ": no fleet status snapshot (is a fleet run "
                     "publishing with --status-out/--status-interval?)");
  }
  std::string line;
  ROBOADS_CHECK(static_cast<bool>(std::getline(is, line)),
                path + ": empty fleet status snapshot");
  return parse_fleet_status(line);
}

std::string render_fleet_status(const FleetStatusSnapshot& status) {
  std::ostringstream os;
  char line[320];

  os << "== roboads_fleet top ==========================================\n";
  std::snprintf(line, sizeof(line),
                "fleet    %llu robots on %zu shards   seq %llu\n",
                static_cast<unsigned long long>(status.robots),
                status.shards.size(),
                static_cast<unsigned long long>(status.seq));
  os << line;
  std::snprintf(line, sizeof(line),
                "steps    %llu (sensor alarms %llu, actuator alarms %llu, "
                "quarantine %llu)\n",
                static_cast<unsigned long long>(status.steps),
                static_cast<unsigned long long>(status.sensor_alarms),
                static_cast<unsigned long long>(status.actuator_alarms),
                static_cast<unsigned long long>(status.quarantine_iterations));
  os << line;
  std::snprintf(line, sizeof(line),
                "ingest   dropped %llu  forwarded %llu  unknown-robot %llu\n",
                static_cast<unsigned long long>(status.dropped_packets),
                static_cast<unsigned long long>(status.forwarded_packets),
                static_cast<unsigned long long>(status.unknown_robot_packets));
  os << line;
  if (status.ingest_to_step_ns.count > 0) {
    std::snprintf(
        line, sizeof(line),
        "latency  ingest->step p50<=%s p99<=%s   ingest->alarm p99<=%s\n",
        obs::format_duration_ns(status.ingest_to_step_ns.quantile(0.50))
            .c_str(),
        obs::format_duration_ns(status.ingest_to_step_ns.quantile(0.99))
            .c_str(),
        obs::format_duration_ns(status.ingest_to_alarm_ns.quantile(0.99))
            .c_str());
    os << line;
  }
  if (status.trace_sample > 0) {
    std::snprintf(line, sizeof(line),
                  "spans    %llu emitted (sampling 1/%zu robots)\n",
                  static_cast<unsigned long long>(status.spans),
                  status.trace_sample);
    os << line;
  }

  os << "-- shards --\n";
  for (const ShardStat& s : status.shards) {
    std::snprintf(line, sizeof(line),
                  "  %2zu  sess %-4llu steps %-8llu drop %-5llu fwd %-4llu "
                  "depth %-4zu hw %-4zu pend %-4llu rate %7.1f/s p99<=%s\n",
                  s.shard, static_cast<unsigned long long>(s.sessions),
                  static_cast<unsigned long long>(s.steps),
                  static_cast<unsigned long long>(s.dropped_packets),
                  static_cast<unsigned long long>(s.forwarded_packets),
                  s.queue_depth, s.queue_high_water,
                  static_cast<unsigned long long>(s.reorder_pending),
                  s.ewma_steps_per_s,
                  obs::format_duration_ns(s.ingest_to_step_ns.quantile(0.99))
                      .c_str());
    os << line;
  }

  os << "-- hot robots --\n";
  if (status.hot_robots.empty()) os << "  (none yet)\n";
  for (const RobotStat& r : status.hot_robots) {
    std::snprintf(line, sizeof(line),
                  "  r%-5llu s%-2zu steps %-8llu rate %7.1f/s lat %-9s "
                  "late %-4llu dup %-4llu evict %-4llu%s\n",
                  static_cast<unsigned long long>(r.robot), r.shard,
                  static_cast<unsigned long long>(r.steps), r.ewma_steps_per_s,
                  obs::format_duration_ns(r.ewma_step_latency_ns).c_str(),
                  static_cast<unsigned long long>(r.late_packets),
                  static_cast<unsigned long long>(r.duplicate_packets),
                  static_cast<unsigned long long>(r.forced_evictions),
                  r.traced ? "  [traced]" : "");
    os << line;
  }

  if (!status.hints.empty()) {
    os << "-- rebalance hints --\n";
    for (const RebalanceHint& h : status.hints) {
      std::snprintf(line, sizeof(line),
                    "  move r%llu: shard %zu (%.1f/s) -> shard %zu (%.1f/s)\n",
                    static_cast<unsigned long long>(h.robot), h.from_shard,
                    h.from_rate, h.to_shard, h.to_rate);
      os << line;
    }
  }

  os << "-- alarms --\n";
  if (status.alarms.empty()) os << "  (none yet)\n";
  for (const FleetAlarm& a : status.alarms) {
    std::snprintf(line, sizeof(line),
                  "  r%-5llu k=%-6llu %s%s  latency %s\n",
                  static_cast<unsigned long long>(a.robot),
                  static_cast<unsigned long long>(a.k),
                  a.sensor ? "sensor" : "", a.actuator ? "actuator" : "",
                  obs::format_duration_ns(a.latency_ns).c_str());
    os << line;
  }
  os << "===============================================================\n";
  return os.str();
}

}  // namespace roboads::fleet

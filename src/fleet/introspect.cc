#include "fleet/introspect.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "obs/report.h"

namespace roboads::fleet {

std::vector<RebalanceHint> rebalance_hints(const std::vector<ShardStat>& shards,
                                           const std::vector<RobotStat>& robots) {
  std::vector<RebalanceHint> hints;
  if (shards.size() < 2) return hints;
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
    if (s.ewma_steps_per_s <= kHotShardRatio * mean_rate) continue;
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

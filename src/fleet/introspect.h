// Fleet introspection plane: the live fleet_status.json snapshot, the
// `roboads_fleet top` renderer, and the advisory rebalance-hint policy
// (docs/OBSERVABILITY.md "Fleet introspection", docs/FLEET.md).
//
// The service builds a FleetStatusSnapshot between pump passes — the only
// moment per-robot session counters and reorder-window occupancy are
// readable without racing the shard workers — and publishes it atomically
// (write <path>.tmp, rename), the same reader-never-sees-a-partial-file
// discipline as the shard supervisor's status.json (shard/status.cc).
//
// Serialization is the record codec's single-line JSON with round-trip
// numbers, so write → read → write is byte-stable: `roboads_fleet top
// --once --json` re-emits exactly the published line, and the per-shard
// latency histograms are HistogramSnapshot objects whose merge algebra the
// fleet-level histograms are provably the exact fold of
// (tests/fleet_introspect_test.cc).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace roboads::fleet {

// Hot-robot rows kept in the snapshot (ranked by EWMA step rate).
inline constexpr std::size_t kTopRobots = 8;
// Rolling alarm-feed length (per shard ring and merged snapshot feed).
inline constexpr std::size_t kAlarmFeed = 16;
// EWMA smoothing factor for rates/depths/latencies.
inline constexpr double kEwmaAlpha = 0.2;
// A shard whose EWMA step rate exceeds kHotShardRatio × the fleet mean
// (and holds >= 2 sessions) emits an advisory rebalance hint.
inline constexpr double kHotShardRatio = 1.25;

// Introspection knobs carried inside FleetConfig. Everything defaults off:
// the service pays nothing beyond always-on counters unless asked.
struct FleetIntrospectConfig {
  // fleet_status.json target; empty = no status publishing.
  std::string status_path;
  // Minimum seconds between pump-side publishes; <= 0 publishes on every
  // pump pass (useful in tests and short smokes).
  double status_interval_s = 1.0;
  // Span sampling: every N-th robot (id % N == 0) emits causal spans into
  // `span_sink`. 0 = tracing off. Requires span_sink when non-zero.
  std::size_t trace_sample = 0;
  obs::TraceSink* span_sink = nullptr;
};

// One shard's row: its counters and latency histograms (FleetService::
// status() fills these) plus the live introspection extras the snapshot
// adds (reorder occupancy, EWMAs).
struct ShardStat {
  std::size_t shard = 0;
  std::uint64_t sessions = 0;
  std::uint64_t steps = 0;
  std::uint64_t sensor_alarms = 0;
  std::uint64_t actuator_alarms = 0;
  std::uint64_t quarantine_iterations = 0;
  std::uint64_t dropped_packets = 0;
  std::uint64_t forwarded_packets = 0;
  std::size_t queue_depth = 0;       // approximate, at snapshot time
  std::size_t queue_high_water = 0;  // deepest the ring has ever been
  std::uint64_t reorder_pending = 0; // frames awaiting reassembly, summed
  double ewma_queue_depth = 0.0;
  double ewma_steps_per_s = 0.0;
  obs::HistogramSnapshot ingest_to_step_ns;
  obs::HistogramSnapshot ingest_to_alarm_ns;
};

// One robot's row: the session's stream counters plus live occupancy and
// the EWMAs the hot-robot ranking orders by.
struct RobotStat {
  std::uint64_t robot = 0;
  std::size_t shard = 0;
  std::uint64_t steps = 0;
  std::uint64_t sensor_alarms = 0;
  std::uint64_t actuator_alarms = 0;
  std::uint64_t late_packets = 0;
  std::uint64_t duplicate_packets = 0;
  std::uint64_t forced_evictions = 0;
  std::uint64_t masked_steps = 0;
  std::uint64_t command_substituted = 0;
  std::uint64_t reorder_pending = 0;  // this robot's half-assembled frames
  double ewma_steps_per_s = 0.0;
  double ewma_step_latency_ns = 0.0;  // per-sample EWMA of ingest→step
  bool traced = false;                // emits spans (trace_sample hit)
};

// Rolling alarm-feed entry.
struct FleetAlarm {
  double unix_time = 0.0;
  std::uint64_t robot = 0;
  std::uint64_t k = 0;      // control iteration that raised the alarm
  bool sensor = false;
  bool actuator = false;
  double latency_ns = 0.0;  // ingest→alarm for the frame (0 = unknown)
};

// Advisory output of the hot-shard policy: "shard `from_shard` is running
// hot; its busiest robot would fit on `to_shard`". The data feed for the
// ROADMAP's dynamic rebalancer — no migration is performed.
struct RebalanceHint {
  std::uint64_t robot = 0;
  std::size_t from_shard = 0;
  std::size_t to_shard = 0;
  double from_rate = 0.0;   // hot shard's EWMA steps/s
  double to_rate = 0.0;     // target shard's EWMA steps/s
  double robot_rate = 0.0;  // the robot's own EWMA steps/s
};

struct FleetStatusSnapshot {
  double unix_time = 0.0;
  std::uint64_t seq = 0;  // publish sequence number, 1-based
  std::uint64_t robots = 0;
  std::uint64_t steps = 0;
  std::uint64_t sensor_alarms = 0;
  std::uint64_t actuator_alarms = 0;
  std::uint64_t quarantine_iterations = 0;
  std::uint64_t dropped_packets = 0;
  std::uint64_t forwarded_packets = 0;
  std::uint64_t unknown_robot_packets = 0;
  std::size_t trace_sample = 0;  // 0 = spans off
  std::uint64_t spans = 0;       // span events emitted so far
  // Exactly merge_snapshots over the shard rows' histograms — pinned by
  // tests/fleet_introspect_test.cc and the fleet-watch-smoke.
  obs::HistogramSnapshot ingest_to_step_ns;
  obs::HistogramSnapshot ingest_to_alarm_ns;
  std::vector<ShardStat> shards;       // shard order
  std::vector<RobotStat> hot_robots;   // hottest first
  std::vector<FleetAlarm> alarms;      // oldest → newest
  std::vector<RebalanceHint> hints;    // from_shard order
};

// The pure hint policy, unit-testable without a live service: a shard is
// hot when its EWMA step rate exceeds kHotShardRatio × the mean over all
// shards and it holds >= 2 sessions (a single-robot shard has nothing to
// shed). Each hot shard contributes one hint naming its highest-rate robot
// and the lowest-rate shard as the target. `robots` may be all robots or
// any superset of the hot shards' robots.
std::vector<RebalanceHint> rebalance_hints(const std::vector<ShardStat>& shards,
                                           const std::vector<RobotStat>& robots);

// Wire form (obs/jsonl.h record codec): one line, byte-stable through
// write→read→write, so `roboads_fleet top --once --json` re-emits the
// published line exactly.
template <class IO>
void codec(IO& io, ShardStat& s) {
  io("shard", s.shard);
  io("sessions", s.sessions);
  io("steps", s.steps);
  io("sensor_alarms", s.sensor_alarms);
  io("actuator_alarms", s.actuator_alarms);
  io("quarantine_iterations", s.quarantine_iterations);
  io("dropped_packets", s.dropped_packets);
  io("forwarded_packets", s.forwarded_packets);
  io("queue_depth", s.queue_depth);
  io("queue_high_water", s.queue_high_water);
  io("reorder_pending", s.reorder_pending);
  io("ewma_queue_depth", s.ewma_queue_depth);
  io("ewma_steps_per_s", s.ewma_steps_per_s);
  io("ingest_to_step_ns", s.ingest_to_step_ns);
  io("ingest_to_alarm_ns", s.ingest_to_alarm_ns);
}

template <class IO>
void codec(IO& io, RobotStat& r) {
  io("robot", r.robot);
  io("shard", r.shard);
  io("steps", r.steps);
  io("sensor_alarms", r.sensor_alarms);
  io("actuator_alarms", r.actuator_alarms);
  io("late_packets", r.late_packets);
  io("duplicate_packets", r.duplicate_packets);
  io("forced_evictions", r.forced_evictions);
  io("masked_steps", r.masked_steps);
  io("command_substituted", r.command_substituted);
  io("reorder_pending", r.reorder_pending);
  io("ewma_steps_per_s", r.ewma_steps_per_s);
  io("ewma_step_latency_ns", r.ewma_step_latency_ns);
  io("traced", r.traced);
}

template <class IO>
void codec(IO& io, FleetAlarm& a) {
  io("unix_time", a.unix_time);
  io("robot", a.robot);
  io("k", a.k);
  io("sensor", a.sensor);
  io("actuator", a.actuator);
  io("latency_ns", a.latency_ns);
}

template <class IO>
void codec(IO& io, RebalanceHint& h) {
  io("robot", h.robot);
  io("from_shard", h.from_shard);
  io("to_shard", h.to_shard);
  io("from_rate", h.from_rate);
  io("to_rate", h.to_rate);
  io("robot_rate", h.robot_rate);
}

template <class IO>
void codec(IO& io, FleetStatusSnapshot& s) {
  io.tag("event", "fleet_status");
  io.tag("name", "roboads-fleet-status");
  io.tag("version", 1);
  io("unix_time", s.unix_time);
  io("seq", s.seq);
  io("robots", s.robots);
  io("steps", s.steps);
  io("sensor_alarms", s.sensor_alarms);
  io("actuator_alarms", s.actuator_alarms);
  io("quarantine_iterations", s.quarantine_iterations);
  io("dropped_packets", s.dropped_packets);
  io("forwarded_packets", s.forwarded_packets);
  io("unknown_robot_packets", s.unknown_robot_packets);
  io("trace_sample", s.trace_sample);
  io("spans", s.spans);
  io("ingest_to_step_ns", s.ingest_to_step_ns);
  io("ingest_to_alarm_ns", s.ingest_to_alarm_ns);
  io("shards", s.shards);
  io("hot_robots", s.hot_robots);
  io("alarms", s.alarms);
  io("hints", s.hints);
}

// Published atomically with obs::json::publish; obs::json::read_snapshot
// throws CheckError when the file is missing, unreadable or not a v1
// snapshot.
inline constexpr obs::json::SnapshotFile<FleetStatusSnapshot>
    kFleetStatusFile{"fleet status",
                     "is a fleet run publishing with "
                     "--status-out/--status-interval?"};

// The `roboads_fleet top` terminal frame: fleet totals, shard table,
// hot-robot ranking, rebalance hints, rolling alarm feed.
std::string render_fleet_status(const FleetStatusSnapshot& status);

}  // namespace roboads::fleet

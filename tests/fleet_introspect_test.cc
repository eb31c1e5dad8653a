// Fleet introspection plane (docs/OBSERVABILITY.md "Fleet introspection"):
// snapshot serialization byte-stability, atomic file publish/read, the pure
// rebalance-hint policy, and the end-to-end acceptance pin — a fleet run
// with EVERY introspection knob on (span tracing, status publishing) stays
// bit-identical to the serial missions, the fleet-level histograms are
// exactly merge_snapshots over the per-shard rows, the robot rows agree
// with the sessions' own counters, and `top --once --json` (i.e.
// serialize(parse(file))) re-emits the published snapshot byte-for-byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "eval/khepera.h"
#include "eval/mission.h"
#include "fleet/introspect.h"
#include "fleet/replay.h"
#include "fleet/service.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "scenario/compile.h"
#include "scenario/library.h"

namespace roboads::fleet {
namespace {

std::string hist_line(const obs::HistogramSnapshot& h) {
  std::ostringstream os;
  obs::json::write(os, h);
  return os.str();
}

obs::HistogramSnapshot sample_hist(std::uint64_t seed) {
  obs::HistogramSnapshot h =
      obs::HistogramSnapshot::with_bounds(obs::default_latency_bounds_ns());
  for (std::uint64_t i = 0; i < 20; ++i) {
    h.record(static_cast<double>((seed * 977 + i * 7919) % 5'000'000));
  }
  return h;
}

// A fully populated synthetic snapshot: every optional section non-empty,
// so the round-trip test exercises each serializer branch.
FleetStatusSnapshot synthetic_snapshot() {
  FleetStatusSnapshot s;
  s.unix_time = 1754500000.125;
  s.seq = 7;
  s.robots = 3;
  s.steps = 360;
  s.sensor_alarms = 11;
  s.actuator_alarms = 4;
  s.quarantine_iterations = 2;
  s.dropped_packets = 5;
  s.forwarded_packets = 1;
  s.unknown_robot_packets = 9;
  s.trace_sample = 2;
  s.spans = 120;
  s.ingest_to_step_ns = sample_hist(1);
  s.ingest_to_alarm_ns = sample_hist(2);
  for (std::size_t i = 0; i < 2; ++i) {
    ShardStat sh;
    sh.shard = i;
    sh.sessions = 1 + i;
    sh.steps = 100 + i;
    sh.sensor_alarms = i;
    sh.actuator_alarms = 2 * i;
    sh.quarantine_iterations = i;
    sh.dropped_packets = 3 * i;
    sh.forwarded_packets = i;
    sh.queue_depth = 4 + i;
    sh.queue_high_water = 40 + i;
    sh.reorder_pending = i;
    sh.ewma_queue_depth = 1.5 + static_cast<double>(i);
    sh.ewma_steps_per_s = 250.25 * static_cast<double>(i + 1);
    sh.ingest_to_step_ns = sample_hist(3 + i);
    sh.ingest_to_alarm_ns = sample_hist(5 + i);
    s.shards.push_back(sh);
  }
  RobotStat r;
  r.robot = 42;
  r.shard = 1;
  r.steps = 60;
  r.sensor_alarms = 3;
  r.actuator_alarms = 1;
  r.late_packets = 2;
  r.duplicate_packets = 1;
  r.forced_evictions = 1;
  r.masked_steps = 4;
  r.command_substituted = 2;
  r.reorder_pending = 1;
  r.ewma_steps_per_s = 9.875;
  r.ewma_step_latency_ns = 123456.5;
  r.traced = true;
  s.hot_robots.push_back(r);
  FleetAlarm a;
  a.unix_time = 1754499999.5;
  a.robot = 42;
  a.k = 77;
  a.sensor = true;
  a.actuator = false;
  a.latency_ns = 250000.0;
  s.alarms.push_back(a);
  RebalanceHint h;
  h.robot = 42;
  h.from_shard = 1;
  h.to_shard = 0;
  h.from_rate = 500.5;
  h.to_rate = 100.25;
  h.robot_rate = 9.875;
  s.hints.push_back(h);
  return s;
}

TEST(FleetIntrospect, SerializeParseSerializeIsByteStable) {
  const FleetStatusSnapshot s = synthetic_snapshot();
  const std::string once = obs::json::encode(s);
  const std::string twice = obs::json::encode(
      obs::json::decode<FleetStatusSnapshot>(once, "fleet_status"));
  EXPECT_EQ(once, twice);
  EXPECT_EQ(once.find('\n'), std::string::npos);  // single line
}

TEST(FleetIntrospect, ParseRecoversEveryField) {
  const FleetStatusSnapshot s = synthetic_snapshot();
  const FleetStatusSnapshot p = obs::json::decode<FleetStatusSnapshot>(
      obs::json::encode(s), "fleet_status");
  EXPECT_EQ(p.seq, s.seq);
  EXPECT_EQ(p.robots, s.robots);
  EXPECT_EQ(p.trace_sample, s.trace_sample);
  EXPECT_EQ(p.spans, s.spans);
  ASSERT_EQ(p.shards.size(), s.shards.size());
  EXPECT_EQ(p.shards[1].queue_high_water, s.shards[1].queue_high_water);
  EXPECT_EQ(hist_line(p.shards[1].ingest_to_step_ns),
            hist_line(s.shards[1].ingest_to_step_ns));
  ASSERT_EQ(p.hot_robots.size(), 1u);
  EXPECT_EQ(p.hot_robots[0].robot, 42u);
  EXPECT_TRUE(p.hot_robots[0].traced);
  EXPECT_DOUBLE_EQ(p.hot_robots[0].ewma_step_latency_ns, 123456.5);
  ASSERT_EQ(p.alarms.size(), 1u);
  EXPECT_TRUE(p.alarms[0].sensor);
  EXPECT_EQ(p.alarms[0].k, 77u);
  ASSERT_EQ(p.hints.size(), 1u);
  EXPECT_EQ(p.hints[0].to_shard, 0u);
  EXPECT_DOUBLE_EQ(p.hints[0].from_rate, 500.5);
}

TEST(FleetIntrospect, ParseRejectsNonSnapshots) {
  EXPECT_THROW(
      obs::json::decode<FleetStatusSnapshot>("not json", "fleet_status"),
      CheckError);
  EXPECT_THROW(obs::json::decode<FleetStatusSnapshot>(
                   "{\"event\":\"iteration\"}", "fleet_status"),
               CheckError);
}

TEST(FleetIntrospect, FilePublishAndReadBack) {
  const std::string path =
      ::testing::TempDir() + "fleet_introspect_status.json";
  const FleetStatusSnapshot s = synthetic_snapshot();
  obs::json::publish(path, s, kFleetStatusFile);
  const FleetStatusSnapshot back =
      obs::json::read_snapshot(path, kFleetStatusFile);
  EXPECT_EQ(obs::json::encode(back), obs::json::encode(s));

  // `top --once --json` contract: the file is the serialized line plus a
  // trailing newline, nothing else.
  std::ifstream is(path);
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line, obs::json::encode(s));
  std::string rest;
  EXPECT_FALSE(std::getline(is, rest));
}

TEST(FleetIntrospect, ReadMissingFileThrowsWithHint) {
  try {
    obs::json::read_snapshot(::testing::TempDir() + "no_such_status.json",
                             kFleetStatusFile);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("--status-out"), std::string::npos);
  }
}

ShardStat shard_row(std::size_t shard, double rate, std::uint64_t sessions) {
  ShardStat s;
  s.shard = shard;
  s.ewma_steps_per_s = rate;
  s.sessions = sessions;
  return s;
}

RobotStat robot_row(std::uint64_t robot, std::size_t shard, double rate) {
  RobotStat r;
  r.robot = robot;
  r.shard = shard;
  r.ewma_steps_per_s = rate;
  return r;
}

TEST(FleetIntrospect, RebalanceHintNamesHottestRobotAndCoolestShard) {
  const std::vector<ShardStat> shards = {shard_row(0, 100.0, 3),
                                         shard_row(1, 10.0, 2),
                                         shard_row(2, 10.0, 1)};
  const std::vector<RobotStat> robots = {
      robot_row(5, 0, 30.0), robot_row(6, 0, 50.0), robot_row(7, 0, 50.0),
      robot_row(1, 1, 10.0)};
  // Mean rate 40; shard 0 (100 > 1.25 * 40, 3 sessions) is hot. Coolest
  // shard is the rate tie between 1 and 2, broken toward the lower id.
  // Busiest robot is the 50.0 tie between 6 and 7, broken toward 6.
  const std::vector<RebalanceHint> hints =
      rebalance_hints(shards, robots, 1.25);
  ASSERT_EQ(hints.size(), 1u);
  EXPECT_EQ(hints[0].robot, 6u);
  EXPECT_EQ(hints[0].from_shard, 0u);
  EXPECT_EQ(hints[0].to_shard, 1u);
  EXPECT_DOUBLE_EQ(hints[0].from_rate, 100.0);
  EXPECT_DOUBLE_EQ(hints[0].to_rate, 10.0);
  EXPECT_DOUBLE_EQ(hints[0].robot_rate, 50.0);
}

TEST(FleetIntrospect, BalancedFleetEmitsNoHints) {
  const std::vector<ShardStat> shards = {shard_row(0, 50.0, 2),
                                         shard_row(1, 50.0, 2)};
  const std::vector<RobotStat> robots = {robot_row(0, 0, 25.0),
                                         robot_row(1, 1, 25.0)};
  EXPECT_TRUE(rebalance_hints(shards, robots, 1.25).empty());
}

TEST(FleetIntrospect, SingleSessionShardNeverSheds) {
  // One screaming robot alone on its shard: hot, but migrating its only
  // session is pointless, so no hint.
  const std::vector<ShardStat> shards = {shard_row(0, 100.0, 1),
                                         shard_row(1, 1.0, 1)};
  const std::vector<RobotStat> robots = {robot_row(0, 0, 100.0),
                                         robot_row(1, 1, 1.0)};
  EXPECT_TRUE(rebalance_hints(shards, robots, 1.25).empty());
}

// ---------------------------------------------------------------------------
// The acceptance pin: a fleet with every introspection knob on.

struct Fixture {
  eval::KheperaPlatform platform;
  std::shared_ptr<const SessionSpec> spec;
  std::vector<eval::MissionResult> missions;

  explicit Fixture(std::size_t robots, std::size_t iterations = 50) {
    spec = make_session_spec(platform);
    for (std::size_t r = 0; r < robots; ++r) {
      eval::MissionConfig cfg;
      cfg.iterations = iterations;
      // Seeds and length match tests/fleet_service_test.cc's fixture, whose
      // parity test asserts the scenario-8 robots really alarm by then.
      cfg.seed = 100 + r;
      const attacks::Scenario sc =
          r % 2 == 0 ? platform.clean_scenario()
                     : scenario::compile_spec(scenario::khepera_table2_spec(8),
                                              platform);
      missions.push_back(eval::run_mission(platform, sc, cfg));
    }
  }
};

std::int64_t int_field(const obs::TraceEvent& e, const std::string& name) {
  for (const auto& [key, value] : e.fields) {
    if (key == name) return std::get<std::int64_t>(value);
  }
  ADD_FAILURE() << "span event missing field " << name;
  return 0;
}

TEST(FleetIntrospect, EndToEndSnapshotWithEveryKnobOn) {
  const Fixture fx(8);
  const std::string status_path =
      ::testing::TempDir() + "fleet_introspect_e2e.json";

  obs::TraceSink spans;
  FleetConfig config;
  config.shards = 2;
  config.introspect.trace_sample = 2;  // robots 0, 2, 4, 6
  config.introspect.span_sink = &spans;
  config.introspect.status_path = status_path;
  config.introspect.status_interval_s = 0.0;  // publish on every pass
  std::vector<std::vector<core::DetectionReport>> streamed(fx.missions.size());
  config.on_report = [&streamed](std::uint64_t robot,
                                 const core::DetectionReport& report,
                                 std::uint64_t) {
    streamed[robot].push_back(report);
  };
  FleetService fleet(config);
  for (std::size_t r = 0; r < fx.missions.size(); ++r) fleet.add_robot(fx.spec);

  std::size_t max_iters = 0;
  for (const eval::MissionResult& m : fx.missions) {
    max_iters = std::max(max_iters, m.records.size());
  }
  for (std::size_t i = 0; i < max_iters; ++i) {
    for (std::size_t r = 0; r < fx.missions.size(); ++r) {
      if (i >= fx.missions[r].records.size()) continue;
      std::vector<FleetPacket> one;
      append_iteration_packets(one, r, fx.platform.suite(),
                               fx.missions[r].records[i]);
      for (FleetPacket& p : one) fleet.submit(std::move(p));
    }
  }
  fleet.drain();
  EXPECT_EQ(fleet.flush_sessions(), 0u);
  fleet.publish_status_now();

  // 1. Bit-identity with every introspection knob on — the whole point.
  for (std::size_t r = 0; r < fx.missions.size(); ++r) {
    ASSERT_EQ(streamed[r].size(), fx.missions[r].records.size());
    for (std::size_t i = 0; i < streamed[r].size(); ++i) {
      const std::string diff =
          compare_reports(fx.missions[r].records[i].report, streamed[r][i]);
      ASSERT_TRUE(diff.empty())
          << "robot " << r << " iteration " << i + 1 << ": " << diff;
    }
  }

  const FleetStatusSnapshot status =
      obs::json::read_snapshot(status_path, kFleetStatusFile);
  EXPECT_GE(status.seq, 1u);
  EXPECT_EQ(status.robots, fx.missions.size());
  EXPECT_EQ(status.trace_sample, 2u);

  // 2. Fleet histograms are exactly the merge of the shard rows'.
  std::vector<obs::HistogramSnapshot> step_parts, alarm_parts;
  for (const ShardStat& s : status.shards) {
    step_parts.push_back(s.ingest_to_step_ns);
    alarm_parts.push_back(s.ingest_to_alarm_ns);
  }
  EXPECT_EQ(hist_line(status.ingest_to_step_ns),
            hist_line(obs::merge_snapshots(step_parts)));
  EXPECT_EQ(hist_line(status.ingest_to_alarm_ns),
            hist_line(obs::merge_snapshots(alarm_parts)));

  // 3. Robot rows agree with the sessions' own books (8 robots fit the
  //    default top_robots=8, so every robot has a row).
  ASSERT_EQ(status.hot_robots.size(), fx.missions.size());
  std::uint64_t fleet_steps = 0, traced_steps = 0;
  for (const RobotStat& row : status.hot_robots) {
    const SessionCounters counters = fleet.session_counters(row.robot);
    EXPECT_EQ(row.steps, counters.steps);
    EXPECT_EQ(row.sensor_alarms, counters.sensor_alarms);
    EXPECT_EQ(row.actuator_alarms, counters.actuator_alarms);
    EXPECT_EQ(row.masked_steps, counters.masked_steps);
    EXPECT_EQ(row.traced, row.robot % 2 == 0);
    EXPECT_EQ(row.shard, fleet.shard_of(row.robot));
    fleet_steps += row.steps;
    if (row.traced) traced_steps += row.steps;
  }
  EXPECT_EQ(status.steps, fleet_steps);

  // 4. Every traced robot's step emitted exactly one span; spans carry
  //    non-negative stage durations that sum consistently.
  EXPECT_EQ(status.spans, traced_steps);
  EXPECT_EQ(spans.size(), traced_steps);
  for (const obs::TraceEvent& e : spans.events()) {
    ASSERT_EQ(e.type, "span");
    EXPECT_EQ(int_field(e, "span_version"), obs::kSpanSchemaVersion);
    EXPECT_EQ(int_field(e, "robot") % 2, 0);
    EXPECT_GT(int_field(e, "packets"), 0);
    EXPECT_GT(int_field(e, "ingest_ns"), 0);
    const std::int64_t ring = int_field(e, "ring_ns");
    const std::int64_t reassembly = int_field(e, "reassembly_ns");
    const std::int64_t step_wait = int_field(e, "step_wait_ns");
    const std::int64_t step = int_field(e, "step_ns");
    const std::int64_t publish = int_field(e, "publish_ns");
    const std::int64_t total = int_field(e, "total_ns");
    EXPECT_GE(ring, 0);
    EXPECT_GE(reassembly, 0);
    EXPECT_GE(step_wait, 0);
    EXPECT_GT(step, 0);  // the detector really ran
    EXPECT_GE(publish, 0);
    EXPECT_GE(total, step);
  }

  // 5. Scenario-8 robots really alarmed, and the feed recorded it.
  EXPECT_GT(status.sensor_alarms + status.actuator_alarms, 0u);
  EXPECT_FALSE(status.alarms.empty());
  for (const FleetAlarm& a : status.alarms) {
    EXPECT_TRUE(a.sensor || a.actuator);
    EXPECT_EQ(a.robot % 2, 1u);  // clean robots never alarm
  }

  // 6. The `top --once --json` contract, exercised the way the tool does:
  //    serialize(parse(file)) must be byte-identical to the file's line.
  std::ifstream is(status_path);
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(obs::json::encode(status), line);

  // 7. The human frame renders the load-bearing sections.
  const std::string frame = render_fleet_status(status);
  EXPECT_NE(frame.find("shard"), std::string::npos);
  EXPECT_NE(frame.find("robot"), std::string::npos);
  EXPECT_NE(frame.find("alarm"), std::string::npos);
}

TEST(FleetIntrospect, PublishSequenceAdvancesAndRatesAppear) {
  const Fixture fx(2, 20);
  const std::string status_path =
      ::testing::TempDir() + "fleet_introspect_seq.json";
  FleetConfig config;
  config.shards = 1;
  config.introspect.status_path = status_path;
  config.introspect.status_interval_s = 0.0;
  FleetService fleet(config);
  for (std::size_t r = 0; r < fx.missions.size(); ++r) fleet.add_robot(fx.spec);

  // First build records EWMA baselines (no dt yet)…
  fleet.publish_status_now();
  const FleetStatusSnapshot first =
      obs::json::read_snapshot(status_path, kFleetStatusFile);
  EXPECT_EQ(first.seq, 1u);
  EXPECT_EQ(first.steps, 0u);

  // …then a burst of work and a second publish must show a positive rate.
  for (std::size_t r = 0; r < fx.missions.size(); ++r) {
    for (FleetPacket& p :
         mission_packets(r, fx.platform.suite(), fx.missions[r])) {
      fleet.submit(std::move(p));
    }
  }
  fleet.drain();
  fleet.publish_status_now();
  const FleetStatusSnapshot second =
      obs::json::read_snapshot(status_path, kFleetStatusFile);
  EXPECT_EQ(second.seq, 2u);
  EXPECT_GT(second.steps, 0u);
  ASSERT_EQ(second.shards.size(), 1u);
  EXPECT_GT(second.shards[0].ewma_steps_per_s, 0.0);
}

TEST(FleetIntrospect, LivePumpPublishesWhileProducersFirehose) {
  // The TSan target for the introspection plane: a live pump thread
  // building + publishing snapshots between passes (interval 0 = every
  // pass) and stamping spans, while concurrent producers firehose packets
  // and a reader polls the published file.
  const Fixture fx(8, 30);
  const std::string status_path =
      ::testing::TempDir() + "fleet_introspect_live.json";
  obs::TraceSink spans;
  FleetConfig config;
  config.shards = 2;
  config.queue_capacity = 4096;  // no shedding: every robot's stream lands
  config.introspect.trace_sample = 2;
  config.introspect.span_sink = &spans;
  config.introspect.status_path = status_path;
  config.introspect.status_interval_s = 0.0;
  FleetService fleet(config);
  for (std::size_t r = 0; r < fx.missions.size(); ++r) fleet.add_robot(fx.spec);
  fleet.start();

  std::vector<std::thread> producers;
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&, t] {
      for (std::size_t r = static_cast<std::size_t>(t) * 2;
           r < static_cast<std::size_t>(t) * 2 + 2; ++r) {
        for (FleetPacket& p :
             mission_packets(r, fx.platform.suite(), fx.missions[r])) {
          fleet.submit(std::move(p));
        }
      }
    });
  }
  std::atomic<bool> reading{true};
  std::thread reader([&] {
    while (reading.load(std::memory_order_acquire)) {
      try {
        const FleetStatusSnapshot s =
            obs::json::read_snapshot(status_path, kFleetStatusFile);
        (void)s;
      } catch (const CheckError&) {
        // Not published yet — the atomic-rename discipline means we never
        // see a partial file, only absence.
      }
      std::this_thread::yield();
    }
  });
  for (std::thread& t : producers) t.join();
  fleet.drain();
  fleet.stop();
  reading.store(false, std::memory_order_release);
  reader.join();
  fleet.flush_sessions();
  fleet.publish_status_now();

  const FleetStatusSnapshot status =
      obs::json::read_snapshot(status_path, kFleetStatusFile);
  std::uint64_t want_steps = 0;
  for (const eval::MissionResult& m : fx.missions) {
    want_steps += m.records.size();
  }
  EXPECT_EQ(status.steps, want_steps);
  EXPECT_GT(status.seq, 1u);  // the pump really published along the way
  EXPECT_EQ(status.spans, spans.size());
  std::vector<obs::HistogramSnapshot> parts;
  for (const ShardStat& s : status.shards) parts.push_back(s.ingest_to_step_ns);
  EXPECT_EQ(hist_line(status.ingest_to_step_ns),
            hist_line(obs::merge_snapshots(parts)));
}

TEST(FleetIntrospect, TraceSampleWithoutSinkIsRejected) {
  FleetConfig config;
  config.shards = 1;
  config.introspect.trace_sample = 4;  // no span_sink
  EXPECT_THROW(FleetService service(config), CheckError);
}

}  // namespace
}  // namespace roboads::fleet

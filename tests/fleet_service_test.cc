// FleetService — sharded sessions behind lock-free ingestion rings
// (docs/FLEET.md). Pins: per-robot bit-identity straight through the
// sharded service, drop-oldest backpressure accounting, idle-point
// migration (stream preserved bit-exactly across the shard move), metrics
// registry aggregation, a concurrent submit/pump/status round for TSan,
// four shards stepping one spec's shared estimator bank at once, a
// far-ahead robot that cannot stall its shard, and the session's
// metamorphic relations (reordering, duplicates) carried through shards
// and a migration.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include "eval/khepera.h"
#include "eval/mission.h"
#include "fleet/replay.h"
#include "fleet/service.h"
#include "fleet_streams.h"
#include "result_diff.h"
#include "scenario/compile.h"
#include "scenario/library.h"

namespace roboads::fleet {
namespace {

struct Fixture {
  eval::KheperaPlatform platform;
  std::shared_ptr<const SessionSpec> spec;
  std::vector<eval::MissionResult> missions;

  explicit Fixture(std::size_t robots, std::size_t iterations = 50) {
    spec = make_session_spec(platform);
    for (std::size_t r = 0; r < robots; ++r) {
      eval::MissionConfig cfg;
      cfg.iterations = iterations;
      cfg.seed = 100 + r;  // distinct missions per robot
      const attacks::Scenario sc =
          r % 2 == 0 ? platform.clean_scenario()
                     : scenario::compile_spec(scenario::khepera_table2_spec(8),
                                              platform);
      missions.push_back(eval::run_mission(platform, sc, cfg));
    }
  }
};

// Collects reports per robot via the service tap. Robots are disjoint
// across threads (one robot = one shard at a time), so per-robot vectors
// need no lock.
struct ReportLog {
  std::vector<std::vector<core::DetectionReport>> by_robot;
  explicit ReportLog(std::size_t robots) : by_robot(robots) {}
  void install(FleetConfig& config) {
    config.on_report = [this](std::uint64_t robot,
                              const core::DetectionReport& report,
                              std::uint64_t) {
      by_robot[robot].push_back(report);
    };
  }
};

void expect_mission_parity(const eval::MissionResult& mission,
                           const std::vector<core::DetectionReport>& got) {
  ASSERT_EQ(got.size(), mission.records.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::string diff = compare_reports(mission.records[i].report, got[i]);
    EXPECT_TRUE(diff.empty()) << "iteration " << mission.records[i].k << ": "
                              << diff;
    if (!diff.empty()) return;
  }
}

// Interleaves every robot's stream iteration by iteration, as a real ingest
// front would see them, through `shards` shards (on a running pump thread
// when `threaded`), and checks each robot's reports and counters and the
// fleet totals against the recorded missions. Every robot is built from one
// spec, so all shards step through one estimator bank.
void expect_parity_through_shards(std::size_t robots, std::size_t shards,
                                  bool threaded) {
  const Fixture fx(robots);
  FleetConfig config;
  config.shards = shards;
  ReportLog log(fx.missions.size());
  log.install(config);
  FleetService fleet(config);
  ASSERT_EQ(fleet.shard_count(), shards);

  for (std::size_t r = 0; r < fx.missions.size(); ++r) {
    EXPECT_EQ(fleet.add_robot(fx.spec), r);
  }
  if (threaded) fleet.start();

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
  if (threaded) fleet.stop();
  EXPECT_EQ(fleet.flush_sessions(), 0u);  // complete frames flushed inline

  for (std::size_t r = 0; r < fx.missions.size(); ++r) {
    expect_mission_parity(fx.missions[r], log.by_robot[r]);
    EXPECT_EQ(fleet.session_counters(r).steps, fx.missions[r].records.size());
    EXPECT_EQ(fleet.session_next_iteration(r),
              fx.missions[r].records.size() + 1);
  }

  const FleetStatus status = fleet.status();
  std::uint64_t want_steps = 0, want_alarms = 0;
  for (const eval::MissionResult& m : fx.missions) {
    want_steps += m.records.size();
    for (const eval::IterationRecord& rec : m.records) {
      if (rec.report.decision.sensor_alarm) ++want_alarms;
    }
  }
  EXPECT_EQ(status.sessions, fx.missions.size());
  EXPECT_EQ(status.steps, want_steps);
  EXPECT_EQ(status.sensor_alarms, want_alarms);
  EXPECT_GT(want_alarms, 0u);  // scenario-8 robots really alarmed
  EXPECT_EQ(status.dropped_packets, 0u);
  EXPECT_EQ(status.ingest_to_step_ns.count, want_steps);
}

TEST(FleetService, MultiRobotParityThroughShards) {
  expect_parity_through_shards(/*robots=*/4, /*shards=*/2, /*threaded=*/false);
}

// The TSan target for core/bank.h: four shards step one spec's shared
// estimator bank at once.
TEST(FleetService, FourShardsStepOneSharedBank) {
  expect_parity_through_shards(/*robots=*/8, /*shards=*/4, /*threaded=*/true);
}

TEST(FleetService, MetricsRegistryReceivesFleetCounters) {
  const Fixture fx(1, 20);
  obs::MetricsRegistry metrics;
  FleetConfig config;
  config.shards = 1;
  config.metrics = &metrics;
  FleetService fleet(config);
  fleet.add_robot(fx.spec);
  for (FleetPacket& p :
       mission_packets(0, fx.platform.suite(), fx.missions[0])) {
    fleet.submit(std::move(p));
  }
  fleet.drain();
  EXPECT_EQ(metrics.counter("fleet.steps").value(),
            fx.missions[0].records.size());
  EXPECT_EQ(metrics.histogram("fleet.ingest_to_step_ns").snapshot().count,
            fx.missions[0].records.size());
}

TEST(FleetService, BackpressureShedsOldestAndCounts) {
  const Fixture fx(1, 10);
  FleetConfig config;
  config.shards = 1;
  config.queue_capacity = 8;
  FleetService fleet(config);
  fleet.add_robot(fx.spec);

  // 100 packets into an 8-slot ring with no pump: exactly 92 shed, the
  // newest 8 retained, ingestion never blocked.
  for (int i = 0; i < 100; ++i) {
    FleetPacket p;
    p.robot = 0;
    p.packet.kind = bus::PacketKind::kControlCommand;
    p.packet.iteration = static_cast<std::size_t>(i + 1);
    p.packet.payload = Vector(fx.platform.model().input_dim());
    fleet.submit(std::move(p));
  }
  const FleetStatus status = fleet.status();
  EXPECT_EQ(status.dropped_packets, 92u);
  EXPECT_EQ(status.shards[0].queue_depth, 8u);
}

TEST(FleetService, UnknownRobotsAreCountedNotFatal) {
  FleetConfig config;
  config.shards = 1;
  FleetService fleet(config);
  FleetPacket p;
  p.robot = 7;  // never registered
  fleet.submit(std::move(p));
  EXPECT_EQ(fleet.status().unknown_robot_packets, 1u);
}

TEST(FleetService, MigrationPreservesTheStreamBitExactly) {
  const Fixture fx(1, 60);
  const eval::MissionResult& mission = fx.missions[0];
  FleetConfig config;
  config.shards = 2;
  ReportLog log(1);
  log.install(config);
  FleetService fleet(config);
  fleet.add_robot(fx.spec);
  const std::size_t source = fleet.shard_of(0);

  const std::size_t half = mission.records.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    std::vector<FleetPacket> one;
    append_iteration_packets(one, 0, fx.platform.suite(), mission.records[i]);
    for (FleetPacket& p : one) fleet.submit(std::move(p));
  }
  fleet.drain();

  const std::size_t target = (source + 1) % fleet.shard_count();
  fleet.migrate(0, target);
  EXPECT_EQ(fleet.pump_once(), 0u);  // applies the migration
  EXPECT_EQ(fleet.shard_of(0), target);

  for (std::size_t i = half; i < mission.records.size(); ++i) {
    std::vector<FleetPacket> one;
    append_iteration_packets(one, 0, fx.platform.suite(), mission.records[i]);
    for (FleetPacket& p : one) fleet.submit(std::move(p));
  }
  fleet.drain();

  expect_mission_parity(mission, log.by_robot[0]);
  // Post-migration steps landed on the target shard's books.
  const FleetStatus status = fleet.status();
  EXPECT_EQ(status.shards[target].steps,
            mission.records.size() - half);
  EXPECT_EQ(status.steps, mission.records.size());
}

TEST(FleetService, MigrationWaitsForIdleSessions) {
  const Fixture fx(1, 10);
  FleetConfig config;
  config.shards = 2;
  FleetService fleet(config);
  fleet.add_robot(fx.spec);
  const std::size_t source = fleet.shard_of(0);

  // A lone sensor packet leaves the frame half-assembled; the migration
  // must defer, not lose it.
  std::vector<FleetPacket> one;
  append_iteration_packets(one, 0, fx.platform.suite(),
                           fx.missions[0].records.front());
  for (const FleetPacket& p : one) {
    if (p.packet.kind == bus::PacketKind::kSensorReading) {
      fleet.submit(p);
      break;
    }
  }
  fleet.drain();
  const std::size_t target = (source + 1) % fleet.shard_count();
  fleet.migrate(0, target);
  fleet.pump_once();
  EXPECT_EQ(fleet.shard_of(0), source);  // deferred: session not idle

  // Completing the iteration makes the session idle; the next pass moves
  // it. The re-sent sensor packet is a counted duplicate, latest wins.
  for (const FleetPacket& p : one) fleet.submit(p);
  fleet.drain();
  fleet.pump_once();
  EXPECT_EQ(fleet.shard_of(0), target);
  EXPECT_EQ(fleet.session_counters(0).steps, 1u);
}

// A migration naming an unknown robot or a shard out of range throws from
// migrate(), on the caller's thread. Queued, it would throw later inside
// the pump, where a running pump's thread has no one to catch it, and take
// the requests queued beside it along.
TEST(FleetService, MigrateRefusesABadRobotOrShardOnTheCallersThread) {
  const Fixture fx(1, 10);
  FleetConfig config;
  config.shards = 2;
  FleetService fleet(config);
  fleet.add_robot(fx.spec);
  const std::size_t target = (fleet.shard_of(0) + 1) % fleet.shard_count();
  EXPECT_THROW(fleet.migrate(1, target), CheckError);
  EXPECT_THROW(fleet.migrate(0, 7), CheckError);
  fleet.migrate(0, target);
  EXPECT_NO_THROW(fleet.pump_once());
  EXPECT_EQ(fleet.shard_of(0), target);

  fleet.start();
  EXPECT_THROW(fleet.migrate(0, 7), CheckError);
  fleet.stop();
}

TEST(FleetService, ConcurrentSubmitPumpAndStatus) {
  // The TSan target: a live pump thread, four producer threads firehosing
  // interleaved robot streams, and a status() poller, all concurrent.
  const Fixture fx(8, 40);
  FleetConfig config;
  config.shards = 4;
  config.queue_capacity = 256;
  FleetService fleet(config);
  for (std::size_t r = 0; r < fx.missions.size(); ++r) fleet.add_robot(fx.spec);
  fleet.start();
  ASSERT_TRUE(fleet.running());

  std::atomic<bool> polling{true};
  std::thread poller([&] {
    while (polling.load(std::memory_order_acquire)) {
      const FleetStatus s = fleet.status();
      (void)s;
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> producers;
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&, t] {
      // Each producer owns two robots; per-robot packet order preserved.
      for (std::size_t r = static_cast<std::size_t>(t) * 2;
           r < static_cast<std::size_t>(t) * 2 + 2; ++r) {
        for (FleetPacket& p :
             mission_packets(r, fx.platform.suite(), fx.missions[r])) {
          fleet.submit(std::move(p));
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  fleet.drain();
  fleet.stop();
  polling.store(false, std::memory_order_release);
  poller.join();
  fleet.flush_sessions();

  // With a generous ring nothing should shed; every submitted packet was
  // either stepped or (if a ring briefly overflowed) counted as dropped —
  // the books must balance to full missions when nothing dropped.
  const FleetStatus status = fleet.status();
  std::uint64_t want_steps = 0;
  for (const eval::MissionResult& m : fx.missions) {
    want_steps += m.records.size();
  }
  if (status.dropped_packets == 0) {
    EXPECT_EQ(status.steps, want_steps);
  } else {
    EXPECT_LE(status.steps, want_steps);
  }
  EXPECT_EQ(status.sessions, fx.missions.size());
}

TEST(FleetService, FarAheadRobotDoesNotStallItsShard) {
  // Robot 0 sends iteration numbers far ahead of its stream, up to the top
  // of the counter; robot 1 shares its shard and keeps reporting its
  // mission bit-exactly.
  const Fixture fx(2, 30);
  FleetConfig config;
  config.shards = 1;
  ReportLog log(fx.missions.size());
  log.install(config);
  FleetService fleet(config);
  fleet.add_robot(fx.spec);
  fleet.add_robot(fx.spec);

  const std::uint64_t hostile[] = {100'000, std::uint64_t{1} << 63,
                                   std::numeric_limits<std::uint64_t>::max()};
  const eval::MissionResult& mission = fx.missions[1];
  ASSERT_GT(mission.records.size(), 25u);
  for (std::size_t i = 0; i < mission.records.size(); ++i) {
    std::vector<FleetPacket> one;
    append_iteration_packets(one, 1, fx.platform.suite(), mission.records[i]);
    if (i % 10 == 5 && i / 10 < std::size(hostile)) {
      FleetPacket far = one.front();
      far.robot = 0;
      far.packet.iteration = hostile[i / 10];
      fleet.submit(std::move(far));
    }
    for (FleetPacket& p : one) fleet.submit(std::move(p));
    fleet.pump_once();
  }
  fleet.drain();
  expect_mission_parity(mission, log.by_robot[1]);
  EXPECT_EQ(fleet.session_counters(0).resyncs, 3u);
}

// FleetSessionMetamorphic's relations (tests/fleet_session_test.cc)
// carried through the service: robots replaying Table II #1, #4 and #8 on
// two shards, each robot's stream reordered within the reorder window and
// given later exact duplicates, the streams interleaved, and robot 0
// migrated to the other shard mid-stream with its next packets still in
// the old shard's ring. Each robot must get the reports of its in-order
// single-session replay, selected_result included, with every duplicate
// counted once, as duplicate or late, and no step masked. The robots of a
// shard step on one pump worker into one report (fleet/session.cc), so a
// robot that read its neighbour's leftovers would fail here.
TEST(FleetServiceMetamorphic, ReorderedDuplicatedStreamsThroughShardsAndMigration) {
  const eval::KheperaPlatform platform;
  const auto spec = make_session_spec(platform);
  const std::size_t window = SessionConfig{}.reorder_window;
  constexpr std::size_t kCopies = 40;  // per half stream
  std::mt19937_64 rng(24);

  // Each stream is two halves, each reordered and duplicated on its own, so
  // that the session is idle between them and can migrate there.
  std::vector<std::vector<core::DetectionReport>> expected;
  std::vector<std::vector<FleetPacket>> halves[2];
  for (const std::size_t scenario : {1u, 4u, 8u}) {
    eval::MissionConfig cfg;
    cfg.iterations = 60;
    cfg.seed = 300 + scenario;
    const eval::MissionResult mission = eval::run_mission(
        platform,
        scenario::compile_spec(scenario::khepera_table2_spec(scenario),
                               platform),
        cfg);
    const std::vector<FleetPacket> in_order =
        mission_packets(expected.size(), platform.suite(), mission);

    DetectorSession replay(spec);
    std::vector<core::DetectionReport>& reports = expected.emplace_back();
    replay.set_report_sink([&](const core::DetectionReport& report,
                               std::uint64_t) { reports.push_back(report); });
    for (const FleetPacket& p : in_order) replay.ingest(p);
    ASSERT_EQ(replay.flush(), 0u);
    ASSERT_EQ(reports.size(), mission.records.size());

    const std::size_t per_iteration = platform.suite().count() + 1;
    const auto middle =
        in_order.begin() + static_cast<std::ptrdiff_t>(
                               reports.size() / 2 * per_iteration);
    const std::vector<FleetPacket> first(in_order.begin(), middle);
    const std::vector<FleetPacket> second(middle, in_order.end());
    halves[0].push_back(
        with_later_copies(window_shuffle(first, window, rng), kCopies, rng));
    halves[1].push_back(
        with_later_copies(window_shuffle(second, window, rng), kCopies, rng));
  }
  const std::size_t robots = expected.size();

  FleetConfig config;
  config.shards = 2;
  ReportLog log(robots);
  log.install(config);
  FleetService fleet(config);
  for (std::size_t r = 0; r < robots; ++r) fleet.add_robot(spec);
  // Submits packets [from, to) of every robot's half stream, interleaved.
  const auto submit = [&](const std::vector<std::vector<FleetPacket>>& half,
                          std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      for (const std::vector<FleetPacket>& stream : half) {
        if (i < stream.size()) fleet.submit(stream[i]);
      }
    }
  };
  const auto longest = [](const std::vector<std::vector<FleetPacket>>& half) {
    std::size_t n = 0;
    for (const std::vector<FleetPacket>& stream : half) {
      n = std::max(n, stream.size());
    }
    return n;
  };

  submit(halves[0], 0, longest(halves[0]));
  fleet.drain();
  submit(halves[1], 0, 20);
  const std::size_t source = fleet.shard_of(0);
  const std::size_t target = (source + 1) % fleet.shard_count();
  fleet.migrate(0, target);
  fleet.drain();
  EXPECT_EQ(fleet.shard_of(0), target);
  EXPECT_GT(fleet.status().forwarded_packets, 0u);
  submit(halves[1], 20, longest(halves[1]));
  fleet.drain();
  EXPECT_EQ(fleet.flush_sessions(), 0u);

  for (std::size_t r = 0; r < robots; ++r) {
    SCOPED_TRACE(testing::Message() << "robot " << r);
    const std::vector<core::DetectionReport>& got = log.by_robot[r];
    ASSERT_EQ(got.size(), expected[r].size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      const std::string diff = compare_reports(expected[r][k], got[k]);
      ASSERT_TRUE(diff.empty()) << "report " << k + 1 << ": " << diff;
      const std::string result_diff = core::diff_results(
          expected[r][k].selected_result, got[k].selected_result);
      ASSERT_TRUE(result_diff.empty())
          << "report " << k + 1 << " selected_result " << result_diff;
    }
    const SessionCounters& c = fleet.session_counters(r);
    EXPECT_EQ(c.steps, expected[r].size());
    EXPECT_EQ(c.duplicate_packets + c.late_packets, 2 * kCopies);
    EXPECT_EQ(c.masked_steps, 0u);
    EXPECT_EQ(c.forced_evictions, 0u);
  }
  EXPECT_EQ(fleet.status().dropped_packets, 0u);
}

}  // namespace
}  // namespace roboads::fleet

// DetectorSession — the streaming façade's core guarantee (docs/FLEET.md):
// fed a recorded mission's packets, a session reproduces that mission's
// DetectionReports bit for bit, including through out-of-order delivery,
// duplicates, transport-fault availability masks, and a mid-stream
// save/restore migration. Late packets and forced evictions are counted,
// never silently absorbed.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <random>
#include <vector>

#include "eval/khepera.h"
#include "eval/mission.h"
#include "fleet/replay.h"
#include "fleet/session.h"
#include "fleet_streams.h"
#include "scenario/compile.h"
#include "scenario/library.h"

namespace roboads::fleet {
namespace {

struct MissionRun {
  eval::KheperaPlatform platform;
  eval::MissionResult mission;
  std::shared_ptr<const SessionSpec> spec;

  explicit MissionRun(std::size_t iterations, std::uint64_t seed,
               std::size_t scenario = 0,
               sim::TransportFaultConfig faults = {}) {
    eval::MissionConfig cfg;
    cfg.iterations = iterations;
    cfg.seed = seed;
    cfg.transport_faults = std::move(faults);
    const attacks::Scenario sc =
        scenario == 0
            ? platform.clean_scenario()
            : roboads::scenario::compile_spec(
                  roboads::scenario::khepera_table2_spec(scenario), platform);
    mission = eval::run_mission(platform, sc, cfg);
    spec = make_session_spec(platform);
  }
};

// Feeds `packets` and checks every emitted report against the mission's
// records, in order. Returns the session's counters.
SessionCounters expect_parity(const MissionRun& run,
                              const std::vector<FleetPacket>& packets,
                              SessionConfig config = {}) {
  DetectorSession session(run.spec, config);
  std::size_t at = 0;
  session.set_report_sink([&](const core::DetectionReport& report,
                              std::uint64_t /*ingest*/) {
    ASSERT_LT(at, run.mission.records.size());
    const std::string diff =
        compare_reports(run.mission.records[at].report, report);
    EXPECT_TRUE(diff.empty()) << "iteration " << run.mission.records[at].k
                              << ": " << diff;
    ++at;
  });
  for (const FleetPacket& p : packets) session.ingest(p);
  session.flush();
  EXPECT_EQ(at, run.mission.records.size());
  return session.counters();
}

TEST(FleetSession, BitIdenticalToCleanMission) {
  const MissionRun run(80, 11);
  ASSERT_GE(run.mission.records.size(), 40u);
  const SessionCounters counters = expect_parity(
      run, mission_packets(0, run.platform.suite(), run.mission));
  EXPECT_EQ(counters.steps, run.mission.records.size());
  EXPECT_EQ(counters.masked_steps, 0u);
  EXPECT_EQ(counters.late_packets, 0u);
  EXPECT_EQ(counters.duplicate_packets, 0u);
  EXPECT_EQ(counters.forced_evictions, 0u);
  EXPECT_EQ(counters.command_substituted, 0u);
}

TEST(FleetSession, BitIdenticalToAttackMissionIncludingAlarms) {
  // Table II scenario 8: IPS onset at k=40, wheel encoders at k=100 — the
  // stream carries real alarms, and the session must count them.
  const MissionRun run(120, 8, /*scenario=*/8);
  std::uint64_t mission_sensor_alarms = 0;
  for (const eval::IterationRecord& rec : run.mission.records) {
    if (rec.report.decision.sensor_alarm) ++mission_sensor_alarms;
  }
  ASSERT_GT(mission_sensor_alarms, 0u);
  const SessionCounters counters = expect_parity(
      run, mission_packets(0, run.platform.suite(), run.mission));
  EXPECT_EQ(counters.sensor_alarms, mission_sensor_alarms);
}

TEST(FleetSession, BitIdenticalToFaultMaskedMission) {
  // Transport faults populate rec.sensor_available; the session must step
  // those iterations masked and still match every report.
  sim::SensorFaultSpec drop;
  drop.sensor = "ips";
  drop.drop_rate = 0.3;
  const MissionRun run(80, 17, /*scenario=*/0,
                sim::TransportFaultConfig::single(drop));
  std::size_t masked = 0;
  for (const eval::IterationRecord& rec : run.mission.records) {
    if (!rec.sensor_available.complete()) ++masked;
  }
  ASSERT_GT(masked, 0u) << "fault config never dropped a frame";
  const SessionCounters counters = expect_parity(
      run, mission_packets(0, run.platform.suite(), run.mission));
  EXPECT_EQ(counters.masked_steps, masked);
}

TEST(FleetSession, OutOfOrderWithinTheWindowIsBitIdentical) {
  const MissionRun run(60, 23);
  const sensors::SensorSuite& suite = run.platform.suite();

  // Shuffle packet order within each adjacent pair of iterations (strictly
  // inside the default reorder window of 4), deterministically.
  std::vector<FleetPacket> packets;
  std::mt19937 shuffle_rng(42);
  for (std::size_t i = 0; i + 1 < run.mission.records.size(); i += 2) {
    std::vector<FleetPacket> pair;
    append_iteration_packets(pair, 0, suite, run.mission.records[i]);
    append_iteration_packets(pair, 0, suite, run.mission.records[i + 1]);
    std::shuffle(pair.begin(), pair.end(), shuffle_rng);
    packets.insert(packets.end(), pair.begin(), pair.end());
  }
  if (run.mission.records.size() % 2 == 1) {
    append_iteration_packets(packets, 0, suite, run.mission.records.back());
  }

  const SessionCounters counters = expect_parity(run, packets);
  EXPECT_EQ(counters.steps, run.mission.records.size());
  EXPECT_EQ(counters.forced_evictions, 0u);
  EXPECT_EQ(counters.masked_steps, 0u);  // every frame completed eventually
}

TEST(FleetSession, LatePacketsAreCountedAndCannotRewriteHistory) {
  const MissionRun run(40, 29);
  const sensors::SensorSuite& suite = run.platform.suite();
  const std::vector<FleetPacket> packets =
      mission_packets(0, suite, run.mission);

  DetectorSession session(run.spec);
  std::size_t reports = 0;
  session.set_report_sink(
      [&](const core::DetectionReport&, std::uint64_t) { ++reports; });
  for (const FleetPacket& p : packets) session.ingest(p);
  const std::size_t stepped = reports;
  ASSERT_EQ(stepped, run.mission.records.size());

  // Replaying the first iteration's packets must change nothing.
  std::vector<FleetPacket> first;
  append_iteration_packets(first, 0, suite, run.mission.records.front());
  for (const FleetPacket& p : first) session.ingest(p);
  EXPECT_EQ(reports, stepped);
  EXPECT_EQ(session.counters().late_packets, first.size());
  EXPECT_EQ(session.counters().steps, stepped);
}

TEST(FleetSession, DuplicatesResolveLatestWins) {
  const MissionRun run(40, 31);
  const sensors::SensorSuite& suite = run.platform.suite();

  // Per iteration: corrupted copies of every sensor packet first, then the
  // real readings, then the command. The frame cannot complete until the
  // command lands (a session steps the instant a frame completes, so a
  // duplicate arriving *after* completion would be a late packet, not a
  // resolvable duplicate) — every real reading overwrites its corrupted
  // twin latest-wins, and reports stay bit-identical.
  std::vector<FleetPacket> packets;
  std::uint64_t expected_duplicates = 0;
  for (const eval::IterationRecord& rec : run.mission.records) {
    std::vector<FleetPacket> one;
    append_iteration_packets(one, 0, suite, rec);
    for (const FleetPacket& p : one) {
      if (p.packet.kind == bus::PacketKind::kSensorReading) {
        FleetPacket garbage = p;
        garbage.packet.payload = garbage.packet.payload * 3.0;
        packets.push_back(std::move(garbage));
        ++expected_duplicates;
      }
    }
    for (const FleetPacket& p : one) {
      if (p.packet.kind == bus::PacketKind::kSensorReading) {
        packets.push_back(p);
      }
    }
    for (const FleetPacket& p : one) {
      if (p.packet.kind == bus::PacketKind::kControlCommand) {
        packets.push_back(p);
      }
    }
  }

  const SessionCounters counters = expect_parity(run, packets);
  EXPECT_EQ(counters.duplicate_packets, expected_duplicates);
}

TEST(FleetSession, UnknownSourcesAndBadDimensionsAreCounted) {
  const MissionRun run(10, 37);
  DetectorSession session(run.spec);
  FleetPacket bogus;
  bogus.packet.source = "no-such-sensor";
  bogus.packet.kind = bus::PacketKind::kSensorReading;
  bogus.packet.iteration = 1;
  bogus.packet.payload = Vector(3);
  session.ingest(bogus);

  FleetPacket wrong_dim;
  wrong_dim.packet.source = run.platform.suite().sensor(0).name();
  wrong_dim.packet.kind = bus::PacketKind::kSensorReading;
  wrong_dim.packet.iteration = 1;
  wrong_dim.packet.payload = Vector(99);
  session.ingest(wrong_dim);

  EXPECT_EQ(session.counters().unknown_source, 2u);
  EXPECT_EQ(session.counters().steps, 0u);
}

TEST(FleetSession, FarAheadPacketForceEvictsIncompleteFrames) {
  const MissionRun run(20, 41);
  const sensors::SensorSuite& suite = run.platform.suite();

  DetectorSession session(run.spec, SessionConfig{/*reorder_window=*/4});
  std::size_t reports = 0;
  session.set_report_sink(
      [&](const core::DetectionReport&, std::uint64_t) { ++reports; });

  // Iteration 1 arrives missing its command; iterations 2..4 never arrive.
  std::vector<FleetPacket> one;
  append_iteration_packets(one, 0, suite, run.mission.records.front());
  for (const FleetPacket& p : one) {
    if (p.packet.kind != bus::PacketKind::kControlCommand) session.ingest(p);
  }
  EXPECT_EQ(reports, 0u);  // incomplete: held in the window

  // A packet for iteration 8 pushes the window (4) past 1..4: all four
  // step now. Frame 1 has every sensor (unmasked, command substituted);
  // 2..4 are fully dark (masked all-unavailable, command substituted).
  std::vector<FleetPacket> eight;
  append_iteration_packets(eight, 0, suite, run.mission.records[7]);
  session.ingest(eight.front());
  EXPECT_EQ(reports, 4u);
  EXPECT_EQ(session.counters().forced_evictions, 4u);
  EXPECT_EQ(session.counters().command_substituted, 4u);
  EXPECT_EQ(session.counters().masked_steps, 3u);
  EXPECT_EQ(session.next_iteration(), 5u);
}

// A packet whose catch-up stays within kMaxCatchUpFrames force-evicts every
// frame it pushes out, as before; one frame further resyncs instead.
TEST(FleetSession, CatchUpBeyondTheBoundResyncsInsteadOfStepping) {
  const MissionRun run(10, 43);
  std::vector<FleetPacket> one;
  append_iteration_packets(one, 0, run.platform.suite(),
                           run.mission.records.front());
  FleetPacket command = one.front();
  ASSERT_EQ(command.packet.kind, bus::PacketKind::kControlCommand);

  // Window 4 at iteration 1: iteration 4 + kMaxCatchUpFrames pushes out
  // exactly kMaxCatchUpFrames frames.
  DetectorSession within(run.spec, SessionConfig{/*reorder_window=*/4});
  command.packet.iteration = 4 + kMaxCatchUpFrames;
  within.ingest(command);
  EXPECT_EQ(within.counters().forced_evictions, kMaxCatchUpFrames);
  EXPECT_EQ(within.counters().steps, kMaxCatchUpFrames);
  EXPECT_EQ(within.counters().resyncs, 0u);
  EXPECT_EQ(within.next_iteration(), kMaxCatchUpFrames + 1);

  DetectorSession beyond(run.spec, SessionConfig{/*reorder_window=*/4});
  command.packet.iteration = 5 + kMaxCatchUpFrames;
  beyond.ingest(command);
  EXPECT_EQ(beyond.counters().forced_evictions, 0u);  // nothing was held
  EXPECT_EQ(beyond.counters().steps, 0u);
  EXPECT_EQ(beyond.counters().resyncs, 1u);
  EXPECT_EQ(beyond.next_iteration(), kMaxCatchUpFrames + 2);
  EXPECT_EQ(beyond.pending_frames(), 1u);
}

// One hostile iteration number must not stall the session: far ahead of
// the stream (even at the top of the counter) a packet resyncs in bounded
// time, the frames the window held still step, the skipped iterations'
// packets count as late, and the far frame steps on flush.
TEST(FleetSession, FarAheadPacketResyncsInBoundedTime) {
  const MissionRun run(20, 41);
  const sensors::SensorSuite& suite = run.platform.suite();
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (const std::uint64_t far :
       {std::uint64_t{100'003}, std::uint64_t{1} << 63, kMax}) {
    SCOPED_TRACE(far);
    DetectorSession session(run.spec, SessionConfig{/*reorder_window=*/4});
    std::size_t reports = 0;
    session.set_report_sink(
        [&](const core::DetectionReport&, std::uint64_t) { ++reports; });

    // Iterations 1 and 2 complete; iteration 3 arrives without its command.
    std::vector<FleetPacket> packets;
    for (std::size_t i = 0; i < 3; ++i) {
      append_iteration_packets(packets, 0, suite, run.mission.records[i]);
    }
    FleetPacket hostile;
    for (const FleetPacket& p : packets) {
      if (p.packet.iteration == 3 &&
          p.packet.kind == bus::PacketKind::kControlCommand) {
        hostile = p;
        continue;
      }
      session.ingest(p);
    }
    ASSERT_EQ(reports, 2u);
    ASSERT_EQ(session.pending_frames(), 1u);

    hostile.packet.iteration = far;
    const auto start = std::chrono::steady_clock::now();
    session.ingest(hostile);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(elapsed, std::chrono::milliseconds(5));

    const SessionCounters& c = session.counters();
    EXPECT_EQ(c.resyncs, 1u);
    EXPECT_EQ(c.forced_evictions, 1u);  // held frame 3 stepped
    EXPECT_EQ(reports, 3u);
    EXPECT_EQ(session.next_iteration(), far - 3);
    EXPECT_EQ(session.pending_frames(), 1u);

    // The skipped iterations are history now.
    FleetPacket skipped = hostile;
    skipped.packet.iteration = 4;
    session.ingest(skipped);
    EXPECT_EQ(c.late_packets, 1u);

    // The window (far - 3 .. far) steps on flush, the far frame last.
    EXPECT_EQ(session.flush(), 4u);
    EXPECT_EQ(reports, 7u);
    EXPECT_EQ(c.steps, 7u);
    if (far == kMax) {
      // Every iteration has been stepped or skipped: nothing is ahead.
      EXPECT_EQ(session.next_iteration(), 0u);
      skipped.packet.iteration = 5;
      session.ingest(skipped);
      EXPECT_EQ(c.late_packets, 2u);
      EXPECT_TRUE(session.idle());
    } else {
      EXPECT_EQ(session.next_iteration(), far + 1);
    }
  }
}

TEST(FleetSession, SaveRestoreResumesBitIdentically) {
  const MissionRun run(60, 43, /*scenario=*/8);
  const sensors::SensorSuite& suite = run.platform.suite();
  const std::size_t half = run.mission.records.size() / 2;
  ASSERT_GT(half, 10u);

  // First half into session A; snapshot; restore into a fresh session B
  // built from the same spec; second half into B. Every report must still
  // match the mission's.
  DetectorSession a(run.spec);
  std::size_t at = 0;
  const auto checker = [&](const core::DetectionReport& report,
                           std::uint64_t) {
    ASSERT_LT(at, run.mission.records.size());
    const std::string diff =
        compare_reports(run.mission.records[at].report, report);
    EXPECT_TRUE(diff.empty()) << "iteration " << run.mission.records[at].k
                              << ": " << diff;
    ++at;
  };
  a.set_report_sink(checker);
  for (std::size_t i = 0; i < half; ++i) {
    std::vector<FleetPacket> one;
    append_iteration_packets(one, 0, suite, run.mission.records[i]);
    for (const FleetPacket& p : one) a.ingest(p);
  }
  ASSERT_EQ(at, half);
  ASSERT_TRUE(a.idle());
  const SessionSnapshot snap = a.save();

  DetectorSession b(run.spec);
  b.restore(snap);
  EXPECT_EQ(b.next_iteration(), half + 1);
  b.set_report_sink(checker);
  for (std::size_t i = half; i < run.mission.records.size(); ++i) {
    std::vector<FleetPacket> one;
    append_iteration_packets(one, 0, suite, run.mission.records[i]);
    for (const FleetPacket& p : one) b.ingest(p);
  }
  EXPECT_EQ(at, run.mission.records.size());
  EXPECT_EQ(b.counters().steps, run.mission.records.size());
}

TEST(FleetSession, SaveRequiresIdle) {
  const MissionRun run(10, 47);
  DetectorSession session(run.spec);
  std::vector<FleetPacket> one;
  append_iteration_packets(one, 0, run.platform.suite(),
                           run.mission.records.front());
  // Only a sensor packet: the frame stays pending, save must refuse.
  for (const FleetPacket& p : one) {
    if (p.packet.kind == bus::PacketKind::kSensorReading) {
      session.ingest(p);
      break;
    }
  }
  EXPECT_FALSE(session.idle());
  EXPECT_THROW(session.save(), std::exception);
  session.flush();
  EXPECT_TRUE(session.idle());
  EXPECT_NO_THROW(session.save());
}

// ----------------------------------------------- metamorphic properties --
//
// Seeded relations over several Table II missions, each checked against
// the in-order stream's reports (the mission's own):
//   1. every arrival order that keeps each packet of iteration k behind all
//      packets of iterations <= k - window gives the same reports, with no
//      forced eviction;
//   2. exact duplicates inserted at later positions change no report, and
//      duplicate plus late counts equal the copies inserted;
//   3. malformed packets (wrong payload size, unknown source, iteration 0,
//      far ahead, non-finite payload) never throw and are each counted.

std::vector<MissionRun> metamorphic_missions() {
  std::vector<MissionRun> runs;
  runs.reserve(3);
  for (const std::size_t scenario : {1u, 4u, 8u}) {
    runs.emplace_back(60, 300 + scenario, scenario);
  }
  return runs;
}

TEST(FleetSessionMetamorphic, WindowBoundedReorderingKeepsEveryReport) {
  std::mt19937_64 rng(20);
  for (const MissionRun& run : metamorphic_missions()) {
    const std::vector<FleetPacket> in_order =
        mission_packets(0, run.platform.suite(), run.mission);
    for (const std::size_t window : {1u, 2u, 4u, 7u}) {
      for (int trial = 0; trial < 3; ++trial) {
        SCOPED_TRACE(testing::Message() << "window " << window << " trial "
                                        << trial);
        const SessionCounters c = expect_parity(
            run, window_shuffle(in_order, window, rng), SessionConfig{window});
        EXPECT_EQ(c.steps, run.mission.records.size());
        EXPECT_EQ(c.forced_evictions, 0u);
        EXPECT_EQ(c.masked_steps, 0u);
        EXPECT_EQ(c.late_packets, 0u);
        EXPECT_EQ(c.duplicate_packets, 0u);
      }
    }
  }
}

TEST(FleetSessionMetamorphic, LaterExactDuplicatesChangeNoReport) {
  std::mt19937_64 rng(21);
  for (const MissionRun& run : metamorphic_missions()) {
    constexpr std::size_t kCopies = 150;
    const std::vector<FleetPacket> with_copies = with_later_copies(
        window_shuffle(mission_packets(0, run.platform.suite(), run.mission),
                       4, rng),
        kCopies, rng);

    const SessionCounters c = expect_parity(run, with_copies);
    EXPECT_EQ(c.duplicate_packets + c.late_packets, kCopies);
    EXPECT_GT(c.duplicate_packets, 0u);
    EXPECT_GT(c.late_packets, 0u);
    EXPECT_EQ(c.forced_evictions, 0u);
  }
}

TEST(FleetSessionMetamorphic, MalformedPacketsNeverThrowAndAreCounted) {
  std::mt19937_64 rng(22);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const MissionRun& run : metamorphic_missions()) {
    const sensors::SensorSuite& suite = run.platform.suite();
    const std::vector<FleetPacket> in_order =
        mission_packets(0, suite, run.mission);
    std::uniform_int_distribution<std::size_t> at(0, in_order.size() - 1);

    // Dropped on arrival: the reports are the mission's, and each one is
    // counted once, as a late packet when its iteration has already
    // stepped (always for iteration 0) and as an unknown source otherwise.
    std::vector<FleetPacket> stream = in_order;
    std::size_t bad_source = 0;
    std::size_t iteration_zero = 0;
    for (int i = 0; i < 30; ++i) {
      FleetPacket p = in_order[at(rng)];
      switch (i % 4) {
        case 0:  // wrong payload size
          p.packet.payload = Vector(p.packet.payload.size() + 1, 0.5);
          ++bad_source;
          break;
        case 1:  // unknown source
          p.packet.kind = bus::PacketKind::kSensorReading;
          p.packet.source = "sonar";
          ++bad_source;
          break;
        case 2:  // iteration 0, which precedes every stream
          p.packet.iteration = 0;
          ++iteration_zero;
          break;
        case 3:  // iteration 0 with a wrong payload size
          p.packet.iteration = 0;
          p.packet.payload = Vector(1, 0.5);
          ++iteration_zero;
          break;
      }
      stream.insert(stream.begin() + static_cast<std::ptrdiff_t>(at(rng)), p);
    }
    const SessionCounters dropped = expect_parity(run, stream);
    EXPECT_EQ(dropped.unknown_source + dropped.late_packets,
              bad_source + iteration_zero);
    EXPECT_GE(dropped.late_packets, iteration_zero);
    EXPECT_GT(dropped.unknown_source, 0u);
    EXPECT_EQ(dropped.nonfinite_packets, 0u);

    // Non-finite payloads are kept and counted; the detector masks the
    // sensor (a non-finite command runs the containment floor).
    stream = in_order;
    std::size_t nonfinite = 0;
    for (int i = 0; i < 12; ++i) {
      FleetPacket& p = stream[at(rng)];
      const bool was_finite = p.packet.payload.all_finite();
      p.packet.payload[i % p.packet.payload.size()] =
          i % 3 == 0 ? nan : (i % 3 == 1 ? inf : -inf);
      if (was_finite) ++nonfinite;
    }
    DetectorSession session(run.spec);
    for (const FleetPacket& p : stream) {
      ASSERT_NO_THROW(session.ingest(p));
    }
    ASSERT_NO_THROW(session.flush());
    EXPECT_EQ(session.counters().nonfinite_packets, nonfinite);
    EXPECT_EQ(session.counters().steps, run.mission.records.size());

    // A packet far ahead of the stream resyncs once; what follows it is
    // history.
    stream = in_order;
    FleetPacket far = stream[stream.size() / 2];
    far.packet.iteration += kMaxCatchUpFrames + 1000;
    stream.insert(stream.begin() + static_cast<std::ptrdiff_t>(
                                       stream.size() / 2),
                  far);
    DetectorSession resynced(run.spec);
    for (const FleetPacket& p : stream) {
      ASSERT_NO_THROW(resynced.ingest(p));
    }
    ASSERT_NO_THROW(resynced.flush());
    EXPECT_EQ(resynced.counters().resyncs, 1u);
    EXPECT_GT(resynced.counters().late_packets, 0u);
  }
}

}  // namespace
}  // namespace roboads::fleet

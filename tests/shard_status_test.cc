// Regression coverage for two shard-layer robustness fixes:
//
//  * worker_main must reject malformed numeric flags with a diagnostic and
//    exit code 2 — previously `--shard=abc` raised an uncaught
//    std::invalid_argument from std::stoi, which the supervisor counted as
//    a crash and retried on input that can never parse;
//  * the worker-liveness threshold used by build_status scales with the
//    configured heartbeat cadence instead of a hardcoded 10 s, so a worker
//    legitimately beating every 15 s is not excluded from the fleet rate.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "shard/checkpoint.h"
#include "shard/heartbeat.h"
#include "shard/status.h"
#include "shard/telemetry.h"
#include "shard/worker.h"

namespace roboads::shard {
namespace {

namespace fs = std::filesystem;

TEST(WorkerArgs, MalformedShardIsDiagnosedNotThrown) {
  // Exit code 2 with no exception — exactly what the supervisor expects
  // from bad input, as opposed to a crash signal.
  testing::internal::CaptureStderr();
  const int rc = worker_main(
      {"--manifest=m.json", "--dir=d", "--label=s0", "--shard=abc"});
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.find("--shard"), std::string::npos);
  EXPECT_NE(err.find("abc"), std::string::npos);
}

TEST(WorkerArgs, MalformedNumericFlagsAllExitTwo) {
  for (const std::string bad :
       {"--shard=", "--shard=1x", "--shard=-2", "--telemetry-interval=fast",
        "--telemetry-interval=-3", "--chaos=", "--chaos=kill", "--chaos=boom@1",
        "--chaos=stop@x", "--chaos=kill@-1"}) {
    testing::internal::CaptureStderr();
    const int rc =
        worker_main({"--manifest=m.json", "--dir=d", "--label=s0", bad});
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(rc, 2) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
}

TEST(WorkerArgs, WellFormedFlagsStillParse) {
  // --shard=-1 is the "no shard filter" sentinel and must stay accepted;
  // the worker then fails later (without job ids there is nothing to run),
  // but that failure is about the missing manifest, not the flags.
  testing::internal::CaptureStderr();
  const int rc = worker_main({"--manifest=/nonexistent/m.json", "--dir=/tmp",
                              "--label=s0", "--shard=-1",
                              "--telemetry-interval=0.5", "--chaos=kill@3"});
  testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 2);  // unreadable manifest — a run_worker error, post-parse
}

TEST(Liveness, ThresholdScalesWithConfiguredCadence) {
  // Floor alone for unknown/fast cadences...
  EXPECT_DOUBLE_EQ(live_heartbeat_threshold_seconds(0.0), 10.0);
  EXPECT_DOUBLE_EQ(live_heartbeat_threshold_seconds(-1.0), 10.0);
  EXPECT_DOUBLE_EQ(live_heartbeat_threshold_seconds(1.0), 10.0);
  EXPECT_DOUBLE_EQ(live_heartbeat_threshold_seconds(3.0), 10.0);
  // ...three beats' worth of grace for slow cadences.
  EXPECT_DOUBLE_EQ(live_heartbeat_threshold_seconds(5.0), 15.0);
  EXPECT_DOUBLE_EQ(live_heartbeat_threshold_seconds(15.0), 45.0);
}

TEST(Liveness, SlowCadenceWorkerStaysInFleetRate) {
  const std::string dir =
      (fs::temp_directory_path() / "roboads_status_liveness_test").string();
  fs::remove_all(dir);
  fs::create_directories(dir);

  Manifest manifest;
  manifest.shards = 1;
  ManifestJob job;
  job.id = "j0";
  job.shard = 0;
  job.kind = JobKind::kLibrary;
  job.scenario = "whatever";
  job.group = "g";
  manifest.jobs.push_back(job);

  // One worker with a telemetry rate > 0 and a heartbeat 12 s old: dead by
  // the 10 s floor, alive under a configured 15 s cadence (threshold 45 s).
  {
    std::ofstream os(checkpoint_path(dir, "s0"), std::ios::binary);
    obs::json::write_header(os, kCheckpointStream);
  }
  {
    TelemetryStream stream(dir, "s0", /*interval_seconds=*/60.0, nullptr);
    JobOutcome outcome;
    outcome.id = "j0";
    outcome.group = "g";
    outcome.status = "ok";
    stream.job_finished(outcome);
    stream.flush();  // elapsed > 0 by now, so jobs_per_second() > 0
  }
  Heartbeat beat;
  beat.label = "s0";
  beat.jobs_done = 1;
  obs::json::publish(heartbeat_path(dir, "s0"), beat, kHeartbeatFile);
  fs::last_write_time(heartbeat_path(dir, "s0"),
                      fs::file_time_type::clock::now() -
                          std::chrono::seconds(12));

  const RunStatus by_floor = build_status(manifest, dir);
  ASSERT_EQ(by_floor.workers.size(), 1u);
  EXPECT_GE(by_floor.workers[0].heartbeat_age_seconds, 10.0);
  EXPECT_GT(by_floor.workers[0].rate_jobs_per_second, 0.0);
  // Excluded: 12 s beats the default 10 s threshold.
  EXPECT_DOUBLE_EQ(by_floor.rate_jobs_per_second, 0.0);

  const RunStatus by_cadence =
      build_status(manifest, dir, {}, 0.0, /*heartbeat_interval_seconds=*/15.0);
  ASSERT_EQ(by_cadence.workers.size(), 1u);
  // Included: the threshold is now 3 × 15 s = 45 s.
  EXPECT_GT(by_cadence.rate_jobs_per_second, 0.0);

  fs::remove_all(dir);
}

}  // namespace
}  // namespace roboads::shard

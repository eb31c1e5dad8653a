// The live campaign telemetry plane's shard half (docs/OBSERVABILITY.md
// "Live campaign telemetry"): structured heartbeats, per-worker telemetry
// streams with the checkpoint's torn-tail crash model, and the
// supervisor-side status aggregation that `roboads_shard watch` renders.
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "obs/metrics.h"
#include "shard/checkpoint.h"
#include "shard/heartbeat.h"
#include "shard/manifest.h"
#include "shard/status.h"
#include "shard/telemetry.h"

namespace roboads::shard {
namespace {

namespace fs = std::filesystem;

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("roboads_telemetry_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

JobOutcome ok_outcome(const std::string& id, const std::string& group) {
  JobOutcome o;
  o.id = id;
  o.group = group;
  o.name = "scenario-" + id;
  o.status = "ok";
  o.sensor_tp = 2;
  return o;
}

TEST_F(TelemetryTest, RecordSerializeParseByteRoundTrip) {
  TelemetryRecord record;
  record.label = "s1";
  record.instance = 4242;
  record.seq = 3;
  record.unix_time = 1754000000.25;
  record.elapsed_seconds = 12.5;
  record.jobs_assigned = 9;
  record.jobs_done = 4;
  record.groups["seed-11"] = {3, 2, 1, 0, 2};
  record.groups["fuzz"] = {1, 1, 0, 0, 0};
  record.step_latency =
      obs::HistogramSnapshot::with_bounds(obs::default_latency_bounds_ns());
  record.step_latency.record(1000.0);
  record.step_latency.record(250000.0);
  record.max_rss_kb = 51200.0;
  record.user_seconds = 1.5;
  record.system_seconds = 0.25;

  const std::string line = obs::json::encode(record);
  const TelemetryRecord reparsed =
      obs::json::decode<TelemetryRecord>(line, "telemetry line 2");
  EXPECT_EQ(obs::json::encode(reparsed), line);
  EXPECT_EQ(reparsed.groups.at("seed-11").alarms, 2u);
  EXPECT_EQ(reparsed.step_latency.count, 2u);
  EXPECT_NEAR(reparsed.jobs_per_second(), 4.0 / 12.5, 1e-12);
}

TEST_F(TelemetryTest, StreamAppendsRecordsReadableByTheAggregator) {
  obs::MetricsRegistry registry;
  obs::Histogram& step =
      registry.histogram("engine.step_ns", obs::default_latency_bounds_ns());
  step.record(5000.0);
  step.record(90000.0);

  {
    TelemetryStream stream(dir_, "s0", /*interval_seconds=*/1e-6, &registry);
    ASSERT_TRUE(stream.enabled());
    stream.set_jobs_assigned(3);
    stream.flush();  // start-of-run mark
    stream.job_finished(ok_outcome("j1", "seed-11"));
    stream.job_finished(ok_outcome("j2", "seed-11"));
    JobOutcome failed = ok_outcome("j3", "seed-23");
    failed.status = "failed";
    failed.sensor_tp = 0;
    stream.job_finished(failed);
    stream.flush();  // end-of-run mark
  }

  const std::vector<TelemetryRecord> records =
      obs::json::read_stream(telemetry_path(dir_, "s0"), kTelemetryStream,
                             /*repair=*/false);
  ASSERT_GE(records.size(), 2u);
  const TelemetryRecord& last = records.back();
  EXPECT_EQ(last.label, "s0");
  EXPECT_EQ(last.jobs_assigned, 3u);
  EXPECT_EQ(last.jobs_done, 3u);
  EXPECT_EQ(last.seq, records.size() - 1);
  EXPECT_EQ(last.groups.at("seed-11").done, 2u);
  EXPECT_EQ(last.groups.at("seed-11").ok, 2u);
  EXPECT_EQ(last.groups.at("seed-11").alarms, 2u);
  EXPECT_EQ(last.groups.at("seed-23").failed, 1u);
  EXPECT_EQ(last.step_latency.count, 2u);
  EXPECT_GT(last.max_rss_kb, 0.0);
}

TEST_F(TelemetryTest, DisabledStreamWritesNothing) {
  TelemetryStream stream(dir_, "s0", /*interval_seconds=*/0.0, nullptr);
  EXPECT_FALSE(stream.enabled());
  stream.set_jobs_assigned(5);
  stream.job_finished(ok_outcome("j1", "g"));
  stream.flush();
  EXPECT_FALSE(fs::exists(telemetry_path(dir_, "s0")));
}

TEST_F(TelemetryTest, TornTailIsToleratedAndRepairedByTheNextInstance) {
  const std::string path = telemetry_path(dir_, "s0");
  {
    TelemetryStream stream(dir_, "s0", 60.0, nullptr);
    stream.job_finished(ok_outcome("j1", "g"));
    stream.flush();
  }
  const std::size_t good =
      obs::json::read_stream(path, kTelemetryStream, false).size();
  ASSERT_GE(good, 1u);

  // A SIGKILL mid-append leaves an unterminated final line.
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os << "{\"event\":\"telemetry\",\"lab";
  }
  EXPECT_EQ(obs::json::read_stream(path, kTelemetryStream, false).size(),
            good);  // tolerated

  // The next instance of the same label repairs the tail and appends.
  {
    TelemetryStream stream(dir_, "s0", 60.0, nullptr);
    ASSERT_TRUE(stream.enabled());
    stream.job_finished(ok_outcome("j2", "g"));
    stream.flush();
  }
  const std::vector<TelemetryRecord> records =
      obs::json::read_stream(path, kTelemetryStream, false);
  EXPECT_GT(records.size(), good);
  EXPECT_EQ(records.back().jobs_done, 1u);  // fresh instance counters

  // Corruption *before* the tail is real damage, not a torn tail.
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os << "garbage\n{\"event\":\"telemetry\"}\n";
  }
  EXPECT_THROW(obs::json::read_stream(path, kTelemetryStream, false),
               ManifestError);
}

TEST_F(TelemetryTest, HeartbeatRoundTripAndLegacyFallback) {
  const std::string path = heartbeat_path(dir_, "s0");
  Heartbeat beat;
  beat.label = "s0";
  beat.jobs_done = 7;
  beat.last_job = "j7";
  beat.last_job_unix_time = 1754000123.5;
  beat.current_job = "j8";
  obs::json::publish(path, beat, kHeartbeatFile);

  const std::optional<Heartbeat> read = read_heartbeat(path);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->label, "s0");
  EXPECT_EQ(read->jobs_done, 7u);
  EXPECT_EQ(read->last_job, "j7");
  EXPECT_EQ(read->last_job_unix_time, 1754000123.5);
  EXPECT_EQ(read->current_job, "j8");
  ASSERT_TRUE(heartbeat_age_seconds(path).has_value());
  EXPECT_GE(*heartbeat_age_seconds(path), 0.0);
  EXPECT_LT(*heartbeat_age_seconds(path), 60.0);

  // A legacy plain-text payload keeps its mtime meaning but parses to
  // nullopt — the watchdog falls back to age-only behavior.
  { std::ofstream(path, std::ios::trunc) << "s0\n"; }
  EXPECT_FALSE(read_heartbeat(path).has_value());
  EXPECT_TRUE(heartbeat_age_seconds(path).has_value());
  EXPECT_FALSE(read_heartbeat(dir_ + "/heartbeat-missing").has_value());
}

TEST_F(TelemetryTest, BuildStatusAgreesWithCheckpointTruth) {
  Manifest manifest;
  manifest.shards = 2;
  for (int i = 0; i < 4; ++i) {
    ManifestJob job;
    job.id = "j" + std::to_string(i);
    job.shard = static_cast<std::size_t>(i % 2);
    job.kind = JobKind::kLibrary;
    job.scenario = "whatever";
    job.group = "g";
    manifest.jobs.push_back(job);
  }

  // Worker s0 completed j0 and j2; worker s1 completed j1 and is mid-j3.
  {
    std::ofstream os(checkpoint_path(dir_, "s0"), std::ios::binary);
    obs::json::write_header(os, kCheckpointStream);
    obs::json::append(os, ok_outcome("j0", "g"));
    obs::json::append(os, ok_outcome("j2", "g"));
  }
  {
    std::ofstream os(checkpoint_path(dir_, "s1"), std::ios::binary);
    obs::json::write_header(os, kCheckpointStream);
    JobOutcome failed = ok_outcome("j1", "g");
    failed.status = "failed";
    obs::json::append(os, failed);
  }
  Heartbeat beat;
  beat.label = "s1";
  beat.jobs_done = 1;
  beat.last_job = "j1";
  beat.current_job = "j3";
  obs::json::publish(heartbeat_path(dir_, "s1"), beat, kHeartbeatFile);

  obs::MetricsRegistry registry;
  registry.histogram("engine.step_ns", obs::default_latency_bounds_ns())
      .record(1234.0);
  {
    TelemetryStream stream(dir_, "s1", 60.0, &registry);
    stream.set_jobs_assigned(2);
    stream.job_finished(ok_outcome("j1", "g"));
    stream.flush();
  }

  SupervisionCounters counters;
  counters.launches = 2;
  counters.slow_job_grants = 1;
  const RunStatus status = build_status(manifest, dir_, counters, 3.5);

  EXPECT_EQ(status.total_jobs, 4u);
  EXPECT_EQ(status.completed, 3u);
  EXPECT_EQ(status.ok, 2u);
  EXPECT_EQ(status.failed, 1u);
  EXPECT_FALSE(status.complete);
  EXPECT_NEAR(status.progress, 0.75, 1e-12);
  EXPECT_EQ(status.counters.slow_job_grants, 1u);
  EXPECT_EQ(status.elapsed_seconds, 3.5);
  EXPECT_EQ(status.step_latency.count, 1u);  // merged from s1's telemetry

  ASSERT_EQ(status.workers.size(), 2u);  // label order: s0, s1
  EXPECT_EQ(status.workers[0].label, "s0");
  EXPECT_EQ(status.workers[0].jobs_done, 2u);
  EXPECT_LT(status.workers[0].heartbeat_age_seconds, 0.0);  // no beat file
  EXPECT_EQ(status.workers[1].label, "s1");
  EXPECT_EQ(status.workers[1].jobs_done, 1u);
  EXPECT_GE(status.workers[1].heartbeat_age_seconds, 0.0);
  EXPECT_EQ(status.workers[1].current_job, "j3");
  EXPECT_EQ(status.workers[1].instance_jobs_done, 1u);

  // Serialize → parse → serialize is byte-stable, and the file publish
  // round-trips through read_status_file.
  const std::string line = obs::json::encode(status);
  EXPECT_EQ(obs::json::encode(obs::json::decode<RunStatus>(line, "status")),
            line);
  obs::json::publish(status_path(dir_), status, kStatusFile);
  EXPECT_EQ(obs::json::encode(
                obs::json::read_snapshot(status_path(dir_), kStatusFile)),
            line);
  EXPECT_FALSE(fs::exists(status_path(dir_) + ".tmp"));

  // The renderer includes every worker row and the progress line.
  const std::string rendered = render_status(status);
  EXPECT_NE(rendered.find("3/4"), std::string::npos);
  EXPECT_NE(rendered.find("s0"), std::string::npos);
  EXPECT_NE(rendered.find("s1"), std::string::npos);

  EXPECT_THROW(
      obs::json::read_snapshot(dir_ + "/nope/status.json", kStatusFile),
      CheckError);
}

}  // namespace
}  // namespace roboads::shard

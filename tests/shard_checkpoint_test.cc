// Checkpoint-file crash resilience: torn-tail repair, resume-after-kill
// semantics, and cross-shard dedup — the substrate that lets a SIGKILLed
// campaign continue where it stopped (docs/ROBUSTNESS.md).
#include "shard/checkpoint.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>

namespace roboads::shard {
namespace {

namespace fs = std::filesystem;

JobOutcome sample_outcome(const std::string& id) {
  JobOutcome out;
  out.id = id;
  out.group = "seed-11";
  out.name = "#3 optical isolation";
  out.status = "ok";
  out.sensor_tp = 40;
  out.sensor_fp = 1;
  out.sensor_tn = 200;
  out.sensor_fn = 2;
  out.actuator_tp = 10;
  out.actuator_fp = 0;
  out.actuator_tn = 230;
  out.actuator_fn = 0;
  OutcomeDelay detected;
  detected.label = "ips";
  detected.triggered_at = 57;
  detected.seconds = 0.35;
  out.delays.push_back(detected);
  OutcomeDelay missed;
  missed.label = "actuator";
  missed.triggered_at = 90;  // never detected: seconds stays nullopt
  out.delays.push_back(missed);
  out.sensor_sequence = "ips";
  out.actuator_sequence = "";
  out.bundle_files = {"bundles/j00001-b0.jsonl"};
  return out;
}

std::string temp_dir(const char* name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

TEST(ShardCheckpoint, OutcomeRoundTripsByteIdentical) {
  const JobOutcome out = sample_outcome("j00042");
  const std::string line = serialize_outcome(out);
  const JobOutcome reparsed =
      obs::json::decode<JobOutcome>(line, "checkpoint line 2");
  EXPECT_EQ(serialize_outcome(reparsed), line);
  EXPECT_EQ(reparsed.id, "j00042");
  ASSERT_EQ(reparsed.delays.size(), 2u);
  EXPECT_TRUE(reparsed.delays[0].seconds.has_value());
  EXPECT_DOUBLE_EQ(*reparsed.delays[0].seconds, 0.35);
  EXPECT_FALSE(reparsed.delays[1].seconds.has_value());
  EXPECT_EQ(reparsed.bundle_files, out.bundle_files);
}

TEST(ShardCheckpoint, FindingRoundTrips) {
  JobOutcome out;
  out.id = "f0";
  out.status = "violation";
  OutcomeFinding finding;
  finding.invariant = "score-consistency";
  finding.detail = "alarm without condition\nat step 12";
  finding.spec_text = "scenario \"x\"\nend\n";
  finding.shrunk_text = "scenario \"y\"\nend\n";
  out.findings.push_back(finding);
  const std::string line = serialize_outcome(out);
  const JobOutcome reparsed =
      obs::json::decode<JobOutcome>(line, "checkpoint line 1");
  ASSERT_EQ(reparsed.findings.size(), 1u);
  EXPECT_EQ(reparsed.findings[0].detail, finding.detail);
  EXPECT_EQ(reparsed.findings[0].shrunk_text, finding.shrunk_text);
  EXPECT_EQ(serialize_outcome(reparsed), line);
}

TEST(ShardCheckpoint, ResumesAfterTornTail) {
  const std::string dir = temp_dir("roboads_ckpt_torn");
  const std::string path = checkpoint_path(dir, "s0");

  // A worker writes two outcomes, then is killed mid-write of the third.
  {
    std::ofstream os(path, std::ios::binary);
    obs::json::write_header(os, kCheckpointStream);
    obs::json::append(os, sample_outcome("j00000"));
    obs::json::append(os, sample_outcome("j00001"));
    const std::string torn = serialize_outcome(sample_outcome("j00002"));
    os << torn.substr(0, torn.size() / 2);  // no newline: mid-write kill
  }

  // Repair drops exactly the torn line; completed work survives.
  const std::vector<JobOutcome> repaired =
      obs::json::read_stream(path, kCheckpointStream, /*repair=*/true);
  ASSERT_EQ(repaired.size(), 2u);
  EXPECT_EQ(repaired[0].id, "j00000");
  EXPECT_EQ(repaired[1].id, "j00001");

  // A restarted worker appends from the repaired tail; the file reads
  // clean afterwards, as if the kill never happened.
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    obs::json::append(os, sample_outcome("j00002"));
  }
  const std::vector<JobOutcome> resumed =
      obs::json::read_stream(path, kCheckpointStream, /*repair=*/false);
  ASSERT_EQ(resumed.size(), 3u);
  EXPECT_EQ(resumed[2].id, "j00002");
}

TEST(ShardCheckpoint, MidFileCorruptionThrows) {
  const std::string dir = temp_dir("roboads_ckpt_corrupt");
  const std::string path = checkpoint_path(dir, "s0");
  {
    std::ofstream os(path, std::ios::binary);
    obs::json::write_header(os, kCheckpointStream);
    os << "garbage line\n";
    obs::json::append(os, sample_outcome("j00000"));
  }
  // Dropping completed work silently would undercount the campaign.
  EXPECT_THROW(
      obs::json::read_stream(path, kCheckpointStream, /*repair=*/true),
      ManifestError);
}

TEST(ShardCheckpoint, TornHeaderRepairsToEmpty) {
  const std::string dir = temp_dir("roboads_ckpt_header");
  const std::string path = checkpoint_path(dir, "s0");
  {
    std::ofstream os(path, std::ios::binary);
    os << "{\"event\":\"check";  // killed mid-header
  }
  EXPECT_TRUE(
      obs::json::read_stream(path, kCheckpointStream, /*repair=*/true)
          .empty());
  EXPECT_EQ(fs::file_size(path), 0u);
}

TEST(ShardCheckpoint, LoadRunOutcomesDedupsAcrossShards) {
  const std::string dir = temp_dir("roboads_ckpt_dedup");
  {
    std::ofstream os(checkpoint_path(dir, "s0"), std::ios::binary);
    obs::json::write_header(os, kCheckpointStream);
    obs::json::append(os, sample_outcome("j00000"));
    obs::json::append(os, sample_outcome("j00001"));
  }
  {
    // A salvage worker re-recorded j00001 (identical bytes — outcomes are
    // pure) and added j00002.
    std::ofstream os(checkpoint_path(dir, "v1-0"), std::ios::binary);
    obs::json::write_header(os, kCheckpointStream);
    obs::json::append(os, sample_outcome("j00001"));
    obs::json::append(os, sample_outcome("j00002"));
  }
  const std::vector<JobOutcome> outcomes = load_run_outcomes(dir);
  ASSERT_EQ(outcomes.size(), 3u);
  std::set<std::string> ids;
  for (const JobOutcome& o : outcomes) ids.insert(o.id);
  EXPECT_EQ(ids, (std::set<std::string>{"j00000", "j00001", "j00002"}));
}

}  // namespace
}  // namespace roboads::shard

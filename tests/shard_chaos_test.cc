// End-to-end chaos harness: a real sharded campaign (this test binary
// re-execs itself as the workers) with a SIGKILL and a SIGSTOP injected
// mid-run, whose merged report must be BYTE-identical to an uninterrupted
// serial execution of the same manifest. This is the sharded runner's
// headline guarantee (ISSUE acceptance; docs/ROBUSTNESS.md): supervision,
// retry, watchdog reclaim and checkpoint resume must never change results.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "shard/checkpoint.h"
#include "shard/exec.h"
#include "shard/manifest.h"
#include "shard/merge.h"
#include "shard/supervise.h"
#include "shard/worker.h"

namespace roboads::shard {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const char* name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// A small mixed campaign: randomized fuzz campaigns (fast, exercise the
// regeneration path) plus real Table II missions (exercise scoring, delays
// and postmortem bundles).
Manifest chaos_manifest() {
  scenario::FuzzConfig fuzz;
  fuzz.seed = 3;
  fuzz.campaigns = 10;
  fuzz.iterations = 60;
  fuzz.platforms = {"khepera"};
  Manifest manifest = fuzz_manifest(fuzz, 3);
  Manifest missions = table2_manifest({11}, 3, 250);
  for (std::size_t n = 0; n < 4; ++n) {  // scenarios #1..#4 keep it quick
    ManifestJob job = missions.jobs[n];
    job.id = "m" + std::to_string(n);
    manifest.jobs.push_back(std::move(job));
  }
  return manifest;
}

TEST(ShardChaos, KilledAndHungWorkersDoNotChangeMergedResults) {
  const Manifest manifest = chaos_manifest();

  // Serial reference: every job in-process, no supervision.
  const std::string serial_dir = temp_dir("roboads_chaos_serial");
  ExecConfig exec;
  exec.run_dir = serial_dir;
  exec.record_bundles = true;
  std::vector<JobOutcome> serial_outcomes;
  for (const ManifestJob& job : manifest.jobs) {
    serial_outcomes.push_back(execute_job(job, exec));
  }
  const MergedReport serial =
      merge_outcomes(manifest, std::move(serial_outcomes));
  ASSERT_TRUE(serial.stats.complete);

  // Chaos run: real worker processes; one victim SIGKILLs itself and one
  // SIGSTOPs itself half-way through its jobs. The victims fire the signals,
  // so both land mid-shard however fast the jobs run.
  const std::string chaos_dir = temp_dir("roboads_chaos_run");
  const std::string manifest_path = chaos_dir + "/manifest.jsonl";
  write_manifest_file(manifest_path, manifest);
  SupervisorConfig config;
  config.chaos_kills = 1;
  config.chaos_stops = 1;
  config.chaos_seed = 11;
  // Generous watchdog + retry budget: workers heartbeat once per job, and
  // on a loaded single-core machine a healthy mission job can take several
  // wall seconds, which must not read as a hang and burn the retry budget.
  // The SIGSTOPped worker is still reclaimed — just 4s later.
  config.heartbeat_timeout_seconds = 4.0;
  config.retry.max_retries = 6;
  config.poll_interval_seconds = 0.02;
  config.retry.base_delay_seconds = 0.05;
  const SuperviseResult supervised =
      supervise(manifest, chaos_dir, config,
                self_exec_launcher(manifest_path, chaos_dir,
                                   /*record_bundles=*/true));

  EXPECT_TRUE(supervised.complete) << supervised.missing_ids.size()
                                   << " jobs missing";
  // Both injections must actually have fired and been absorbed: the killed
  // worker reaps as a crash, and the stopped one as a hang that the
  // watchdog's SIGKILL then reaps as a crash.
  EXPECT_GE(supervised.hangs, 1u);
  EXPECT_GE(supervised.crashes, 2u);
  EXPECT_EQ(supervised.lost_shards, 0u);

  const MergedReport chaos = merge_run(manifest, chaos_dir);
  EXPECT_EQ(chaos.text, serial.text)
      << "chaos-interrupted merge diverged from the serial reference";

  // The postmortem bundles referenced by the merged outcomes exist in both
  // run directories under identical relative names.
  std::size_t bundles = 0;
  for (const JobOutcome& outcome : load_run_outcomes(chaos_dir)) {
    for (const std::string& rel : outcome.bundle_files) {
      EXPECT_TRUE(fs::exists(chaos_dir + "/" + rel)) << rel;
      EXPECT_TRUE(fs::exists(serial_dir + "/" + rel)) << rel;
      ++bundles;
    }
  }
  EXPECT_GT(bundles, 0u) << "attack missions should freeze bundles";
}

TEST(ShardChaos, ResumeAfterSupervisorLossCompletesTheCampaign) {
  const Manifest manifest = chaos_manifest();
  const std::string dir = temp_dir("roboads_chaos_resume");
  const std::string manifest_path = dir + "/manifest.jsonl";
  write_manifest_file(manifest_path, manifest);

  // Simulate a supervisor killed mid-run: partial checkpoints exist (one
  // full shard plus a torn line from a worker killed mid-write).
  {
    ExecConfig exec;
    exec.run_dir = dir;
    std::ofstream os(checkpoint_path(dir, "s0"), std::ios::binary);
    write_checkpoint_header(os);
    for (const ManifestJob& job : manifest.jobs) {
      if (job.shard == 0) append_outcome(os, execute_job(job, exec));
    }
    std::ofstream torn(checkpoint_path(dir, "s1"), std::ios::binary);
    write_checkpoint_header(torn);
    const std::string line = serialize_outcome(execute_job(
        manifest.jobs[1], exec));
    torn << line.substr(0, line.size() / 2);
  }

  SupervisorConfig config;
  config.poll_interval_seconds = 0.02;
  const SuperviseResult resumed =
      supervise(manifest, dir, config,
                self_exec_launcher(manifest_path, dir,
                                   /*record_bundles=*/false));
  EXPECT_TRUE(resumed.complete);

  // The merged report equals a from-scratch serial run: resume neither
  // duplicates nor loses work.
  ExecConfig exec;
  exec.run_dir = temp_dir("roboads_chaos_resume_ref");
  std::vector<JobOutcome> reference;
  for (const ManifestJob& job : manifest.jobs) {
    reference.push_back(execute_job(job, exec));
  }
  EXPECT_EQ(merge_run(manifest, dir).text,
            merge_outcomes(manifest, std::move(reference)).text);
}

}  // namespace
}  // namespace roboads::shard

int main(int argc, char** argv) {
  // Supervisor-spawned workers re-exec this binary; the dispatch must come
  // before gtest sees the flags.
  if (argc >= 2 && std::string(argv[1]) == "--shard-worker") {
    return roboads::shard::worker_main({argv + 2, argv + argc});
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}

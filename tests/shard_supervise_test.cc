// Supervisor behavior under worker failure, driven by /bin/sh fake workers
// so each failure mode (crash, hang, permanent loss) is injected exactly
// once and deterministically. The fake workers interact with the supervisor
// the only way real ones do: by writing checkpoint files.
#include "shard/supervise.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "shard/checkpoint.h"
#include "shard/run.h"

namespace roboads::shard {
namespace {

namespace fs = std::filesystem;

Manifest four_job_manifest() {
  Manifest manifest;
  manifest.shards = 2;
  for (int i = 0; i < 4; ++i) {
    ManifestJob job;
    job.id = "j" + std::to_string(i);
    job.shard = static_cast<std::size_t>(i % 2);
    job.kind = JobKind::kLibrary;
    job.scenario = "unused — fake workers never execute jobs";
    manifest.jobs.push_back(job);
  }
  return manifest;
}

std::string temp_dir(const char* name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// Writes the exact checkpoint a successful worker would produce for
// `job_ids` to a payload file the shell script can `cat` into place.
std::string stage_payload(const std::string& dir, const std::string& label,
                          const std::vector<std::string>& job_ids) {
  std::ostringstream content;
  obs::json::write_header(content, kCheckpointStream);
  for (const std::string& id : job_ids) {
    JobOutcome out;
    out.id = id;
    out.status = "ok";
    obs::json::append(content, out);
  }
  const std::string path = dir + "/payload-" + label;
  std::ofstream os(path, std::ios::binary);
  os << content.str();
  return path;
}

SupervisorConfig fast_config() {
  SupervisorConfig config;
  config.retry.base_delay_seconds = 0.02;
  config.retry.max_delay_seconds = 0.1;
  config.poll_interval_seconds = 0.01;
  config.heartbeat_timeout_seconds = 10.0;
  return config;
}

WorkerCommand shell(const std::string& script) {
  return WorkerCommand{{"/bin/sh", "-c", script}};
}

// True once `pid` has exited, polling for up to two seconds. A zombie
// waiting for its new parent to reap it counts as exited.
bool process_gone(pid_t pid) {
  for (int i = 0; i < 200; ++i) {
    if (kill(pid, 0) != 0) return true;
    std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
    std::string line;
    std::getline(stat, line);
    const std::size_t name_end = line.rfind(')');
    if (name_end != std::string::npos && name_end + 2 < line.size() &&
        line[name_end + 2] == 'Z') {
      return true;
    }
    usleep(10000);
  }
  return false;
}

TEST(ShardRetryPolicy, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy policy;  // base 0.25, x2, cap 5
  EXPECT_DOUBLE_EQ(policy.delay_seconds(1), 0.25);
  EXPECT_DOUBLE_EQ(policy.delay_seconds(2), 0.5);
  EXPECT_DOUBLE_EQ(policy.delay_seconds(3), 1.0);
  EXPECT_DOUBLE_EQ(policy.delay_seconds(4), 2.0);
  EXPECT_DOUBLE_EQ(policy.delay_seconds(5), 4.0);
  EXPECT_DOUBLE_EQ(policy.delay_seconds(6), 5.0);   // capped
  EXPECT_DOUBLE_EQ(policy.delay_seconds(60), 5.0);  // stays capped, no overflow

  RetryPolicy steep;
  steep.base_delay_seconds = 1.0;
  steep.multiplier = 10.0;
  steep.max_delay_seconds = 5.0;
  EXPECT_DOUBLE_EQ(steep.delay_seconds(1), 1.0);
  EXPECT_DOUBLE_EQ(steep.delay_seconds(2), 5.0);
}

TEST(ShardChaosArgument, RoundTripsAndRejectsMalformedValues) {
  EXPECT_EQ(chaos_argument(SIGKILL, 3), "--chaos=kill@3");
  EXPECT_EQ(chaos_argument(SIGSTOP, 0), "--chaos=stop@0");
  const std::optional<ChaosInjection> stop = parse_chaos_argument("stop@0");
  ASSERT_TRUE(stop.has_value());
  EXPECT_EQ(stop->signal, SIGSTOP);
  EXPECT_EQ(stop->after_jobs, 0u);
  EXPECT_EQ(parse_chaos_argument("kill@12")->signal, SIGKILL);
  for (const char* bad : {"", "kill", "kill@", "term@1", "stop@1x", "@2"}) {
    EXPECT_FALSE(parse_chaos_argument(bad).has_value()) << bad;
  }
  EXPECT_THROW(chaos_argument(SIGTERM, 1), CheckError);
}

// The campaign flags of roboads_fuzz and seed_robustness: taken out of the
// argument list, the rest left in order, and every malformed or
// inconsistent combination refused with a diagnostic naming the flag.
TEST(ShardCampaignFlags, TakesItsFlagsAndRefusesBadCombinations) {
  std::vector<std::string> args = {"--seed=3", "--workers=4",
                                   "--shard-dir=out", "--resume",
                                   "--campaigns=9"};
  std::size_t workers = 0;
  SupervisedRunConfig run;
  EXPECT_EQ(take_campaign_flags(args, workers, run), "");
  EXPECT_EQ(args, (std::vector<std::string>{"--seed=3", "--campaigns=9"}));
  EXPECT_EQ(workers, 4u);
  EXPECT_EQ(run.dir, "out");
  EXPECT_TRUE(run.resume);

  // No campaign flag: in process, nothing taken.
  args = {"--seeds=2", "--trace-out=t.jsonl"};
  workers = 0;
  run = {};
  EXPECT_EQ(take_campaign_flags(args, workers, run), "");
  EXPECT_EQ(args.size(), 2u);
  EXPECT_EQ(workers, 0u);
  EXPECT_TRUE(run.dir.empty());
  EXPECT_FALSE(run.resume);

  const std::pair<std::vector<std::string>, const char*> refused[] = {
      {{"--workers=0", "--shard-dir=d"}, "--workers expects"},
      {{"--workers=-1", "--shard-dir=d"}, "--workers expects"},
      {{"--workers=2x", "--shard-dir=d"}, "--workers expects"},
      {{"--workers=", "--shard-dir=d"}, "--workers expects"},
      {{"--workers=2"}, "--workers needs --shard-dir"},
      {{"--shard-dir=d"}, "need --workers"},
      {{"--resume"}, "need --workers"},
  };
  for (const auto& [bad, diagnostic] : refused) {
    std::vector<std::string> copy = bad;
    workers = 0;
    run = {};
    const std::string error = take_campaign_flags(copy, workers, run);
    EXPECT_NE(error.find(diagnostic), std::string::npos)
        << bad[0] << ": " << error;
    EXPECT_EQ(error.find('\n'), std::string::npos) << error;
  }
}

TEST(ShardSupervise, HealthyWorkersCompleteInOneLaunchEach) {
  const Manifest manifest = four_job_manifest();
  const std::string dir = temp_dir("roboads_sup_ok");
  const SuperviseResult result = supervise(
      manifest, dir, fast_config(),
      [&](const std::string& label, const std::vector<std::string>& ids) {
        const std::string payload = stage_payload(dir, label, ids);
        return shell("cat " + payload + " > " +
                     checkpoint_path(dir, label));
      });
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.launches, 2u);
  EXPECT_EQ(result.crashes, 0u);
  EXPECT_EQ(result.hangs, 0u);
  EXPECT_EQ(result.lost_shards, 0u);
  EXPECT_TRUE(result.missing_ids.empty());
}

TEST(ShardSupervise, CrashedWorkerIsRetriedAndCompletes) {
  const Manifest manifest = four_job_manifest();
  const std::string dir = temp_dir("roboads_sup_crash");
  // Shard 0's worker dies before writing anything — once. The marker file
  // makes the retry succeed.
  const SuperviseResult result = supervise(
      manifest, dir, fast_config(),
      [&](const std::string& label, const std::vector<std::string>& ids) {
        const std::string payload = stage_payload(dir, label, ids);
        const std::string ckpt = checkpoint_path(dir, label);
        if (label == "s0") {
          return shell("if [ -f " + dir + "/marker ]; then cat " + payload +
                       " > " + ckpt + "; else touch " + dir +
                       "/marker; exit 1; fi");
        }
        return shell("cat " + payload + " > " + ckpt);
      });
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.crashes, 1u);
  EXPECT_EQ(result.launches, 3u);  // s0 twice, s1 once
  EXPECT_TRUE(result.missing_ids.empty());
}

TEST(ShardSupervise, HungWorkerIsKilledByWatchdogAndRetried) {
  const Manifest manifest = four_job_manifest();
  const std::string dir = temp_dir("roboads_sup_hang");
  SupervisorConfig config = fast_config();
  config.heartbeat_timeout_seconds = 0.3;
  // Shard 1's first worker wedges in a child process without ever beating;
  // the watchdog must reclaim it like a crash, child included.
  const std::string sleep_pid_path = dir + "/sleep.pid";
  const SuperviseResult result = supervise(
      manifest, dir, config,
      [&](const std::string& label, const std::vector<std::string>& ids) {
        const std::string payload = stage_payload(dir, label, ids);
        const std::string ckpt = checkpoint_path(dir, label);
        if (label == "s1") {
          return shell("if [ -f " + dir + "/marker ]; then cat " + payload +
                       " > " + ckpt + "; else touch " + dir +
                       "/marker; sleep 60 & echo $! > " + sleep_pid_path +
                       "; wait; fi");
        }
        return shell("cat " + payload + " > " + ckpt);
      });
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.hangs, 1u);
  EXPECT_GE(result.crashes, 1u);  // the SIGKILLed hang reaps as a crash
  EXPECT_TRUE(result.missing_ids.empty());

  // The worker's `sleep 60` died with it rather than outliving the run.
  std::ifstream pid_file(sleep_pid_path);
  pid_t sleep_pid = 0;
  ASSERT_TRUE(pid_file >> sleep_pid) << "the hung worker never started";
  EXPECT_TRUE(process_gone(sleep_pid)) << "orphaned pid " << sleep_pid;
}

TEST(ShardSupervise, LostShardIsSalvagedByFreshWorkers) {
  const Manifest manifest = four_job_manifest();
  const std::string dir = temp_dir("roboads_sup_salvage");
  SupervisorConfig config = fast_config();
  config.retry.max_retries = 1;
  // Every "s*" worker for shard 0 dies; only salvage workers ("v*")
  // succeed — the pool shrinks but the campaign completes.
  const SuperviseResult result = supervise(
      manifest, dir, config,
      [&](const std::string& label, const std::vector<std::string>& ids) {
        const std::string payload = stage_payload(dir, label, ids);
        const std::string ckpt = checkpoint_path(dir, label);
        if (label == "s0") return shell("exit 1");
        return shell("cat " + payload + " > " + ckpt);
      });
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.lost_shards, 1u);
  EXPECT_GE(result.salvage_workers, 1u);
  EXPECT_TRUE(result.missing_ids.empty());
}

TEST(ShardSupervise, PermanentLossReportsPartialCoverage) {
  const Manifest manifest = four_job_manifest();
  const std::string dir = temp_dir("roboads_sup_partial");
  SupervisorConfig config = fast_config();
  config.retry.max_retries = 0;
  config.salvage_waves = 1;
  // Shard 0 can never complete; its jobs must surface as missing, not hang
  // the supervisor or vanish silently.
  const SuperviseResult result = supervise(
      manifest, dir, config,
      [&](const std::string& label, const std::vector<std::string>& ids) {
        const std::string payload = stage_payload(dir, label, ids);
        const std::string ckpt = checkpoint_path(dir, label);
        bool has_shard0_job = false;
        for (const std::string& id : ids) {
          if (id == "j0" || id == "j2") has_shard0_job = true;
        }
        if (has_shard0_job) return shell("exit 1");
        return shell("cat " + payload + " > " + ckpt);
      });
  EXPECT_FALSE(result.complete);
  EXPECT_GE(result.lost_shards, 1u);
  EXPECT_EQ(result.missing_ids, (std::vector<std::string>{"j0", "j2"}));
}

TEST(ShardSupervise, ResumeSkipsCheckpointedJobs) {
  const Manifest manifest = four_job_manifest();
  const std::string dir = temp_dir("roboads_sup_resume");
  // A previous (killed) run already completed shard 0's jobs.
  {
    std::ofstream os(checkpoint_path(dir, "s0"), std::ios::binary);
    obs::json::write_header(os, kCheckpointStream);
    for (const char* id : {"j0", "j2"}) {
      JobOutcome out;
      out.id = id;
      out.status = "ok";
      obs::json::append(os, out);
    }
  }
  std::vector<std::vector<std::string>> launched_with;
  const SuperviseResult result = supervise(
      manifest, dir, fast_config(),
      [&](const std::string& label, const std::vector<std::string>& ids) {
        launched_with.push_back(ids);
        const std::string payload = stage_payload(dir, label, ids);
        return shell("cat " + payload + " > " + checkpoint_path(dir, label));
      });
  EXPECT_TRUE(result.complete);
  // Only shard 1's pending jobs were handed to a worker.
  ASSERT_EQ(launched_with.size(), 1u);
  EXPECT_EQ(launched_with[0], (std::vector<std::string>{"j1", "j3"}));
}

}  // namespace
}  // namespace roboads::shard

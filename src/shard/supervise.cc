#include "shard/supervise.h"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <set>

#include "common/check.h"
#include "common/parse.h"
#include "random/rng.h"
#include "shard/checkpoint.h"
#include "shard/heartbeat.h"
#include "shard/status.h"

namespace roboads::shard {
namespace {

double monotonic_now() {
  struct timespec ts;
  ROBOADS_CHECK(clock_gettime(CLOCK_MONOTONIC, &ts) == 0,
                "clock_gettime failed");
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void sleep_seconds(double seconds) {
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(seconds);
  ts.tv_nsec = static_cast<long>((seconds - std::floor(seconds)) * 1e9);
  nanosleep(&ts, nullptr);
}

// Each worker leads its own process group, so a signal sent to `-pid`
// reaches everything the worker started (a shell's children included), not
// just the worker: a SIGKILLed worker leaves no orphans behind.
pid_t spawn(const WorkerCommand& command) {
  ROBOADS_CHECK(!command.args.empty(), "worker command needs argv[0]");
  const pid_t pid = fork();
  if (pid == 0) {
    setpgid(0, 0);
    // Orphaned workers must not outlive a killed supervisor — a crashed
    // coordinating process should leave a resumable directory, not a stray
    // pool of compute.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    std::vector<char*> argv;
    argv.reserve(command.args.size() + 1);
    for (const std::string& arg : command.args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    execvp(argv[0], argv.data());
    _exit(127);
  }
  ROBOADS_CHECK(pid > 0, "fork failed");
  // Also set from this side, so the group exists before the supervisor can
  // signal it whichever process runs first. Fails harmlessly (EACCES) once
  // the child has exec'd, by which time the child has set it itself.
  setpgid(pid, pid);
  return pid;
}

struct Slot {
  std::string label;
  std::vector<std::string> job_ids;  // assigned manifest job ids
  std::vector<int> chaos;  // signals its next launches inject, in order
  pid_t pid = -1;
  std::size_t launches = 0;
  double restart_at = 0.0;    // monotonic time gate for the next launch
  double launched_at = 0.0;   // heartbeat fallback until the first beat
  bool killing = false;       // watchdog SIGKILL sent, waiting for the reap
  bool grace_granted = false;  // slow-job grace used for this launch
  double grace_deadline = 0.0;
  bool done = false;
  bool lost = false;

  bool active() const { return !done && !lost; }
};

// Publishes status.json on a throttle. Best-effort by design: a sibling
// worker tearing a telemetry tail mid-read must never take down the
// supervision loop, so every build failure is swallowed and the previous
// snapshot (atomically published) stays in place.
class StatusWriter {
 public:
  StatusWriter(const Manifest& manifest, const std::string& dir,
               double interval_seconds, double heartbeat_interval_seconds)
      : manifest_(manifest),
        dir_(dir),
        interval_seconds_(interval_seconds),
        heartbeat_interval_seconds_(heartbeat_interval_seconds),
        started_(monotonic_now()) {}

  void maybe_write(const SuperviseResult& result) {
    if (interval_seconds_ <= 0.0) return;
    const double now = monotonic_now();
    if (now - last_write_ < interval_seconds_) return;
    write(result, now);
  }

  // The final snapshot of a run (or wave) must not be throttled away.
  void force_write(const SuperviseResult& result) {
    if (interval_seconds_ <= 0.0) return;
    write(result, monotonic_now());
  }

 private:
  void write(const SuperviseResult& result, double now) {
    SupervisionCounters counters;
    counters.launches = result.launches;
    counters.crashes = result.crashes;
    counters.hangs = result.hangs;
    counters.lost_shards = result.lost_shards;
    counters.salvage_workers = result.salvage_workers;
    counters.slow_job_grants = result.slow_job_grants;
    try {
      obs::json::publish(status_path(dir_),
                         build_status(manifest_, dir_, counters,
                                      now - started_,
                                      heartbeat_interval_seconds_),
                         kStatusFile);
    } catch (const std::exception&) {
      // Keep supervising; the next interval retries.
    }
    last_write_ = now;
  }

  const Manifest& manifest_;
  const std::string dir_;
  const double interval_seconds_;
  const double heartbeat_interval_seconds_;
  const double started_;
  double last_write_ = -1e18;
};

std::set<std::string> completed_ids(const std::string& dir) {
  std::set<std::string> ids;
  for (const JobOutcome& outcome : load_run_outcomes(dir)) {
    ids.insert(outcome.id);
  }
  return ids;
}

std::vector<std::string> pending_of(const Slot& slot,
                                    const std::set<std::string>& completed) {
  std::vector<std::string> pending;
  for (const std::string& id : slot.job_ids) {
    if (completed.count(id) == 0) pending.push_back(id);
  }
  return pending;
}

// Drives one wave of slots to completion or loss.
void run_wave(std::vector<Slot>& slots, const std::string& dir,
              const SupervisorConfig& config,
              const WorkerLauncher& launcher, SuperviseResult& result,
              StatusWriter& status) {
  const double grace_seconds = config.slow_job_grace_seconds < 0.0
                                   ? config.heartbeat_timeout_seconds
                                   : config.slow_job_grace_seconds;

  while (std::any_of(slots.begin(), slots.end(),
                     [](const Slot& s) { return s.active(); })) {
    const double now = monotonic_now();
    const std::set<std::string> completed = completed_ids(dir);

    for (Slot& slot : slots) {
      if (!slot.active()) continue;

      if (slot.pid < 0) {
        const std::vector<std::string> pending = pending_of(slot, completed);
        if (pending.empty()) {
          slot.done = true;
          continue;
        }
        if (now < slot.restart_at) continue;
        if (slot.launches > config.retry.max_retries) {
          slot.lost = true;
          ++result.lost_shards;
          continue;
        }
        WorkerCommand command = launcher(slot.label, pending);
        if (!slot.chaos.empty()) {
          // Half-way through its pending jobs, so work exists both behind
          // the injection (exercising resume) and ahead of it (exercising
          // retry).
          command.args.push_back(
              chaos_argument(slot.chaos.front(), pending.size() / 2));
          slot.chaos.erase(slot.chaos.begin());
        }
        slot.pid = spawn(command);
        slot.launched_at = now;
        slot.grace_granted = false;
        slot.grace_deadline = 0.0;
        ++slot.launches;
        ++result.launches;
        continue;
      }

      // Watchdog: a worker that stopped heartbeating is reclaimed exactly
      // like one that died — SIGKILL works on stopped processes too.
      const std::optional<double> age =
          heartbeat_age_seconds(heartbeat_path(dir, slot.label));
      const double silent =
          age.has_value() ? std::min(*age, now - slot.launched_at)
                          : now - slot.launched_at;
      if (silent > config.heartbeat_timeout_seconds && !slot.killing) {
        // Slow-job grace: a worker whose structured heartbeat shows jobs
        // completed since this launch is plausibly deep in one long job,
        // not hung — grant one extra window (per launch) before the
        // SIGKILL. Workers that never wrote a structured beat (or made no
        // progress) are reclaimed immediately, as before.
        bool reclaim = true;
        if (slot.grace_granted) {
          reclaim = now >= slot.grace_deadline;
        } else if (grace_seconds > 0.0) {
          const std::optional<Heartbeat> beat =
              read_heartbeat(heartbeat_path(dir, slot.label));
          if (beat.has_value() && beat->jobs_done > 0) {
            slot.grace_granted = true;
            slot.grace_deadline = now + grace_seconds;
            ++result.slow_job_grants;
            reclaim = false;
          }
        }
        if (reclaim) {
          kill(-slot.pid, SIGKILL);
          slot.killing = true;
          ++result.hangs;
        }
      }

      int status = 0;
      const pid_t reaped = waitpid(slot.pid, &status, WNOHANG);
      if (reaped == slot.pid) {
        slot.pid = -1;
        slot.killing = false;
        if (pending_of(slot, completed_ids(dir)).empty()) {
          slot.done = true;
        } else {
          ++result.crashes;
          slot.restart_at =
              now + config.retry.delay_seconds(slot.launches);
        }
      }
    }

    status.maybe_write(result);
    sleep_seconds(config.poll_interval_seconds);
  }
}

}  // namespace

std::string chaos_argument(int signal, std::size_t after_jobs) {
  ROBOADS_CHECK(signal == SIGKILL || signal == SIGSTOP,
                "chaos injects SIGKILL or SIGSTOP");
  return std::string("--chaos=") + (signal == SIGKILL ? "kill" : "stop") +
         "@" + std::to_string(after_jobs);
}

std::optional<ChaosInjection> parse_chaos_argument(const std::string& value) {
  const std::size_t at = value.find('@');
  if (at == std::string::npos) return std::nullopt;
  const std::string name = value.substr(0, at);
  const auto after_jobs = common::parse_u64(value.substr(at + 1));
  if (!after_jobs || (name != "kill" && name != "stop")) return std::nullopt;
  return ChaosInjection{name == "kill" ? SIGKILL : SIGSTOP,
                        static_cast<std::size_t>(*after_jobs)};
}

double RetryPolicy::delay_seconds(std::size_t attempt) const {
  ROBOADS_CHECK(attempt >= 1, "retry attempts are 1-based");
  double delay = base_delay_seconds;
  for (std::size_t i = 1; i < attempt; ++i) {
    delay *= multiplier;
    if (delay >= max_delay_seconds) break;
  }
  return std::min(delay, max_delay_seconds);
}

SuperviseResult supervise(const Manifest& manifest, const std::string& dir,
                          const SupervisorConfig& config,
                          const WorkerLauncher& launcher) {
  SuperviseResult result;
  StatusWriter status(manifest, dir, config.status_interval_seconds,
                      config.telemetry_interval_seconds);

  // Wave 0: one slot per manifest shard, owning its assigned jobs. Jobs
  // already checkpointed (a --resume, or an earlier wave of a crashed
  // supervisor) are filtered at launch time.
  std::vector<Slot> slots(manifest.shards);
  for (std::size_t s = 0; s < manifest.shards; ++s) {
    slots[s].label = "s" + std::to_string(s);
  }
  for (const ManifestJob& job : manifest.jobs) {
    slots[job.shard].job_ids.push_back(job.id);
  }
  slots.erase(std::remove_if(slots.begin(), slots.end(),
                             [](const Slot& s) { return s.job_ids.empty(); }),
              slots.end());
  // Chaos victims are drawn up front; each injects on its next launch.
  if (!slots.empty()) {
    Mt19937_64 chaos_rng(config.chaos_seed);
    std::uniform_int_distribution<std::size_t> pick(0, slots.size() - 1);
    for (std::size_t i = 0; i < config.chaos_kills; ++i) {
      slots[pick(chaos_rng)].chaos.push_back(SIGKILL);
    }
    for (std::size_t i = 0; i < config.chaos_stops; ++i) {
      slots[pick(chaos_rng)].chaos.push_back(SIGSTOP);
    }
  }
  run_wave(slots, dir, config, launcher, result, status);

  // Salvage waves: requeue whatever lost shards stranded onto fresh
  // workers — the pool shrinks to however many are still viable instead of
  // the run failing outright.
  for (std::size_t wave = 1; wave <= config.salvage_waves; ++wave) {
    const std::set<std::string> completed = completed_ids(dir);
    std::vector<std::string> missing;
    for (const ManifestJob& job : manifest.jobs) {
      if (completed.count(job.id) == 0) missing.push_back(job.id);
    }
    if (missing.empty()) break;
    const std::size_t workers =
        std::min<std::size_t>(manifest.shards, missing.size());
    std::vector<Slot> salvage(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      salvage[i].label = "v" + std::to_string(wave) + "-" + std::to_string(i);
    }
    for (std::size_t i = 0; i < missing.size(); ++i) {
      salvage[i % workers].job_ids.push_back(missing[i]);
    }
    result.salvage_workers += workers;
    run_wave(salvage, dir, config, launcher, result, status);
  }

  const std::set<std::string> completed = completed_ids(dir);
  for (const ManifestJob& job : manifest.jobs) {
    if (completed.count(job.id) == 0) result.missing_ids.push_back(job.id);
  }
  result.complete = result.missing_ids.empty();
  status.force_write(result);
  return result;
}

}  // namespace roboads::shard

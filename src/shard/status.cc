#include "shard/status.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <sstream>

#include "obs/jsonl.h"
#include "obs/report.h"
#include "shard/checkpoint.h"
#include "shard/heartbeat.h"
#include "shard/telemetry.h"

namespace roboads::shard {
namespace {

namespace json = obs::json;
namespace fs = std::filesystem;

// Floor and cadence multiple behind live_heartbeat_threshold_seconds: a
// worker is live while its heartbeat is younger than
// max(floor, multiple × configured interval). The floor keeps fast cadences
// from declaring death on a single delayed beat; the multiple keeps slow
// cadences (interval ≥ 10 s) from being misclassified as dead between two
// perfectly healthy beats.
constexpr double kLiveHeartbeatFloorSeconds = 10.0;
constexpr double kLiveHeartbeatIntervalMultiple = 3.0;

// Strips "<prefix><label><suffix>" filenames down to the label; empty when
// the shape does not match.
std::string label_of(const std::string& name, const std::string& prefix,
                     const std::string& suffix) {
  if (name.rfind(prefix, 0) != 0 || name.size() <= prefix.size() + suffix.size())
    return {};
  if (!suffix.empty() &&
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
    return {};
  return name.substr(prefix.size(),
                     name.size() - prefix.size() - suffix.size());
}

std::string fmt_eta(double seconds) {
  if (seconds < 0.0) return "--:--";
  const int total = static_cast<int>(seconds + 0.5);
  char buf[32];
  if (total >= 3600) {
    std::snprintf(buf, sizeof(buf), "%d:%02d:%02d", total / 3600,
                  (total / 60) % 60, total % 60);
  } else {
    std::snprintf(buf, sizeof(buf), "%02d:%02d", total / 60, total % 60);
  }
  return buf;
}

}  // namespace

double live_heartbeat_threshold_seconds(double heartbeat_interval_seconds) {
  if (heartbeat_interval_seconds <= 0.0) return kLiveHeartbeatFloorSeconds;
  return std::max(kLiveHeartbeatFloorSeconds,
                  kLiveHeartbeatIntervalMultiple * heartbeat_interval_seconds);
}

RunStatus build_status(const Manifest& manifest, const std::string& dir,
                       const SupervisionCounters& counters,
                       double elapsed_seconds,
                       double heartbeat_interval_seconds) {
  RunStatus status;
  status.unix_time = unix_now_seconds();
  status.total_jobs = manifest.jobs.size();
  status.counters = counters;
  status.elapsed_seconds = elapsed_seconds;

  // Progress: the deduplicated checkpoint outcomes, same loader the merge
  // uses — watch and the final report can never disagree about "done".
  for (const JobOutcome& o : load_run_outcomes(dir)) {
    ++status.completed;
    if (o.status == "ok") ++status.ok;
    if (o.status == "failed") ++status.failed;
    if (o.status == "violation") ++status.violations;
  }
  status.complete =
      status.total_jobs > 0 && status.completed >= status.total_jobs;
  status.progress =
      status.total_jobs == 0
          ? 0.0
          : static_cast<double>(status.completed) /
                static_cast<double>(status.total_jobs);

  // Worker rows: any label that left a checkpoint, heartbeat, or telemetry
  // stream behind.
  std::map<std::string, WorkerStatus> workers;
  if (fs::exists(dir)) {
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0)
        continue;
      std::string label = label_of(name, "checkpoint-", ".jsonl");
      if (label.empty()) label = label_of(name, "telemetry-", ".jsonl");
      if (label.empty()) label = label_of(name, "heartbeat-", "");
      if (label.empty()) continue;
      workers[label].label = label;
    }
  }

  for (auto& [label, w] : workers) {
    w.jobs_done = json::read_stream(checkpoint_path(dir, label),
                                    kCheckpointStream, /*repair=*/false)
                      .size();
    const std::string beat_path = heartbeat_path(dir, label);
    if (const std::optional<double> age = heartbeat_age_seconds(beat_path)) {
      w.heartbeat_age_seconds = *age;
    }
    if (const std::optional<Heartbeat> beat = read_heartbeat(beat_path)) {
      w.instance_jobs_done = beat->jobs_done;
      w.last_job = beat->last_job;
      w.last_job_unix_time = beat->last_job_unix_time;
      w.current_job = beat->current_job;
    }

    // Telemetry: the last record of every instance merges into the fleet
    // latency histogram (instances are retries of the same label — their
    // samples are disjoint); the newest instance's record carries the
    // current rate and rss.
    std::map<std::int64_t, const TelemetryRecord*> last_of_instance;
    const std::vector<TelemetryRecord> records = json::read_stream(
        telemetry_path(dir, label), kTelemetryStream, /*repair=*/false);
    for (const TelemetryRecord& r : records) {
      last_of_instance[r.instance] = &r;
    }
    const TelemetryRecord* newest = nullptr;
    for (const auto& [instance, record] : last_of_instance) {
      status.step_latency.merge(record->step_latency);
      if (newest == nullptr || record->unix_time > newest->unix_time) {
        newest = record;
      }
    }
    if (newest != nullptr) {
      w.rate_jobs_per_second = newest->jobs_per_second();
      w.max_rss_kb = newest->max_rss_kb;
    }

    const bool live =
        w.heartbeat_age_seconds >= 0.0 &&
        w.heartbeat_age_seconds <
            live_heartbeat_threshold_seconds(heartbeat_interval_seconds);
    if (live) status.rate_jobs_per_second += w.rate_jobs_per_second;
  }

  if (!status.complete && status.rate_jobs_per_second > 0.0) {
    status.eta_seconds =
        static_cast<double>(status.total_jobs - status.completed) /
        status.rate_jobs_per_second;
  }

  status.workers.reserve(workers.size());
  for (auto& [label, w] : workers) status.workers.push_back(std::move(w));
  return status;
}

std::string status_path(const std::string& dir) {
  return dir + "/status.json";
}

std::string render_status(const RunStatus& status) {
  std::ostringstream os;
  char line[256];

  os << "== roboads_shard watch ========================================\n";
  const int bar = static_cast<int>(status.progress * 40.0 + 0.5);
  std::snprintf(line, sizeof(line),
                "jobs     %llu/%llu (%5.1f%%) [%-40.*s]%s\n",
                static_cast<unsigned long long>(status.completed),
                static_cast<unsigned long long>(status.total_jobs),
                100.0 * status.progress, bar,
                "########################################",
                status.complete ? " complete" : "");
  os << line;
  std::snprintf(line, sizeof(line),
                "results  ok %llu  failed %llu  violations %llu\n",
                static_cast<unsigned long long>(status.ok),
                static_cast<unsigned long long>(status.failed),
                static_cast<unsigned long long>(status.violations));
  os << line;
  std::snprintf(line, sizeof(line),
                "rate     %.2f jobs/s   eta %s   elapsed %s\n",
                status.rate_jobs_per_second,
                fmt_eta(status.eta_seconds).c_str(),
                fmt_eta(status.elapsed_seconds).c_str());
  os << line;
  const SupervisionCounters& c = status.counters;
  std::snprintf(line, sizeof(line),
                "fleet    launches %llu  crashes %llu  hangs %llu  lost %llu"
                "  salvage %llu  slow-grants %llu\n",
                static_cast<unsigned long long>(c.launches),
                static_cast<unsigned long long>(c.crashes),
                static_cast<unsigned long long>(c.hangs),
                static_cast<unsigned long long>(c.lost_shards),
                static_cast<unsigned long long>(c.salvage_workers),
                static_cast<unsigned long long>(c.slow_job_grants));
  os << line;
  if (status.step_latency.count > 0) {
    const obs::HistogramSnapshot& h = status.step_latency;
    std::snprintf(line, sizeof(line),
                  "step     p50<=%s p95<=%s p99<=%s max=%s (n=%llu)\n",
                  obs::format_duration_ns(h.quantile(0.50)).c_str(),
                  obs::format_duration_ns(h.quantile(0.95)).c_str(),
                  obs::format_duration_ns(h.quantile(0.99)).c_str(),
                  obs::format_duration_ns(h.max).c_str(),
                  static_cast<unsigned long long>(h.count));
    os << line;
  }

  os << "-- workers --\n";
  if (status.workers.empty()) os << "  (none yet)\n";
  for (const WorkerStatus& w : status.workers) {
    std::string beat = "   -  ";
    if (w.heartbeat_age_seconds >= 0.0) {
      char b[32];
      std::snprintf(b, sizeof(b), "%5.1fs", w.heartbeat_age_seconds);
      beat = b;
    }
    std::snprintf(line, sizeof(line),
                  "  %-8s beat %s  done %-5llu (run %llu)  cur %-12s "
                  "rate %5.2f/s  rss %.0fMB\n",
                  w.label.c_str(), beat.c_str(),
                  static_cast<unsigned long long>(w.jobs_done),
                  static_cast<unsigned long long>(w.instance_jobs_done),
                  w.current_job.empty() ? "-" : w.current_job.c_str(),
                  w.rate_jobs_per_second, w.max_rss_kb / 1024.0);
    os << line;
  }
  os << "===============================================================\n";
  return os.str();
}

}  // namespace roboads::shard

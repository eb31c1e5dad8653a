#include "shard/status.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "common/check.h"
#include "obs/json.h"
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

void write_worker(std::ostream& os, const WorkerStatus& w) {
  os << '{';
  json::write_field_key(os, "label", /*first=*/true);
  json::write_escaped(os, w.label);
  json::write_field_key(os, "heartbeat_age_s");
  json::write_number(os, w.heartbeat_age_seconds);
  json::write_field_key(os, "jobs_done");
  os << w.jobs_done;
  json::write_field_key(os, "instance_jobs_done");
  os << w.instance_jobs_done;
  json::write_field_key(os, "last_job");
  json::write_escaped(os, w.last_job);
  json::write_field_key(os, "last_job_unix_time");
  json::write_number(os, w.last_job_unix_time);
  json::write_field_key(os, "current_job");
  json::write_escaped(os, w.current_job);
  json::write_field_key(os, "rate_jobs_per_s");
  json::write_number(os, w.rate_jobs_per_second);
  json::write_field_key(os, "max_rss_kb");
  json::write_number(os, w.max_rss_kb);
  os << '}';
}

WorkerStatus parse_worker(const json::Fields& f) {
  WorkerStatus w;
  w.label = f.string("label");
  w.heartbeat_age_seconds = f.number("heartbeat_age_s");
  w.jobs_done = static_cast<std::uint64_t>(f.integer("jobs_done"));
  w.instance_jobs_done =
      static_cast<std::uint64_t>(f.integer("instance_jobs_done"));
  w.last_job = f.string("last_job");
  w.last_job_unix_time = f.number("last_job_unix_time");
  w.current_job = f.string("current_job");
  w.rate_jobs_per_second = f.number("rate_jobs_per_s");
  w.max_rss_kb = f.number("max_rss_kb");
  return w;
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
    w.jobs_done =
        read_checkpoint_file(checkpoint_path(dir, label), /*repair=*/false)
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
    const std::vector<TelemetryRecord> records =
        read_telemetry_file(telemetry_path(dir, label), /*repair=*/false);
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

std::string serialize_status(const RunStatus& status) {
  std::ostringstream os;
  os << '{';
  json::write_field_key(os, "event", /*first=*/true);
  os << "\"status\"";
  json::write_field_key(os, "name");
  os << "\"roboads-shard-status\"";
  json::write_field_key(os, "version");
  os << 1;
  json::write_field_key(os, "unix_time");
  json::write_number(os, status.unix_time);
  json::write_field_key(os, "jobs");
  os << status.total_jobs;
  json::write_field_key(os, "completed");
  os << status.completed;
  json::write_field_key(os, "ok");
  os << status.ok;
  json::write_field_key(os, "failed");
  os << status.failed;
  json::write_field_key(os, "violations");
  os << status.violations;
  json::write_field_key(os, "complete");
  os << (status.complete ? "true" : "false");
  json::write_field_key(os, "progress");
  json::write_number(os, status.progress);
  json::write_field_key(os, "elapsed_s");
  json::write_number(os, status.elapsed_seconds);
  json::write_field_key(os, "rate_jobs_per_s");
  json::write_number(os, status.rate_jobs_per_second);
  json::write_field_key(os, "eta_s");
  json::write_number(os, status.eta_seconds);
  json::write_field_key(os, "launches");
  os << status.counters.launches;
  json::write_field_key(os, "crashes");
  os << status.counters.crashes;
  json::write_field_key(os, "hangs");
  os << status.counters.hangs;
  json::write_field_key(os, "lost_shards");
  os << status.counters.lost_shards;
  json::write_field_key(os, "salvage_workers");
  os << status.counters.salvage_workers;
  json::write_field_key(os, "slow_job_grants");
  os << status.counters.slow_job_grants;
  json::write_field_key(os, "step_latency");
  obs::write_histogram(os, status.step_latency);
  json::write_field_key(os, "workers");
  os << '[';
  for (std::size_t i = 0; i < status.workers.size(); ++i) {
    if (i > 0) os << ',';
    write_worker(os, status.workers[i]);
  }
  os << ']';
  os << '}';
  return os.str();
}

RunStatus parse_status(const std::string& line) {
  const std::string context = "status";
  json::Fields f(json::parse_object_line(line, context), context);
  if (f.string("event") != "status" ||
      f.string("name") != "roboads-shard-status" ||
      f.integer("version") != 1) {
    throw CheckError("not a roboads-shard-status v1 snapshot");
  }
  RunStatus status;
  status.unix_time = f.number("unix_time");
  status.total_jobs = static_cast<std::uint64_t>(f.integer("jobs"));
  status.completed = static_cast<std::uint64_t>(f.integer("completed"));
  status.ok = static_cast<std::uint64_t>(f.integer("ok"));
  status.failed = static_cast<std::uint64_t>(f.integer("failed"));
  status.violations = static_cast<std::uint64_t>(f.integer("violations"));
  status.complete = f.boolean("complete");
  status.progress = f.number("progress");
  status.elapsed_seconds = f.number("elapsed_s");
  status.rate_jobs_per_second = f.number("rate_jobs_per_s");
  status.eta_seconds = f.number("eta_s");
  status.counters.launches = static_cast<std::uint64_t>(f.integer("launches"));
  status.counters.crashes = static_cast<std::uint64_t>(f.integer("crashes"));
  status.counters.hangs = static_cast<std::uint64_t>(f.integer("hangs"));
  status.counters.lost_shards =
      static_cast<std::uint64_t>(f.integer("lost_shards"));
  status.counters.salvage_workers =
      static_cast<std::uint64_t>(f.integer("salvage_workers"));
  status.counters.slow_job_grants =
      static_cast<std::uint64_t>(f.integer("slow_job_grants"));
  status.step_latency = obs::parse_histogram(json::Fields(
      f.at("step_latency").members, "status field 'step_latency'"));
  for (const json::Fields& w : f.objects("workers")) {
    status.workers.push_back(parse_worker(w));
  }
  return status;
}

std::string status_path(const std::string& dir) {
  return dir + "/status.json";
}

void write_status_file(const std::string& path, const RunStatus& status) {
  json::publish_line(path, serialize_status(status), "status");
}

RunStatus read_status_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw CheckError(path + ": no status snapshot (is a supervisor running "
                     "with telemetry on? pass --manifest= to compute one "
                     "from the checkpoints instead)");
  }
  std::string line;
  ROBOADS_CHECK(static_cast<bool>(std::getline(is, line)),
                path + ": empty status snapshot");
  return parse_status(line);
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

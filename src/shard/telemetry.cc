#include "shard/telemetry.h"

#include <sys/resource.h>
#include <unistd.h>

#include <filesystem>

#include "obs/jsonl.h"
#include "obs/timer.h"
#include "shard/heartbeat.h"

namespace roboads::shard {
namespace {

namespace json = obs::json;
namespace fs = std::filesystem;

double monotonic_seconds() { return 1e-9 * obs::monotonic_ns(); }

}  // namespace

std::string telemetry_path(const std::string& dir, const std::string& label) {
  return dir + "/telemetry-" + label + ".jsonl";
}

TelemetryStream::TelemetryStream(const std::string& dir,
                                 const std::string& label,
                                 double interval_seconds,
                                 obs::MetricsRegistry* metrics)
    : interval_seconds_(interval_seconds), metrics_(metrics) {
  if (interval_seconds_ <= 0.0) return;
  const std::string path = telemetry_path(dir, label);
  // Repair our own torn tail (a previous instance killed mid-append), like
  // the worker does for its checkpoint. Sibling streams are left alone.
  json::read_stream(path, kTelemetryStream, /*repair=*/true);
  const bool fresh = !fs::exists(path) || fs::file_size(path) == 0;
  os_.open(path, fresh ? std::ios::binary : std::ios::binary | std::ios::app);
  if (!os_) return;  // telemetry is best-effort: never fail the worker
  if (fresh) json::write_header(os_, kTelemetryStream);
  enabled_ = true;
  started_monotonic_ = monotonic_seconds();
  last_append_monotonic_ = started_monotonic_;
  record_.label = label;
  record_.instance = static_cast<std::int64_t>(getpid());
}

void TelemetryStream::set_jobs_assigned(std::uint64_t n) {
  record_.jobs_assigned = n;
}

void TelemetryStream::job_finished(const JobOutcome& outcome) {
  if (!enabled_) return;
  ++record_.jobs_done;
  TelemetryGroupTally& tally = record_.groups[outcome.group];
  ++tally.done;
  if (outcome.status == "ok") ++tally.ok;
  if (outcome.status == "failed") ++tally.failed;
  if (outcome.status == "violation") ++tally.violations;
  if (outcome.sensor_tp + outcome.sensor_fp + outcome.actuator_tp +
          outcome.actuator_fp >
      0) {
    ++tally.alarms;
  }
  if (monotonic_seconds() - last_append_monotonic_ >= interval_seconds_) {
    append_record();
  }
}

void TelemetryStream::flush() {
  if (!enabled_) return;
  append_record();
}

void TelemetryStream::append_record() {
  const double now = monotonic_seconds();
  record_.unix_time = unix_now_seconds();
  record_.elapsed_seconds = now - started_monotonic_;
  if (metrics_ != nullptr) {
    record_.step_latency =
        metrics_->histogram("engine.step_ns").snapshot();
  }
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    record_.max_rss_kb = static_cast<double>(usage.ru_maxrss);
    record_.user_seconds = static_cast<double>(usage.ru_utime.tv_sec) +
                           1e-6 * static_cast<double>(usage.ru_utime.tv_usec);
    record_.system_seconds =
        static_cast<double>(usage.ru_stime.tv_sec) +
        1e-6 * static_cast<double>(usage.ru_stime.tv_usec);
  }
  json::append(os_, record_);
  ++record_.seq;
  last_append_monotonic_ = now;
}

}  // namespace roboads::shard

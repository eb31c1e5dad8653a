#include "shard/heartbeat.h"

#include <sys/stat.h>
#include <time.h>

#include <fstream>
#include <sstream>

#include "common/check.h"
#include "obs/json.h"
#include "obs/jsonl.h"

namespace roboads::shard {

namespace json = obs::json;

void write_heartbeat(const std::string& path, const Heartbeat& beat) {
  std::ostringstream line;
  line << '{';
  json::write_field_key(line, "label", /*first=*/true);
  json::write_escaped(line, beat.label);
  json::write_field_key(line, "jobs_done");
  line << beat.jobs_done;
  json::write_field_key(line, "last_job");
  json::write_escaped(line, beat.last_job);
  json::write_field_key(line, "last_job_unix_time");
  json::write_number(line, beat.last_job_unix_time);
  json::write_field_key(line, "current_job");
  json::write_escaped(line, beat.current_job);
  line << '}';
  json::publish_line(path, line.str(), "heartbeat");
}

std::optional<Heartbeat> read_heartbeat(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  std::string line;
  if (!std::getline(is, line)) return std::nullopt;
  try {
    const std::string context = "heartbeat " + path;
    json::Fields f(json::parse_object_line(line, context), context);
    Heartbeat beat;
    beat.label = f.string("label");
    beat.jobs_done = static_cast<std::uint64_t>(f.integer("jobs_done"));
    beat.last_job = f.string("last_job");
    beat.last_job_unix_time = f.number("last_job_unix_time");
    beat.current_job = f.string("current_job");
    return beat;
  } catch (const std::exception&) {
    // Legacy plain-text payload or a beat torn mid-rename publish — the
    // mtime is still meaningful, the payload just is not.
    return std::nullopt;
  }
}

std::optional<double> heartbeat_age_seconds(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return std::nullopt;
  struct timespec now;
  ROBOADS_CHECK(clock_gettime(CLOCK_REALTIME, &now) == 0,
                "clock_gettime failed");
  const double age =
      static_cast<double>(now.tv_sec - st.st_mtim.tv_sec) +
      1e-9 * static_cast<double>(now.tv_nsec - st.st_mtim.tv_nsec);
  return age < 0.0 ? 0.0 : age;
}

double unix_now_seconds() {
  struct timespec now;
  ROBOADS_CHECK(clock_gettime(CLOCK_REALTIME, &now) == 0,
                "clock_gettime failed");
  return static_cast<double>(now.tv_sec) +
         1e-9 * static_cast<double>(now.tv_nsec);
}

}  // namespace roboads::shard

#include "shard/heartbeat.h"

#include <sys/stat.h>
#include <time.h>

#include "common/check.h"

namespace roboads::shard {

std::optional<Heartbeat> read_heartbeat(const std::string& path) {
  try {
    return obs::json::read_snapshot(path, kHeartbeatFile);
  } catch (const std::exception&) {
    // Missing, empty, a legacy plain-text payload or a beat torn
    // mid-rename publish — the mtime is still meaningful, the payload just
    // is not.
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

#include "shard/checkpoint.h"

#include <algorithm>
#include <filesystem>
#include <set>

namespace roboads::shard {

namespace fs = std::filesystem;

std::string serialize_outcome(const JobOutcome& outcome) {
  return obs::json::encode(outcome);
}

std::vector<JobOutcome> load_run_outcomes(const std::string& dir) {
  std::vector<std::string> paths;
  if (fs::exists(dir)) {
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("checkpoint-", 0) == 0 &&
          name.size() > 6 && name.substr(name.size() - 6) == ".jsonl") {
        paths.push_back(entry.path().string());
      }
    }
  }
  // Directory iteration order is filesystem-dependent; sort so dedup (and
  // with it the merged report) is deterministic.
  std::sort(paths.begin(), paths.end());
  std::vector<JobOutcome> outcomes;
  std::set<std::string> seen;
  for (const std::string& path : paths) {
    for (JobOutcome& outcome :
         obs::json::read_stream(path, kCheckpointStream, /*repair=*/false)) {
      if (seen.insert(outcome.id).second) {
        outcomes.push_back(std::move(outcome));
      }
    }
  }
  return outcomes;
}

std::string checkpoint_path(const std::string& dir, const std::string& label) {
  return dir + "/checkpoint-" + label + ".jsonl";
}

std::string heartbeat_path(const std::string& dir, const std::string& label) {
  return dir + "/heartbeat-" + label;
}

}  // namespace roboads::shard

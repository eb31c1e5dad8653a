// The three workloads (README.md): campaign, fleet-paced, fleet-capacity.
#pragma once

#include <cstdint>
#include <string>

#include "common.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory the traced run writes its spans to.
  std::string out_dir = ".";
  // Pinned campaign outcome digests (reference_outcomes.txt).
  std::string reference;
  // Self-test mode: a short run on small inputs.
  bool short_mode = false;
  // Self-test fault to plant: "perturb-report", "drop-packet" or
  // "alter-outcome".
  std::string plant;
};

void run_campaign(const Options& options, Result& result);
void run_fleet(const Options& options, bool paced, Result& result);

// Regenerates the pinned campaign outcome digests.
int write_campaign_reference(const std::string& path);

}  // namespace perfbench

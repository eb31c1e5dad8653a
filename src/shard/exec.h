// Executes one manifest job to its JobOutcome. This is the worker's inner
// loop, but it is deliberately process-agnostic: the same function runs
// inside sharded workers, the serial reference runner, and tests, and its
// result is a pure function of the job — no timing, no worker identity —
// which is what makes retried/salvaged/chaos-interrupted campaigns merge
// byte-identically to a serial run.
#pragma once

#include <string>

#include "obs/obs.h"
#include "shard/checkpoint.h"
#include "shard/manifest.h"

namespace roboads::shard {

struct ExecConfig {
  // Run directory; postmortem bundles land under <run_dir>/bundles/ and are
  // referenced run-dir-relative in the outcome. Empty = no bundles.
  std::string run_dir;
  bool record_bundles = false;
  // Observability plumbed into every job this worker executes (telemetry
  // latency histograms). Instrumentation records timings only — it can
  // never alter the JobOutcome, which keeps merged≡serial byte-identity.
  obs::Instruments instruments;
};

// Never throws for job-level problems: a crashing mission, an unknown
// library scenario or a malformed inline spec all become a status "failed"
// outcome, so one bad job costs one job, not a shard.
JobOutcome execute_job(const ManifestJob& job, const ExecConfig& config);

}  // namespace roboads::shard

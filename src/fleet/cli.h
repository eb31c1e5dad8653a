// roboads_fleet's argument grammar as a library (tests/fleet_cli_test.cc).
//
// The tool is a thin wrapper: every flag parses here through the strict
// common/parse.h helpers — whole-string numerics, no prefix parses, no
// silently-accepted junk — and a malformed flag returns a one-line
// diagnostic naming the flag, which the tool prints and exits 2 on. That
// keeps the exit-2 loud-failure contract regression-testable without
// spawning processes (the shard worker's precedent).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/monitor.h"

namespace roboads::fleet {

// `roboads_fleet [run flags]` — drive a fleet from recorded missions.
struct FleetRunOptions {
  std::size_t robots = 32;
  std::size_t shards = 0;  // 0 = hardware concurrency
  std::size_t iterations = 120;
  std::size_t scenario = 8;  // 0 = clean
  std::uint64_t seed = 1;
  std::size_t missions = 4;  // distinct mission streams, cycled over robots
  // Producer pacing in packets-per-robot-per-second terms: each producer
  // ticks its robots at `hz` iterations/s. 0 = firehose (submit as fast as
  // the producers can).
  double hz = 0.0;
  bool parity = false;
  bool json = false;
  // Introspection plane (fleet/introspect.h). All default off.
  std::size_t trace_sample = 0;   // trace every Nth robot; 0 = off
  std::string trace_out;          // span JSONL path (requires trace_sample)
  std::string status_out;         // fleet_status.json path
  double status_interval_s = 1.0; // publish cadence; <= 0 = every pass
  std::string hist_out;           // named-histogram JSONL for roboads_report
};

// `roboads_fleet top` — render a published fleet_status.json through the
// shared monitor (--once, --json re-emits the snapshot line, --interval).
struct FleetTopOptions : obs::MonitorOptions {
  std::string status_path;  // required
};

// Parse `args` (argv[1..], run mode / argv[2..], top mode) into `out`.
// Returns "" on success, else a one-line diagnostic naming the offending
// flag; callers print it and exit 2. Both also enforce the cross-flag
// invariants (positive counts, --trace-out needs --trace-sample, --json
// top mode needs --once).
std::string parse_fleet_run_args(const std::vector<std::string>& args,
                                 FleetRunOptions& out);
std::string parse_fleet_top_args(const std::vector<std::string>& args,
                                 FleetTopOptions& out);

}  // namespace roboads::fleet

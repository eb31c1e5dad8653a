// The status plane's one monitor: `roboads_shard watch` (a campaign's
// status.json) and `roboads_fleet top` (a fleet's fleet_status.json) share
// the --once/--json/--interval flags and the loop that prints their frames
// (docs/OBSERVABILITY.md). Each tool supplies only how to load its
// snapshot and how to render it.
#pragma once

#include <functional>
#include <string>

namespace roboads::obs {

struct MonitorOptions {
  bool once = false;        // print one frame and exit
  bool json = false;        // print the snapshot's JSON line; needs `once`
  double interval_s = 1.0;  // seconds between live frames, > 0
};

// Consumes `arg` when it is --once, --json or --interval=SECONDS and
// returns true; a malformed or non-positive interval sets `*error` to a
// diagnostic naming the flag. Returns false for any other argument.
bool take_monitor_flag(const std::string& arg, MonitorOptions& out,
                       std::string* error);

// The cross-flag rule (--json needs --once): "" when consistent, else a
// diagnostic.
std::string check_monitor_options(const MonitorOptions& options);

// One frame: the snapshot's JSON line (json mode) or its rendering, and
// whether the watched run has finished.
struct MonitorFrame {
  std::string text;
  bool finished = false;
};

// Prints `frame(options.json)` to stdout — a live frame clears the
// terminal first, a JSON line ends with a newline — then stops after
// --once or a finished frame, else sleeps --interval and repeats.
void run_monitor(const MonitorOptions& options,
                 const std::function<MonitorFrame(bool json)>& frame);

}  // namespace roboads::obs

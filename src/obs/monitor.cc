#include "obs/monitor.h"

#include <chrono>
#include <cstdio>
#include <thread>

#include "common/parse.h"

namespace roboads::obs {

bool take_monitor_flag(const std::string& arg, MonitorOptions& out,
                       std::string* error) {
  if (arg == "--once") {
    out.once = true;
    return true;
  }
  if (arg == "--json") {
    out.json = true;
    return true;
  }
  const std::string prefix = "--interval=";
  if (arg.rfind(prefix, 0) != 0) return false;
  const auto seconds = common::parse_double(arg.substr(prefix.size()));
  if (!seconds || *seconds <= 0.0) {
    *error = "--interval expects a positive number of seconds";
  } else {
    out.interval_s = *seconds;
  }
  return true;
}

std::string check_monitor_options(const MonitorOptions& options) {
  if (options.json && !options.once) {
    return "--json requires --once (a live frame is not a JSON document)";
  }
  return "";
}

void run_monitor(const MonitorOptions& options,
                 const std::function<MonitorFrame(bool json)>& frame) {
  while (true) {
    const MonitorFrame f = frame(options.json);
    if (options.json) {
      std::printf("%s\n", f.text.c_str());
    } else {
      if (!options.once) std::printf("\033[H\033[2J");  // clear the frame
      std::fputs(f.text.c_str(), stdout);
    }
    std::fflush(stdout);
    if (options.once || f.finished) return;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options.interval_s));
  }
}

}  // namespace roboads::obs

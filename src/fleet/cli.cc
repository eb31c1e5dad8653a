#include "fleet/cli.h"

#include "common/parse.h"

namespace roboads::fleet {
namespace {

using common::flag_value;

std::string bad(const std::string& flag, const std::string& expects) {
  return flag + " expects " + expects;
}

bool take_count(const std::string& flag, const std::string& value,
                std::size_t* out, std::string* error) {
  const auto n = common::parse_u64(value);
  if (!n) {
    *error = bad(flag, "a non-negative integer");
    return false;
  }
  *out = static_cast<std::size_t>(*n);
  return true;
}

bool take_double(const std::string& flag, const std::string& value,
                 double* out, std::string* error) {
  const auto d = common::parse_double(value);
  if (!d) {
    *error = bad(flag, "a finite number");
    return false;
  }
  *out = *d;
  return true;
}

}  // namespace

std::string parse_fleet_run_args(const std::vector<std::string>& args,
                                 FleetRunOptions& out) {
  std::string error;
  for (const std::string& arg : args) {
    std::string value;
    if (flag_value(arg, "--robots", &value)) {
      if (!take_count("--robots", value, &out.robots, &error)) return error;
    } else if (flag_value(arg, "--shards", &value)) {
      if (!take_count("--shards", value, &out.shards, &error)) return error;
    } else if (flag_value(arg, "--iterations", &value)) {
      if (!take_count("--iterations", value, &out.iterations, &error)) {
        return error;
      }
    } else if (flag_value(arg, "--scenario", &value)) {
      if (!take_count("--scenario", value, &out.scenario, &error)) {
        return error;
      }
    } else if (flag_value(arg, "--missions", &value)) {
      if (!take_count("--missions", value, &out.missions, &error)) {
        return error;
      }
    } else if (flag_value(arg, "--seed", &value)) {
      const auto n = common::parse_u64(value);
      if (!n) return bad("--seed", "a non-negative integer");
      out.seed = *n;
    } else if (flag_value(arg, "--hz", &value)) {
      if (!take_double("--hz", value, &out.hz, &error)) return error;
      if (out.hz < 0.0) return bad("--hz", "a non-negative rate");
    } else if (flag_value(arg, "--trace-sample", &value)) {
      if (!take_count("--trace-sample", value, &out.trace_sample, &error)) {
        return error;
      }
    } else if (flag_value(arg, "--trace-out", &value)) {
      if (value.empty()) return bad("--trace-out", "a file path");
      out.trace_out = value;
    } else if (flag_value(arg, "--status-out", &value)) {
      if (value.empty()) return bad("--status-out", "a file path");
      out.status_out = value;
    } else if (flag_value(arg, "--status-interval", &value)) {
      if (!take_double("--status-interval", value, &out.status_interval_s,
                       &error)) {
        return error;
      }
    } else if (flag_value(arg, "--hist-out", &value)) {
      if (value.empty()) return bad("--hist-out", "a file path");
      out.hist_out = value;
    } else if (arg == "--parity") {
      out.parity = true;
    } else if (arg == "--json") {
      out.json = true;
    } else {
      return "unknown argument " + arg;
    }
  }
  if (out.robots == 0 || out.iterations == 0 || out.missions == 0) {
    return "--robots, --iterations and --missions must be positive";
  }
  if (!out.trace_out.empty() && out.trace_sample == 0) {
    return "--trace-out needs --trace-sample=N to emit any spans";
  }
  return "";
}

std::string parse_fleet_top_args(const std::vector<std::string>& args,
                                 FleetTopOptions& out) {
  std::string error;
  for (const std::string& arg : args) {
    std::string value;
    if (obs::take_monitor_flag(arg, out, &error)) {
      if (!error.empty()) return error;
    } else if (flag_value(arg, "--status", &value)) {
      if (value.empty()) return bad("--status", "a file path");
      out.status_path = value;
    } else {
      return "unknown argument " + arg;
    }
  }
  if (out.status_path.empty()) {
    return "top needs --status=<fleet_status.json>";
  }
  return obs::check_monitor_options(out);
}

}  // namespace roboads::fleet

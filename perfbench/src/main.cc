// perfbench — the repository's end-to-end benchmark (README.md).
//
//   perfbench --workload campaign|fleet-paced|fleet-capacity --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--reference FILE]
//             [--short] [--plant perturb-report|drop-packet|alter-outcome]
//   perfbench --write-reference FILE
//
// Prints the host/build fingerprint, the details of the run (sample counts,
// bases of ratios, failure breakdown), and as its last line the result:
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics, traced runs the per-layer ones.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "common/parse.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Timed runs need an optimized build without assertions or sanitizers.
bool timed_build_ok(std::string* why) {
#ifndef NDEBUG
  *why = "assertions are enabled (NDEBUG unset)";
  return false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  *why = "built with a sanitizer";
  return false;
#endif
  const std::string type = PB_BUILD_TYPE;
  const std::string flags = PB_FLAGS;
  if (type != "Release" && type != "RelWithDebInfo") {
    *why = "build type \"" + type + "\" is not Release or RelWithDebInfo";
    return false;
  }
  if (flags.find("-fsanitize") != std::string::npos ||
      flags.find("-O0") != std::string::npos) {
    *why = "compiler flags \"" + flags + "\" are not an optimized build";
    return false;
  }
  return true;
}

void print_fingerprint(const Options& o) {
  std::printf(
      "{\"fingerprint\": {\"cpu\": \"%s\", \"nproc\": %u, \"compiler\": "
      "\"%s\", \"flags\": \"%s\", \"build_type\": \"%s\", \"workload\": "
      "\"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d}}\n",
      json_escape(cpu_model()).c_str(), std::thread::hardware_concurrency(),
      json_escape(PB_COMPILER).c_str(), json_escape(PB_FLAGS).c_str(),
      json_escape(PB_BUILD_TYPE).c_str(), json_escape(o.workload).c_str(),
      static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
}

void print_result(Result& r) {
  for (Metric& m : r.metrics) {
    if (!std::isfinite(m.value)) {
      r.fail("non_finite." + m.name);
      m.value = 0.0;
    }
  }
  std::string details = "{\"details\": {";
  for (std::size_t i = 0; i < r.details.size(); ++i) {
    if (i > 0) details += ", ";
    details += "\"" + json_escape(r.details[i].first) + "\": \"" +
               json_escape(r.details[i].second) + "\"";
  }
  details += "}}";
  std::printf("%s\n", details.c_str());

  for (const auto& [key, value] : r.details) {
    std::fprintf(stderr, "  %-48s %s\n", key.c_str(), value.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::fprintf(stderr, "  %-48s %.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

int usage() {
  std::cerr
      << "usage: perfbench --workload campaign|fleet-paced|fleet-capacity "
         "--seed N --seconds S --trace 0|1\n"
         "                 [--out-dir DIR] [--reference FILE] [--short]\n"
         "                 [--plant perturb-report|drop-packet|alter-outcome]\n"
         "       perfbench --write-reference FILE\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  std::string write_reference;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    const auto count = [&](std::uint64_t* out) {
      const auto n = roboads::common::parse_u64(argv[++i]);
      if (!n) return false;
      *out = *n;
      return true;
    };
    std::uint64_t n = 0;
    if (arg == "--short") {
      o.short_mode = true;
    } else if (!has_value) {
      return usage();
    } else if (arg == "--workload") {
      o.workload = argv[++i];
    } else if (arg == "--seed") {
      if (!count(&o.seed)) return usage();
    } else if (arg == "--seconds") {
      const auto s = roboads::common::parse_double(argv[++i]);
      if (!s || *s <= 0.0) return usage();
      o.seconds = *s;
    } else if (arg == "--trace") {
      if (!count(&n) || n > 1) return usage();
      o.trace = n == 1;
    } else if (arg == "--out-dir") {
      o.out_dir = argv[++i];
    } else if (arg == "--reference") {
      o.reference = argv[++i];
    } else if (arg == "--plant") {
      o.plant = argv[++i];
      if (o.plant != "perturb-report" && o.plant != "drop-packet" &&
          o.plant != "alter-outcome") {
        return usage();
      }
    } else if (arg == "--write-reference") {
      write_reference = argv[++i];
    } else {
      return usage();
    }
  }
  if (!write_reference.empty()) return write_campaign_reference(write_reference);
  if (o.workload != "campaign" && o.workload != "fleet-paced" &&
      o.workload != "fleet-capacity") {
    return usage();
  }

  std::string why;
  if (!timed_build_ok(&why)) {
    std::cerr << "perfbench: refusing a timed run: " << why << "\n";
    return 3;
  }
  print_fingerprint(o);
  std::fflush(stdout);
  try {
    Result result;
    if (o.workload == "campaign") {
      run_campaign(o, result);
    } else {
      run_fleet(o, o.workload == "fleet-paced", result);
    }
    print_result(result);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

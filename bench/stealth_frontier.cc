// Stealth-frontier map: generalizes bench/evasive_attacks' two magnitude
// sweeps (paper §V-H) to the full attack taxonomy on both platforms. Each
// axis is a one-parameter family of ScenarioSpecs; scenario::map_frontier
// bisects the undetected→caught boundary per axis and the results are
// printed as a table and optionally written as frontier JSONL
// (docs/SCENARIOS.md).
//
// Extra flag on top of the shared bench flags:
//   --out=PATH   write the frontier as JSONL to PATH
#include <fstream>
#include <vector>

#include "bench/bench_util.h"
#include "scenario/frontier.h"

namespace roboads::bench {
namespace {

int run(const std::string& out_path, const obs::Instruments& instruments) {
  print_header("stealth-frontier map — undetected→caught boundary per "
               "attack class",
               "RoboADS (DSN'18) §V-H, generalized");

  std::vector<scenario::FrontierAxis> axes;
  for (const std::string& platform : eval::platform_names()) {
    for (scenario::FrontierAxis& axis : scenario::standard_axes(platform)) {
      axes.push_back(std::move(axis));
    }
  }

  std::vector<scenario::FrontierResult> results;
  for (const scenario::FrontierAxis& axis : axes) {
    results.push_back(scenario::map_frontier(axis, {}, instruments));
  }

  std::printf("\n%-9s %-18s %-7s %-9s %14s %14s  %-22s %s\n", "platform",
              "axis", "class", "channel", "undetected<=", "caught>=",
              "unit", "delay@caught");
  for (const scenario::FrontierResult& r : results) {
    std::string note;
    if (r.all_detected) note = " [all probes detected]";
    if (r.none_detected) note = " [never detected]";
    std::printf("%-9s %-18s %-7s %-9s %14.6g %14.6g  %-22s %s%s\n",
                r.platform.c_str(), r.id.c_str(), r.attack_class.c_str(),
                r.channel.c_str(), r.undetected_max, r.caught_min,
                r.unit.c_str(),
                r.delay_at_caught_seconds
                    ? fmt_delay(r.delay_at_caught_seconds).c_str()
                    : "-",
                note.c_str());
  }

  std::size_t probes = 0;
  for (const scenario::FrontierResult& r : results) probes += r.probes.size();
  std::printf("\n%zu axes, %zu probe missions total\n", results.size(),
              probes);

  if (!out_path.empty()) {
    std::ofstream os(out_path);
    if (!os) {
      std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
      return 1;
    }
    scenario::write_frontier_jsonl(os, results);
    std::printf("frontier JSONL written to %s\n", out_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace roboads::bench

int main(int argc, char** argv) {
  // Peel off --out= before handing the rest to the strict shared parser.
  std::string out_path;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
      if (out_path.empty()) {
        roboads::bench::bench_usage_error(argv[0], "--out expects a path");
      }
    } else {
      rest.push_back(argv[i]);
    }
  }
  roboads::bench::BenchObservation watch(roboads::bench::parse_bench_args(
      static_cast<int>(rest.size()), rest.data()));
  int rc = 1;
  try {
    rc = roboads::bench::run(out_path, watch.instruments());
  } catch (const roboads::CheckError& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
  }
  watch.finish();
  return rc;
}

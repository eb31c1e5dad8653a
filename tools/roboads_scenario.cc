// Scenario spec tool (docs/SCENARIOS.md): parse, validate, normalize and
// fly .spec files — the corpus-promotion workflow's command line.
//
//   roboads_scenario check FILE...   parse + semantic validation; exit 1 on
//                                    the first invalid spec
//   roboads_scenario print FILE      parse and reprint the canonical form
//   roboads_scenario run FILE...     lower and fly each spec, print the
//                                    per-mission detection summary; exit 1
//                                    on the first invalid spec or failed
//                                    mission
//   roboads_scenario library         print every built-in library spec name
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/compile.h"
#include "scenario/library.h"
#include "scenario/spec.h"

namespace {

[[noreturn]] void usage_error(const char* argv0, const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", argv0, message.c_str());
  std::fprintf(stderr,
               "usage: %s check FILE... | print FILE | run FILE... | "
               "library\n",
               argv0);
  std::exit(2);
}

std::string read_file(const char* argv0, const std::string& path) {
  std::ifstream is(path);
  if (!is) usage_error(argv0, "cannot read \"" + path + "\"");
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  namespace scenario = roboads::scenario;
  if (argc < 2) usage_error(argv[0], "missing subcommand");
  const std::string command = argv[1];

  if (command == "library") {
    if (argc != 2) usage_error(argv[0], "library takes no arguments");
    for (const scenario::ScenarioSpec& spec : scenario::all_library_specs()) {
      std::printf("%-9s %s\n", spec.platform.c_str(), spec.name.c_str());
    }
    return 0;
  }

  if (argc < 3) usage_error(argv[0], command + " expects at least one FILE");

  if (command == "check") {
    for (int i = 2; i < argc; ++i) {
      try {
        scenario::validate_spec(
            scenario::parse(read_file(argv[0], argv[i])));
        std::printf("%s: ok\n", argv[i]);
      } catch (const scenario::SpecError& e) {
        std::fprintf(stderr, "%s: %s\n", argv[i], e.what());
        return 1;
      }
    }
    return 0;
  }

  if (command == "print") {
    if (argc != 3) usage_error(argv[0], "print expects exactly one FILE");
    try {
      std::fputs(scenario::serialize(
                     scenario::parse(read_file(argv[0], argv[2])))
                     .c_str(),
                 stdout);
    } catch (const scenario::SpecError& e) {
      std::fprintf(stderr, "%s: %s\n", argv[2], e.what());
      return 1;
    }
    return 0;
  }

  if (command == "run") {
    for (int i = 2; i < argc; ++i) {
      try {
        const scenario::ScenarioSpec spec =
            scenario::parse(read_file(argv[0], argv[i]));
        const roboads::eval::ContainedRun run = scenario::fly_spec(spec);
        if (run.failed()) {
          std::fprintf(stderr, "%s: mission failed at step %zu: %s\n",
                       argv[i], run.failure->step,
                       run.failure->what.c_str());
          return 1;
        }
        std::printf(
            "%s: \"%s\" on %s — sensor %s (%s), actuator %s (%s), goal %s\n",
            argv[i], spec.name.c_str(), spec.platform.c_str(),
            scenario::sensor_detected(run.score) ? "detected" : "silent",
            run.score.sensor_condition_sequence.c_str(),
            scenario::actuator_detected(run.score) ? "detected" : "silent",
            run.score.actuator_condition_sequence.c_str(),
            run.result.goal_reached ? "reached" : "not reached");
      } catch (const scenario::SpecError& e) {
        std::fprintf(stderr, "%s: %s\n", argv[i], e.what());
        return 1;
      }
    }
    return 0;
  }

  usage_error(argv[0], "unknown subcommand \"" + command + "\"");
}

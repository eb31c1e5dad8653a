// Incident forensics with the flight recorder (§III-C quantification;
// docs/OBSERVABILITY.md "Flight recorder & incident bundles"): run a
// combined sensor+actuator attack with the always-on recorder attached, let
// the alarms freeze postmortem bundles, persist them, and prove the first
// one replays bit-identically through eval/replay.h.
//
//   ./build/examples/forensics_replay [output-prefix]
//
// Writes one <prefix><bundle-name>.jsonl file per frozen incident plus
// <prefix>.alarms.csv — the live mission's per-iteration alarms over the
// first bundle's window. ci.sh diffs that CSV against the replayed alarms
// from `roboads_explain --verify --alarms-out=` to close the loop from
// live detection to offline postmortem.
#include <cstdio>
#include <fstream>
#include <string>

#include "eval/khepera.h"
#include "eval/mission.h"
#include "eval/replay.h"
#include "scenario/compile.h"
#include "scenario/library.h"

using namespace roboads;
using namespace roboads::eval;

int main(int argc, char** argv) {
  const std::string prefix = argc > 1 ? argv[1] : "forensics";

  KheperaPlatform platform;
  // Scenario #8: IPS logic bomb (+0.07 m on X from 4 s) plus a wheel
  // controller bomb (∓6000 units from 10 s).
  const attacks::Scenario scenario =
      scenario::compile_spec(scenario::khepera_table2_spec(8), platform);

  obs::FlightRecorder recorder(obs::FlightRecorderConfig{true, 96, 8});
  MissionConfig cfg;
  cfg.iterations = 220;
  cfg.seed = 5150;
  cfg.instruments.recorder = &recorder;
  cfg.obs_label = "forensics/s5150";
  const MissionResult result = run_mission(platform, scenario, cfg);

  if (recorder.bundles().empty()) {
    std::printf("no incident captured (unexpected for scenario #8)\n");
    return 1;
  }

  for (std::size_t b = 0; b < recorder.bundles().size(); ++b) {
    const obs::PostmortemBundle& bundle = recorder.bundles()[b];
    const std::string path = prefix + obs::bundle_filename(bundle, b);
    obs::write_bundle_file(path, bundle);
    std::printf("bundle: %s (%s at k=%lld)\n", path.c_str(),
                bundle.trigger.c_str(),
                static_cast<long long>(bundle.trigger_k));
  }

  const obs::PostmortemBundle& first = recorder.bundles().front();
  {
    const std::string path = prefix + ".alarms.csv";
    std::ofstream os(path);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 2;
    }
    os << "k,sensor_alarm,actuator_alarm\n";
    for (const IterationRecord& rec : result.records) {
      const std::int64_t k = static_cast<std::int64_t>(rec.k);
      if (k < first.records.front().k || k > first.records.back().k) continue;
      os << rec.k << ',' << (rec.report.decision.sensor_alarm ? 1 : 0) << ','
         << (rec.report.decision.actuator_alarm ? 1 : 0) << '\n';
    }
    std::printf("live alarms: %s\n", path.c_str());
  }

  // Replay the incident in-process. The in-memory bundle carries a pre-step
  // snapshot on every record, so this also bit-compares the detector state
  // at every intermediate iteration, not just the outputs.
  const ReplayResult replay = replay_bundle(first);
  std::printf("%s", explain_bundle(first, &replay).c_str());
  return replay.identical() ? 0 : 1;
}

// Stealth-frontier search (paper §V-H generalized): per attack class, find
// the boundary magnitude between "stealthy for the whole mission" and
// "caught" by bracketing + bisection over a one-parameter family of
// ScenarioSpecs. bench/stealth_frontier drives the standard taxonomy over
// both platforms and emits the frontier as JSONL (docs/SCENARIOS.md).
#pragma once

#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "scenario/compile.h"

namespace roboads::scenario {

// A one-parameter attack family: make(m) yields the campaign at magnitude m
// (for freeze attacks m is the hold duration in iterations). Detection is
// assumed monotone in m over [lo, hi] up to noise; the driver verifies the
// bracket and expands it when the assumption fails at the endpoints.
struct FrontierAxis {
  std::string id;            // e.g. "ips-bias-x"
  std::string attack_class;  // bias | ramp | scale | freeze | noise
  std::string platform;
  std::string channel;  // "sensor" or "actuator": which alarm counts
  std::string unit;     // of the magnitude, for reporting
  double lo = 0.0;      // expected-stealthy starting magnitude
  double hi = 0.0;      // expected-caught starting magnitude
  std::function<ScenarioSpec(double)> make;
};

struct FrontierProbe {
  double magnitude = 0.0;
  bool detected = false;
  std::optional<double> delay_seconds;
};

struct FrontierResult {
  std::string id, attack_class, platform, channel, unit;
  // The bisected boundary: the largest probed magnitude that stayed
  // alarm-silent all mission and the smallest that was caught.
  double undetected_max = 0.0;
  double caught_min = 0.0;
  std::optional<double> delay_at_caught_seconds;
  std::vector<FrontierProbe> probes;  // in probing order
  // Set when even the expanded bracket never produced the corresponding
  // outcome (e.g. an attack class the detector always catches).
  bool all_detected = false;
  bool none_detected = false;
};

struct FrontierConfig {
  std::size_t bisection_steps = 7;
  std::size_t max_bracket_expansions = 5;
  std::uint64_t seed = 7700;        // mission seed for every probe
  std::size_t iterations = 250;
};

// Bisects one axis; every probe is a full deterministic mission.
FrontierResult map_frontier(const FrontierAxis& axis,
                            const FrontierConfig& config = {});

// The bisection core with the mission evaluation injected — what
// map_frontier runs, unit-testable against a synthetic detector
// (tests/scenario_frontier_test.cc). `probe` returns the detection outcome
// at a magnitude; axis.make is not called.
using ProbeFn = std::function<FrontierProbe(double)>;
FrontierResult map_frontier_with(const FrontierAxis& axis,
                                 const ProbeFn& probe,
                                 const FrontierConfig& config = {});

// The standard taxonomy for a platform: bias/ramp/scale/freeze/noise on
// representative sensors plus bias/scale on the actuator.
std::vector<FrontierAxis> standard_axes(const std::string& platform);

// Wire form (obs/jsonl.h record codec): one JSONL object per result,
// schema "roboads-frontier" v1, its probes nested in probing order. A
// missing delay and a non-finite magnitude are null.
template <class IO>
void codec(IO& io, FrontierProbe& p) {
  io("magnitude", p.magnitude);
  io("detected", p.detected);
  io("delay_seconds", p.delay_seconds);
}

template <class IO>
void codec(IO& io, FrontierResult& r) {
  io.tag("schema", "roboads-frontier");
  io.tag("version", 1);
  io("id", r.id);
  io("attack_class", r.attack_class);
  io("platform", r.platform);
  io("channel", r.channel);
  io("unit", r.unit);
  io("undetected_max", r.undetected_max);
  io("caught_min", r.caught_min);
  io("delay_at_caught_seconds", r.delay_at_caught_seconds);
  io("all_detected", r.all_detected);
  io("none_detected", r.none_detected);
  io("probes", r.probes);
}

// One line per result, parseable line-by-line like every other artifact
// in docs/OBSERVABILITY.md (json::decode<FrontierResult> reads one back).
void write_frontier_jsonl(std::ostream& os,
                          const std::vector<FrontierResult>& results);

}  // namespace roboads::scenario

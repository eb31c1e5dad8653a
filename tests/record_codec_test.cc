// The record codec behind every JSONL schema (obs/jsonl.h), pinned three
// ways:
//   - golden bytes: tests/data/golden_records.jsonl holds one line per
//     record shape — every manifest job kind, a missed delay, a finding, a
//     non-finite double, empty and populated histograms, each metric kind,
//     frontier results, complete / partial / empty merged reports and a
//     detector trace — and every writer must reproduce it exactly, and every
//     reader must read it back to the same bytes;
//   - hostile input: integers are exact (a seed above 2^53 survives) and
//     null / fractional / exponent / negative / out-of-range integer fields
//     are rejected with the schema's own exception, naming the field; a
//     100k-deep line fails loudly instead of overflowing the stack; a
//     repeated key throws naming it; `\u` escapes decode to UTF-8 and a
//     malformed escape or lone surrogate throws;
//   - a seeded byte-mutation loop over the golden lines: every mutant either
//     parses or throws its entry point's documented exception, never
//     crashes (run under ASan/UBSan by ./ci.sh asan|ubsan).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "common/check.h"
#include "fleet/introspect.h"
#include "obs/flight_recorder.h"
#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "scenario/frontier.h"
#include "shard/checkpoint.h"
#include "shard/heartbeat.h"
#include "shard/manifest.h"
#include "shard/merge.h"
#include "shard/status.h"
#include "shard/telemetry.h"

#ifndef ROBOADS_GOLDEN_DIR
#error "ROBOADS_GOLDEN_DIR must point at tests/data"
#endif

namespace roboads {
namespace {

namespace fs = std::filesystem;
namespace json = obs::json;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

obs::HistogramSnapshot populated_histogram(std::uint64_t seed) {
  obs::HistogramSnapshot h =
      obs::HistogramSnapshot::with_bounds(obs::default_latency_bounds_ns());
  for (std::uint64_t i = 0; i < 12; ++i) {
    h.record(static_cast<double>((seed * 977 + i * 7919) % 5'000'000) + 0.5);
  }
  return h;
}

// Every manifest job kind; the library job's seed is above 2^53, where a
// double-valued integer path would lose its last digit.
shard::Manifest golden_manifest() {
  shard::Manifest m;
  m.shards = 3;
  shard::ManifestJob spec;
  spec.id = "j00000";
  spec.shard = 0;
  spec.kind = shard::JobKind::kSpec;
  spec.group = "inline";
  spec.seed = 77;
  spec.iterations = 120;
  spec.spec_text = "scenario \"quoted\"\n\tattack ips bias 0.5\x01\nend\n";
  m.jobs.push_back(spec);
  shard::ManifestJob library;
  library.id = "j00001";
  library.shard = 1;
  library.kind = shard::JobKind::kLibrary;
  library.group = "seed-9007199254741";
  library.seed = 9007199254741001ull;
  library.iterations = 250;
  library.scenario = "#1 IPS spoofing";
  m.jobs.push_back(library);
  shard::ManifestJob fuzz;
  fuzz.id = "j00002";
  fuzz.shard = 2;
  fuzz.kind = shard::JobKind::kFuzz;
  fuzz.group = "fuzz";
  fuzz.fuzz_seed = 18446744073709551615ull;
  fuzz.fuzz_index = 4;
  fuzz.fuzz_iterations = 80;
  fuzz.max_attacks = 3;
  fuzz.fault_probability = 0.35;
  fuzz.platforms = {"khepera", "tamiya"};
  m.jobs.push_back(fuzz);
  return m;
}

// A detected and a missed delay, a finding, bundle files and a failure.
shard::JobOutcome golden_outcome() {
  shard::JobOutcome o;
  o.id = "j00001";
  o.group = "seed-9007199254741";
  o.name = "#1 IPS spoofing";
  o.status = "violation";
  o.sensor_tp = 40;
  o.sensor_fp = 1;
  o.sensor_tn = 200;
  o.sensor_fn = 2;
  o.actuator_tp = 10;
  o.actuator_fp = 0;
  o.actuator_tn = 230;
  o.actuator_fn = 9007199254740993;
  shard::OutcomeDelay detected;
  detected.label = "ips";
  detected.triggered_at = 57;
  detected.seconds = 0.35;
  o.delays.push_back(detected);
  shard::OutcomeDelay missed;
  missed.label = "actuator";
  missed.triggered_at = 90;
  o.delays.push_back(missed);
  o.sensor_sequence = "ips";
  o.actuator_sequence = "";
  o.bundle_files = {"bundles/j00001-b0.jsonl", "bundles/j00001-b1.jsonl"};
  o.failure = "mission aborted: \"planner\" gave up";
  o.failure_step = 17;
  shard::OutcomeFinding finding;
  finding.invariant = "score-consistency";
  finding.detail = "alarm without condition\nat step 12";
  finding.spec_text = "scenario \"x\"\nend\n";
  finding.shrunk_text = "scenario \"y\"\nend\n";
  o.findings.push_back(finding);
  return o;
}

// Two groups, a populated histogram and a non-finite rusage reading.
shard::TelemetryRecord golden_telemetry() {
  shard::TelemetryRecord r;
  r.label = "s1";
  r.instance = 4242;
  r.seq = 3;
  r.unix_time = 1754000000.25;
  r.elapsed_seconds = 12.5;
  r.jobs_assigned = 9;
  r.jobs_done = 4;
  r.groups["seed-11"] = {3, 2, 1, 0, 2};
  r.groups["fuzz"] = {1, 1, 0, 0, 0};
  r.step_latency = populated_histogram(1);
  r.max_rss_kb = kNaN;
  r.user_seconds = 1.5;
  r.system_seconds = 0.25;
  return r;
}

shard::Heartbeat golden_heartbeat() {
  shard::Heartbeat beat;
  beat.label = "s1";
  beat.jobs_done = 7;
  beat.last_job = "j7";
  beat.last_job_unix_time = 1754000123.5;
  beat.current_job = "j8";
  return beat;
}

// An empty (bound-less) histogram and a worker without a heartbeat.
shard::RunStatus golden_status() {
  shard::RunStatus s;
  s.unix_time = 1754000200.125;
  s.total_jobs = 4;
  s.completed = 3;
  s.ok = 2;
  s.failed = 1;
  s.violations = 0;
  s.complete = false;
  s.progress = 0.75;
  s.elapsed_seconds = 3.5;
  s.rate_jobs_per_second = 0.25;
  s.eta_seconds = -1.0;
  s.counters.launches = 3;
  s.counters.crashes = 1;
  s.counters.hangs = 0;
  s.counters.lost_shards = 0;
  s.counters.salvage_workers = 1;
  s.counters.slow_job_grants = 2;
  shard::WorkerStatus idle;
  idle.label = "s0";
  idle.jobs_done = 2;
  s.workers.push_back(idle);
  shard::WorkerStatus busy;
  busy.label = "s1";
  busy.heartbeat_age_seconds = 0.5;
  busy.jobs_done = 1;
  busy.instance_jobs_done = 1;
  busy.last_job = "j1";
  busy.last_job_unix_time = 1754000190.75;
  busy.current_job = "j3";
  busy.rate_jobs_per_second = 0.25;
  busy.max_rss_kb = 51200.0;
  s.workers.push_back(busy);
  return s;
}

// Every section populated; one shard's alarm histogram has bounds but no
// samples, and one alarm latency is non-finite.
fleet::FleetStatusSnapshot golden_fleet_status() {
  fleet::FleetStatusSnapshot s;
  s.unix_time = 1754500000.125;
  s.seq = 7;
  s.robots = 3;
  s.steps = 360;
  s.sensor_alarms = 11;
  s.actuator_alarms = 4;
  s.quarantine_iterations = 2;
  s.dropped_packets = 5;
  s.forwarded_packets = 1;
  s.unknown_robot_packets = 9;
  s.trace_sample = 2;
  s.spans = 120;
  s.ingest_to_step_ns = populated_histogram(2);
  s.ingest_to_alarm_ns = populated_histogram(3);
  for (std::size_t i = 0; i < 2; ++i) {
    fleet::ShardStat sh;
    sh.shard = i;
    sh.sessions = 1 + i;
    sh.steps = 100 + i;
    sh.sensor_alarms = i;
    sh.actuator_alarms = 2 * i;
    sh.quarantine_iterations = i;
    sh.dropped_packets = 3 * i;
    sh.forwarded_packets = i;
    sh.queue_depth = 4 + i;
    sh.queue_high_water = 40 + i;
    sh.reorder_pending = i;
    sh.ewma_queue_depth = 1.5 + static_cast<double>(i);
    sh.ewma_steps_per_s = 250.25 * static_cast<double>(i + 1);
    sh.ingest_to_step_ns = populated_histogram(4 + i);
    sh.ingest_to_alarm_ns =
        i == 0 ? obs::HistogramSnapshot::with_bounds(
                     obs::default_latency_bounds_ns())
               : populated_histogram(6);
    s.shards.push_back(sh);
  }
  fleet::RobotStat r;
  r.robot = 42;
  r.shard = 1;
  r.steps = 60;
  r.sensor_alarms = 3;
  r.actuator_alarms = 1;
  r.late_packets = 2;
  r.duplicate_packets = 1;
  r.forced_evictions = 1;
  r.masked_steps = 4;
  r.command_substituted = 2;
  r.reorder_pending = 1;
  r.ewma_steps_per_s = 9.875;
  r.ewma_step_latency_ns = 123456.5;
  r.traced = true;
  s.hot_robots.push_back(r);
  fleet::FleetAlarm a;
  a.unix_time = 1754499999.5;
  a.robot = 42;
  a.k = 77;
  a.sensor = true;
  a.actuator = false;
  a.latency_ns = kInf;
  s.alarms.push_back(a);
  fleet::RebalanceHint h;
  h.robot = 42;
  h.from_shard = 1;
  h.to_shard = 0;
  h.from_rate = 500.5;
  h.to_rate = 100.25;
  h.robot_rate = 9.875;
  s.hints.push_back(h);
  return s;
}

// Two records with non-finite values and magnitudes past 2^63.
obs::PostmortemBundle golden_bundle() {
  obs::PostmortemBundle b;
  b.trigger = "sensor_alarm";
  b.trigger_k = 12;
  b.detail = "sensor chi2 1e+20 > 9";
  obs::BundleProvenance& p = b.provenance;
  p.label = "golden/s1/j0";
  p.platform = "khepera";
  p.scenario = "#golden";
  p.description = "record codec golden";
  p.seed = 9007199254741001;
  p.iterations = 250;
  p.dt = 0.1;
  p.linear_baseline = true;
  p.likelihood_floor = 1e-9;
  p.health_enabled = false;
  p.sensor_alpha = 0.005;
  p.actuator_alpha = 0.05;
  p.sensor_window = 2;
  p.sensor_criteria = 2;
  p.actuator_window = 6;
  p.actuator_criteria = 3;
  p.modes = "nominal;ips";
  p.sensors = "ips;wheel";
  p.sensor_dims = {3, 2};
  p.state_dim = 3;
  p.input_dim = 2;
  for (std::int64_t k = 11; k <= 12; ++k) {
    obs::FlightRecord r;
    r.k = k;
    r.pre_step.state = {0.5, -0.25, 1.0};
    r.pre_step.state_cov = {1e-4, 0.0, 0.0, 1e-4};
    r.pre_step.weights = {0.75, 0.25};
    r.pre_step.health = {0, 3, 0, -1};
    r.pre_step.decision = {2, 0, 1, 1};
    r.pre_step.iteration = k - 1;
    r.u = {0.1, -0.1};
    r.z = {1e20, -1e20, 1e300, -1e300, 9223372036854775808.0};
    r.availability = "11";
    r.selected_mode = 1;
    r.mode_weights = {0.75, 0.25};
    r.log_likelihoods = {-kInf, kNaN};
    r.innovation_norms = {kNaN, 2.5};
    r.sensor_chi2 = k == 12 ? 1e20 : 3.25;
    r.sensor_threshold = 9.0;
    r.sensor_alarm = k == 12;
    r.actuator_chi2 = -9223372036854775808.0;
    r.actuator_threshold = 5.5;
    r.actuator_alarm = false;
    r.per_sensor_chi2 = {1e20, kNaN};
    r.per_sensor_threshold = {7.8, kNaN};
    r.misbehaving = "10";
    r.sensor_anomaly = {0.5, kNaN, kInf};
    r.actuator_anomaly = {0.0, -0.0};
    r.mode_health = "HQ";
    r.quarantined = 1;
    r.containment = k == 12;
    r.truth_valid = k == 12;
    r.truth_sensors = k == 12 ? "10" : "";
    r.truth_actuator = false;
    b.records.push_back(r);
  }
  return b;
}

// One sample of each metric kind, from a live registry.
void fill_golden_registry(obs::MetricsRegistry& registry) {
  registry.counter("detector.alarms").increment(3);
  registry.gauge("engine.last_statistic").set(-0.125);
  obs::Histogram& h =
      registry.histogram("engine.step_ns", obs::default_latency_bounds_ns());
  h.record(1500.0);
  h.record(80000.0);
  h.record(2.5e6);
}

// --- Frontier and write-only records ----------------------------------------

// A bisected axis, both degenerate outcomes (one probing a non-finite
// magnitude), and an axis without probes whose strings need escapes.
std::vector<scenario::FrontierResult> golden_frontier() {
  scenario::FrontierResult bisected;
  bisected.id = "ips-bias-x";
  bisected.attack_class = "bias";
  bisected.platform = "khepera";
  bisected.channel = "sensor";
  bisected.unit = "meters";
  bisected.undetected_max = 0.0123;
  bisected.caught_min = 0.025;
  bisected.delay_at_caught_seconds = 1.7;
  bisected.probes = {{0.002, false, std::nullopt},
                     {0.2, true, 0.3},
                     {0.101, true, 0.9},
                     {0.0123, false, std::nullopt},
                     {0.025, true, 1.7}};
  scenario::FrontierResult all;
  all.id = "wheel-gain";
  all.attack_class = "scale";
  all.platform = "khepera";
  all.channel = "actuator";
  all.unit = "gain-excess";
  all.caught_min = 0.1 / 1024.0;
  all.all_detected = true;
  all.probes = {{0.1, true, 0.5}, {0.1 / 1024.0, true, std::nullopt}};
  scenario::FrontierResult none;
  none.id = "imu-noise-x";
  none.attack_class = "noise";
  none.platform = "tamiya";
  none.channel = "sensor";
  none.unit = "meters-stddev";
  none.undetected_max = kInf;
  none.none_detected = true;
  none.probes = {{1.0, false, std::nullopt}, {kInf, false, std::nullopt}};
  scenario::FrontierResult unprobed;
  unprobed.id = "odd \"id\"\tx";
  unprobed.attack_class = "freeze";
  unprobed.platform = "tamiya";
  unprobed.channel = "sensor";
  unprobed.unit = "back\\slash\n\x01";
  return {bisected, all, none, unprobed};
}

std::string golden_frontier_text() {
  std::ostringstream os;
  scenario::write_frontier_jsonl(os, golden_frontier());
  return os.str();
}

shard::JobOutcome report_outcome(const std::string& id,
                                 const std::string& group,
                                 const std::string& status,
                                 std::vector<std::int64_t> counts,
                                 std::vector<std::optional<double>> delays) {
  shard::JobOutcome o;
  o.id = id;
  o.group = group;
  o.name = "job " + id;
  o.status = status;
  if (!counts.empty()) {
    o.sensor_tp = counts[0];
    o.sensor_fp = counts[1];
    o.sensor_tn = counts[2];
    o.sensor_fn = counts[3];
    o.actuator_tp = counts[4];
    o.actuator_fp = counts[5];
    o.actuator_tn = counts[6];
    o.actuator_fn = counts[7];
  }
  for (std::size_t i = 0; i < delays.size(); ++i) {
    shard::OutcomeDelay d;
    d.label = i == 0 ? "ips" : "actuator";
    d.triggered_at = 60 + 10 * static_cast<std::int64_t>(i);
    d.seconds = delays[i];
    o.delays.push_back(d);
  }
  return o;
}

// Two metric groups (one whose every delay was missed, with a name that
// needs escapes), a fuzz-only group and a failed job.
std::vector<shard::JobOutcome> golden_report_outcomes() {
  const std::string escaped = "seed-\"2\"\t";
  return {
      report_outcome("r0", "seed-1", "ok", {30, 2, 200, 3, 10, 0, 240, 1},
                     {0.3, std::nullopt}),
      report_outcome("r1", "seed-1", "ok", {28, 1, 205, 0, 12, 1, 236, 0},
                     {0.5}),
      report_outcome("r2", escaped, "ok", {25, 0, 210, 5, 0, 0, 250, 0},
                     {std::nullopt, std::nullopt}),
      report_outcome("r3", "fuzz", "violation", {}, {}),
      report_outcome("r4", "fuzz", "ok", {}, {}),
      report_outcome("r5", "seed-3", "failed", {}, {}),
  };
}

// The merged report of a manifest holding `ids`, given the golden outcomes
// named in `kept`.
std::string golden_report(const std::vector<std::string>& ids,
                          const std::vector<std::string>& kept) {
  shard::Manifest manifest;
  for (const std::string& id : ids) {
    shard::ManifestJob job;
    job.id = id;
    manifest.jobs.push_back(job);
  }
  std::vector<shard::JobOutcome> outcomes;
  for (const shard::JobOutcome& o : golden_report_outcomes()) {
    if (std::find(kept.begin(), kept.end(), o.id) != kept.end()) {
      outcomes.push_back(o);
    }
  }
  return shard::merge_outcomes(manifest, outcomes).text;
}

// Complete, partial (a missing line whose ids need escapes) and empty.
std::string golden_reports_text() {
  const std::vector<std::string> all = {"r0", "r1", "r2", "r3", "r4", "r5"};
  std::vector<std::string> partial = all;
  partial.push_back("r\"6\n");
  return golden_report(all, all) +
         golden_report(partial, {"r0", "r2", "r3", "r5"}) +
         golden_report({"r0", "r1"}, {});
}

// Labeled and unlabeled events carrying every TraceValue alternative: a
// negative int64, non-finite doubles (written as null), an escaped string,
// an empty vector, and a field name that needs escapes.
std::string golden_trace_text() {
  obs::TraceSink sink;
  sink.emit(obs::TraceEvent("mission_start", "golden/\"s1\"", 0)
                .add("platform", std::string("khepera"))
                .add("seed", std::int64_t{9007199254740993}));
  obs::TraceEvent it("iteration", 12);
  it.add("weights", std::vector<double>{0.75, 0.25, 1e-300})
      .add("empty", std::vector<double>{})
      .add("chi2", kInf)
      .add("nis", kNaN)
      .add("mode", std::numeric_limits<std::int64_t>::min())
      .add("alarm", true)
      .add("quiet", false)
      .add("note", std::string("tab\there \"quoted\"\nctrl\x01"))
      .add("we\"ird\\key\t", 2.5);
  sink.emit(it);
  sink.emit(obs::TraceEvent("mission_end", 250));
  std::ostringstream os;
  sink.write_jsonl(os);
  return os.str();
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void spit(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << text;
}

std::string scratch_path(const std::string& name) {
  return (fs::path(::testing::TempDir()) /
          ("record_codec_" + std::to_string(getpid()) + "_" + name))
      .string();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

template <class T>
std::string line_of(const T& record) {
  return json::encode(record) + "\n";
}

// One schema's slice of the golden file: how the writer produces it, how a
// reader reads it back and re-writes it, and the entry point a mutated
// copy is fed to (which must either accept it or throw its documented
// exception type). Write-only records (merged reports, traces) have no
// reader, so their `reread` and `entry` are empty.
struct Section {
  std::string name;
  std::function<std::string()> write;
  std::function<std::string(const std::string&)> reread;
  std::function<void(const std::string&)> entry;
  enum class Throws { kManifestError, kCheckError, kNothing } throws;
};

std::vector<Section> sections() {
  const std::string file = scratch_path("section");
  // Streams get a trailing copy of their last line, so a mutant line is
  // never the forgiven torn tail.
  const auto with_tail = [](const std::string& text) {
    const std::vector<std::string> lines = lines_of(text);
    return text + lines.back() + "\n";
  };
  return {
      {"manifest",
       [] { return shard::serialize(golden_manifest()); },
       [](const std::string& text) {
         return shard::serialize(shard::parse_manifest(text));
       },
       [](const std::string& text) { shard::parse_manifest(text); },
       Section::Throws::kManifestError},
      {"checkpoint",
       [] {
         std::ostringstream os;
         json::write_header(os, shard::kCheckpointStream);
         json::append(os, golden_outcome());
         return os.str();
       },
       [file](const std::string& text) {
         spit(file, text);
         std::ostringstream os;
         json::write_header(os, shard::kCheckpointStream);
         for (const shard::JobOutcome& o :
              json::read_stream(file, shard::kCheckpointStream, false)) {
           json::append(os, o);
         }
         return os.str();
       },
       [file, with_tail](const std::string& text) {
         spit(file, with_tail(text));
         json::read_stream(file, shard::kCheckpointStream, false);
       },
       Section::Throws::kManifestError},
      {"telemetry",
       [] {
         std::ostringstream os;
         json::write_header(os, shard::kTelemetryStream);
         json::append(os, golden_telemetry());
         return os.str();
       },
       [file](const std::string& text) {
         spit(file, text);
         std::ostringstream os;
         json::write_header(os, shard::kTelemetryStream);
         for (const shard::TelemetryRecord& r :
              json::read_stream(file, shard::kTelemetryStream, false)) {
           json::append(os, r);
         }
         return os.str();
       },
       [file, with_tail](const std::string& text) {
         spit(file, with_tail(text));
         json::read_stream(file, shard::kTelemetryStream, false);
       },
       Section::Throws::kManifestError},
      {"heartbeat",
       [file] {
         json::publish(file, golden_heartbeat(), shard::kHeartbeatFile);
         return slurp(file);
       },
       [file](const std::string& text) {
         spit(file, text);
         return line_of(*shard::read_heartbeat(file));
       },
       [file](const std::string& text) {
         spit(file, text);
         shard::read_heartbeat(file);
       },
       Section::Throws::kNothing},
      {"status",
       [] { return line_of(golden_status()); },
       [file](const std::string& text) {
         spit(file, text);
         return line_of(json::read_snapshot(file, shard::kStatusFile));
       },
       [file](const std::string& text) {
         spit(file, text);
         json::read_snapshot(file, shard::kStatusFile);
       },
       Section::Throws::kCheckError},
      {"fleet status",
       [] { return line_of(golden_fleet_status()); },
       [file](const std::string& text) {
         spit(file, text);
         return line_of(json::read_snapshot(file, fleet::kFleetStatusFile));
       },
       [file](const std::string& text) {
         spit(file, text);
         json::read_snapshot(file, fleet::kFleetStatusFile);
       },
       Section::Throws::kCheckError},
      {"bundle",
       [] {
         std::ostringstream os;
         obs::write_bundle(os, golden_bundle());
         return os.str();
       },
       [](const std::string& text) {
         std::istringstream is(text);
         std::ostringstream os;
         obs::write_bundle(os, obs::read_bundle(is));
         return os.str();
       },
       [](const std::string& text) {
         std::istringstream is(text);
         obs::read_bundle(is);
       },
       Section::Throws::kCheckError},
      {"histograms",
       [] {
         return line_of(populated_histogram(7)) +
                line_of(obs::HistogramSnapshot{});
       },
       [file](const std::string& text) {
         spit(file, text);
         std::string out;
         for (const obs::NamedHistogram& h : obs::load_histograms_jsonl(file)) {
           out += line_of(h.histogram);
         }
         return out;
       },
       [file](const std::string& text) {
         spit(file, text);
         obs::load_histograms_jsonl(file);
       },
       Section::Throws::kCheckError},
      {"metrics",
       [] {
         obs::MetricsRegistry registry;
         fill_golden_registry(registry);
         std::ostringstream os;
         registry.write_jsonl(os);
         return os.str();
       },
       [file](const std::string& text) {
         spit(file, text);
         std::string out;
         for (const obs::MetricSample& s : obs::load_metrics_jsonl(file)) {
           out += line_of(s);
         }
         return out;
       },
       [file](const std::string& text) {
         spit(file, text);
         obs::load_metrics_jsonl(file);
       },
       Section::Throws::kCheckError},
      {"named histogram",
       [] {
         return line_of(obs::NamedHistogram{"fleet.ingest_to_step_ns",
                                            populated_histogram(8)});
       },
       [file](const std::string& text) {
         spit(file, text);
         std::string out;
         for (const obs::NamedHistogram& h : obs::load_histograms_jsonl(file)) {
           out += line_of(h);
         }
         return out;
       },
       [file](const std::string& text) {
         spit(file, text);
         obs::load_histograms_jsonl(file);
       },
       Section::Throws::kCheckError},
      {"frontier",
       golden_frontier_text,
       [](const std::string& text) {
         std::vector<scenario::FrontierResult> results;
         for (const std::string& line : lines_of(text)) {
           results.push_back(
               json::decode<scenario::FrontierResult>(line, "frontier"));
         }
         std::ostringstream os;
         scenario::write_frontier_jsonl(os, results);
         return os.str();
       },
       [](const std::string& text) {
         for (const std::string& line : lines_of(text)) {
           json::decode<scenario::FrontierResult>(line, "frontier");
         }
       },
       Section::Throws::kCheckError},
      {"merged reports", golden_reports_text, {}, {},
       Section::Throws::kNothing},
      {"trace", golden_trace_text, {}, {}, Section::Throws::kNothing},
  };
}

std::string golden_text() {
  return slurp(ROBOADS_GOLDEN_DIR "/golden_records.jsonl");
}

TEST(GoldenRecords, WritersReproduceTheCheckedInBytes) {
  const std::vector<std::string> want = lines_of(golden_text());
  std::string written;
  for (const Section& s : sections()) written += s.write();
  const std::vector<std::string> got = lines_of(written);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "golden line " << i + 1;
  }
}

TEST(GoldenRecords, ReadThenWriteReturnsTheSameBytes) {
  const std::string golden = golden_text();
  std::size_t offset = 0;
  for (const Section& s : sections()) {
    const std::size_t size = s.write().size();
    const std::string text = golden.substr(offset, size);
    offset += size;
    if (s.reread) {
      EXPECT_EQ(s.reread(text), text) << s.name;
    }
  }
  EXPECT_EQ(offset, golden.size());
}

// --- Exact integers ---------------------------------------------------------

TEST(RecordCodec, SeedAboveTwoToTheFiftyThirdRoundTripsExactly) {
  // gen-table2 --seed=9007199254741 names mission seed 9007199254741001:
  // one past what a double-valued integer path can hold.
  const shard::Manifest manifest =
      shard::table2_manifest({9007199254741ull}, 1);
  const std::string text = shard::serialize(manifest);
  const shard::Manifest back = shard::parse_manifest(text);
  ASSERT_EQ(back.jobs.size(), manifest.jobs.size());
  EXPECT_EQ(back.jobs[0].seed, 9007199254741001ull);
  EXPECT_EQ(shard::serialize(back), text);

  const shard::Manifest golden = shard::parse_manifest(
      shard::serialize(golden_manifest()));
  EXPECT_EQ(golden.jobs[1].seed, 9007199254741001ull);
  EXPECT_EQ(golden.jobs[2].fuzz_seed, 18446744073709551615ull);
  const shard::JobOutcome outcome = json::decode<shard::JobOutcome>(
      json::encode(golden_outcome()), "outcome");
  EXPECT_EQ(outcome.actuator_fn, 9007199254740993);
}

// Integer literals every integer field must refuse.
const std::vector<std::string> kBadIntegers = {
    "null", "1.9", "1e3", "-1", "18446744073709551616", "1e300", "\"7\""};

// Replaces the first `"key":<value>` in `text`.
std::string with_field(std::string text, const std::string& key,
                       const std::string& value) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle);
  EXPECT_NE(at, std::string::npos) << key;
  const std::size_t begin = at + needle.size();
  const std::size_t end = text.find_first_of(",}", begin);
  return text.replace(begin, end - begin, value);
}

template <class Error>
void expect_rejected(const std::function<void()>& read, const std::string& key,
                     const std::string& value) {
  try {
    read();
    ADD_FAILURE() << key << "=" << value << " was accepted";
  } catch (const Error& e) {
    // Field paths end in the key: 'seq', 'shards[0].queue_high_water'.
    EXPECT_NE(std::string(e.what()).find(key + "'"), std::string::npos)
        << key << "=" << value << ": " << e.what();
  }
}

TEST(RecordCodec, ManifestIntegerFieldsRejectInexactForms) {
  const std::string text = shard::serialize(golden_manifest());
  for (const std::string& bad : kBadIntegers) {
    for (const char* key : {"jobs", "shards", "seed", "fuzz_seed"}) {
      const std::string mutated = with_field(text, key, bad);
      expect_rejected<shard::ManifestError>(
          [&] { shard::parse_manifest(mutated); }, key, bad);
    }
  }
}

TEST(RecordCodec, CheckpointIntegerFieldsRejectInexactForms) {
  const std::string path = scratch_path("checkpoint_ints.jsonl");
  std::ostringstream header;
  json::write_header(header, shard::kCheckpointStream);
  const std::string line = json::encode(golden_outcome());
  for (const std::string& bad : kBadIntegers) {
    for (const char* key : {"failure_step", "triggered_at"}) {
      // Mid-file, so the bad line is corruption rather than a torn tail.
      spit(path, header.str() + with_field(line, key, bad) + "\n" + line +
                     "\n");
      expect_rejected<shard::ManifestError>(
          [&] { json::read_stream(path, shard::kCheckpointStream, false); },
          key, bad);
    }
  }
  fs::remove(path);
}

TEST(RecordCodec, FleetStatusIntegerFieldsRejectInexactForms) {
  const std::string line = json::encode(golden_fleet_status());
  for (const std::string& bad : kBadIntegers) {
    for (const char* key : {"seq", "robots", "queue_high_water", "count"}) {
      const std::string mutated = with_field(line, key, bad);
      expect_rejected<CheckError>(
          [&] {
            json::decode<fleet::FleetStatusSnapshot>(mutated, "fleet_status");
          },
          key, bad);
    }
  }
}

// --- Bounded nesting --------------------------------------------------------

TEST(RecordCodec, DeepNestingFailsLoudly) {
  const std::string deep =
      "{\"a\":" + std::string(100000, '[') + std::string(100000, ']') + "}";
  EXPECT_THROW(json::parse_object_line(deep, "deep"), CheckError);

  // The same line as a manifest job: a ManifestError, not a stack overflow.
  std::string manifest = shard::serialize(golden_manifest());
  const std::size_t job = manifest.find('\n') + 1;
  manifest.replace(job, manifest.find('\n', job) - job, deep);
  try {
    shard::parse_manifest(manifest);
    FAIL() << "100k-deep manifest line accepted";
  } catch (const shard::ManifestError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos)
        << e.what();
  }

  // Nesting up to the bound still parses.
  const std::size_t depth = json::kMaxNesting - 1;
  const std::string ok = "{\"a\":" + std::string(depth, '[') +
                         std::string(depth, ']') + "}";
  EXPECT_NO_THROW(json::parse_object_line(ok, "ok"));
}

TEST(RecordCodec, ValidateJsonlBoundsNestingAndNamesTheLine) {
  // The trace validator parses through the same bounded parser: a 200k-deep
  // line is a diagnostic, not a stack overflow.
  std::istringstream deep("{\"event\":\"x\"}\n{\"a\":" +
                          std::string(200000, '[') +
                          std::string(200000, ']') + "}\n");
  try {
    obs::validate_jsonl(deep);
    FAIL() << "200k-deep JSONL line accepted";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("JSONL line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("nesting deeper than 64"), std::string::npos) << what;
  }
}

// --- Keys and string escapes -------------------------------------------------

TEST(RecordCodec, RepeatedKeyIsRejectedNamingTheKey) {
  // A manifest job line that names its seed twice: neither seed may win.
  std::string text = shard::serialize(golden_manifest());
  const std::string seed = "\"seed\":77,";
  ASSERT_NE(text.find(seed), std::string::npos);
  text.replace(text.find(seed), seed.size(), "\"seed\":1,\"seed\":2,");
  try {
    shard::parse_manifest(text);
    FAIL() << "a repeated key was accepted";
  } catch (const shard::ManifestError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate key \"seed\""),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(json::parse_object_line("{\"a\":{\"b\":1,\"b\":1}}", "nested"),
               CheckError);
}

// The decoded value of a JSON string literal.
std::string decoded(const std::string& literal) {
  return json::parse_object_line("{\"s\":" + literal + "}", "escape")
      .at("s")
      .str;
}

TEST(RecordCodec, UnicodeEscapesDecodeToUtf8) {
  EXPECT_EQ(decoded("\"\\u4e2d\""), "\xE4\xB8\xAD");  // 中
  EXPECT_EQ(decoded("\"caf\\u00e9\""), "caf\xC3\xA9");
  EXPECT_EQ(decoded("\"\\u00E9\""), "\xC3\xA9");
  EXPECT_EQ(decoded("\"\\u0001\\u007f\""), "\x01\x7f");
  EXPECT_EQ(decoded("\"\\b\\f\""), "\b\f");

  // What Python's json.dumps writes for a group "café": the manifest reads
  // it as UTF-8 and re-emits valid UTF-8 in every later file.
  std::string text = shard::serialize(golden_manifest());
  const std::string group = "\"group\":\"inline\"";
  ASSERT_NE(text.find(group), std::string::npos);
  text.replace(text.find(group), group.size(),
               "\"group\":\"caf\\u00e9\"");
  const shard::Manifest manifest = shard::parse_manifest(text);
  EXPECT_EQ(manifest.jobs[0].group, "caf\xC3\xA9");
  EXPECT_NE(shard::serialize(manifest).find("\"group\":\"caf\xC3\xA9\""),
            std::string::npos);
}

TEST(RecordCodec, SurrogatePairsCombineAndLoneSurrogatesFail) {
  EXPECT_EQ(decoded("\"\\ud83d\\ude00\""), "\xF0\x9F\x98\x80");  // 😀
  EXPECT_EQ(decoded("\"\\uD800\\uDC00\""), "\xF0\x90\x80\x80");
  EXPECT_EQ(decoded("\"\\udbff\\udfff\""), "\xF4\x8F\xBF\xBF");
  for (const char* lone :
       {"\"\\ud83d\"", "\"\\ude00\"", "\"\\ud83dx\"", "\"\\ud83d\\u0041\"",
        "\"\\ude00\\ud83d\"", "\"\\ud83d\\ud83d\""}) {
    EXPECT_THROW(decoded(lone), CheckError) << lone;
  }
}

TEST(RecordCodec, UnicodeEscapeTakesExactlyFourHexDigits) {
  for (const char* bad : {"\"\\uZZZZ\"", "\"\\u0x1f\"", "\"\\u12\"", "\"\\u12",
                          "\"\\u-123\"", "\"\\u 123\""}) {
    EXPECT_THROW(decoded(bad), CheckError) << bad;
  }
}

// --- Number text ------------------------------------------------------------

TEST(RecordCodec, WriteNumberHandlesMagnitudesPastTheIntegerRange) {
  const auto text = [](double v) {
    std::ostringstream os;
    json::write_number(os, v);
    return os.str();
  };
  EXPECT_EQ(text(1e20), "1e+20");
  EXPECT_EQ(text(-1e20), "-1e+20");
  EXPECT_EQ(text(1e300), "1.0000000000000001e+300");
  EXPECT_EQ(text(-1e300), "-1.0000000000000001e+300");
  EXPECT_EQ(text(9223372036854775808.0), "9.2233720368547758e+18");
  EXPECT_EQ(text(-9223372036854775808.0), "-9.2233720368547758e+18");
  EXPECT_EQ(text(1e15 - 1), "999999999999999");
  EXPECT_EQ(text(std::numeric_limits<double>::infinity()), "null");
}

// --- Byte mutation ----------------------------------------------------------

std::string mutate(std::string text, std::mt19937_64& rng) {
  static const std::string kInteresting = "[]{}\",:\\-.+eE09ntf \x01\x7f\xff";
  const int edits = 1 + static_cast<int>(rng() % 3);
  for (int e = 0; e < edits && !text.empty(); ++e) {
    const std::size_t at = rng() % text.size();
    const char c = rng() % 4 == 0 ? static_cast<char>(rng() % 256)
                                  : kInteresting[rng() % kInteresting.size()];
    switch (rng() % 4) {
      case 0: text[at] = c; break;
      case 1: text.insert(at, 1, c); break;
      case 2: text.erase(at, 1); break;
      default: text.insert(at, text.substr(at, rng() % 16)); break;
    }
  }
  return text;
}

TEST(RecordCodec, ByteMutantsParseOrThrowTheDocumentedError) {
  std::mt19937_64 rng(20261017);
  constexpr int kMutantsPerSection = 300;
  for (const Section& s : sections()) {
    if (!s.entry) continue;
    const std::string original = s.write();
    std::size_t accepted = 0;
    for (int i = 0; i < kMutantsPerSection; ++i) {
      const std::string mutant = mutate(original, rng);
      try {
        s.entry(mutant);
        ++accepted;
      } catch (const shard::ManifestError& e) {
        EXPECT_EQ(s.throws, Section::Throws::kManifestError)
            << s.name << ": " << e.what();
      } catch (const CheckError& e) {
        EXPECT_EQ(s.throws, Section::Throws::kCheckError)
            << s.name << ": " << e.what();
      } catch (const std::exception& e) {
        ADD_FAILURE() << s.name << ": undocumented " << typeid(e).name()
                      << ": " << e.what() << "\nmutant: " << mutant;
      }
    }
    // Damage must be caught, not silently read (heartbeats fall back to
    // nullopt instead of throwing).
    if (s.throws != Section::Throws::kNothing) {
      EXPECT_LT(accepted, static_cast<std::size_t>(kMutantsPerSection))
          << s.name;
    }
  }
}

// --- Monitor flags ----------------------------------------------------------

TEST(MonitorFlags, IntervalMustBePositive) {
  for (const char* bad : {"--interval=0", "--interval=-1", "--interval=x",
                          "--interval="}) {
    obs::MonitorOptions o;
    std::string error;
    EXPECT_TRUE(obs::take_monitor_flag(bad, o, &error)) << bad;
    EXPECT_NE(error.find("--interval"), std::string::npos) << bad;
  }
  obs::MonitorOptions o;
  std::string error;
  EXPECT_TRUE(obs::take_monitor_flag("--interval=0.25", o, &error));
  EXPECT_EQ(error, "");
  EXPECT_DOUBLE_EQ(o.interval_s, 0.25);
  EXPECT_TRUE(obs::take_monitor_flag("--json", o, &error));
  EXPECT_NE(obs::check_monitor_options(o).find("--once"), std::string::npos);
  EXPECT_TRUE(obs::take_monitor_flag("--once", o, &error));
  EXPECT_EQ(obs::check_monitor_options(o), "");
  EXPECT_FALSE(obs::take_monitor_flag("--dir=x", o, &error));
}

}  // namespace
}  // namespace roboads

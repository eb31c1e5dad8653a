// campaign — scored missions per second (README.md "campaign").
//
// The manifest holds the eleven Table II jobs of shard::table2_manifest at
// 250 iterations for each of the first kUniverse replication seeds of
// shard::default_seed_series; the workload seed shuffles it. Jobs run one at
// a time through shard::execute_job on this thread, in that order, until
// the run's time is up. Every outcome must be "ok" and match the digest
// pinned for its mission seed in reference_outcomes.txt.
//
// A job's cost follows its replication seed's plan (within one scenario,
// jobs spread by about 14%), so every run draws from all 64 seeds and
// covers about half of the 704 jobs: a run of 8 seeds' jobs measures which
// 8 were drawn, and its median moves by 6-8% from one workload seed to the
// next.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <unordered_map>

#include "layers.h"
#include "scenario/compile.h"
#include "shard/checkpoint.h"
#include "shard/exec.h"
#include "shard/manifest.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace shard = roboads::shard;

constexpr std::size_t kUniverse = 64;  // replication seeds with pinned digests
constexpr std::size_t kRepSeeds = kUniverse;  // replication seeds per run
constexpr std::size_t kShortRepSeeds = 1;
constexpr std::size_t kIterations = 250;
constexpr int kSetupRepeats = 5;
// Share of packets duplicated in the shuffled stream replays (as
// fleet-paced).
constexpr double kDupShare = 0.05;

using Reference = std::unordered_map<std::uint64_t, std::uint64_t>;

// Digest of an outcome without its manifest position (id, group), so it is
// a function of (scenario, mission seed) alone.
std::uint64_t outcome_digest(shard::JobOutcome outcome) {
  outcome.id.clear();
  outcome.group.clear();
  return fnv1a64(shard::serialize_outcome(outcome));
}

Reference load_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference " + path);
  Reference ref;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::uint64_t seed = 0;
    std::string digest;
    if (!(fields >> seed >> digest)) {
      throw std::runtime_error("malformed reference line: " + line);
    }
    ref[seed] = std::stoull(digest, nullptr, 16);
  }
  return ref;
}

shard::Manifest make_manifest(std::uint64_t seed, std::size_t rep_seeds) {
  std::vector<std::uint64_t> universe = shard::default_seed_series(kUniverse);
  SeededStream pick(seed);
  pick.shuffle(universe);
  universe.resize(rep_seeds);
  shard::Manifest manifest = shard::table2_manifest(universe, 1, kIterations);
  pick.shuffle(manifest.jobs);
  return manifest;
}

struct Checker {
  const Reference& reference;
  Result& result;

  void check(const shard::ManifestJob& job, shard::JobOutcome outcome,
             bool plant) {
    ++result.attempted;
    if (outcome.status != "ok") {
      result.fail("job_status");
      return;
    }
    if (plant) ++outcome.sensor_tp;
    const auto it = reference.find(job.seed);
    if (it == reference.end() || it->second != outcome_digest(outcome)) {
      result.fail("outcome_mismatch");
    }
  }
};

}  // namespace

int write_campaign_reference(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  out << "# mission_seed outcome_digest scenario — shard::execute_job "
         "outcomes of the Table II jobs\n# of the first "
      << kUniverse
      << " default_seed_series replication seeds at 250 iterations.\n";
  const shard::Manifest manifest = shard::table2_manifest(
      shard::default_seed_series(kUniverse), 1, kIterations);
  for (const shard::ManifestJob& job : manifest.jobs) {
    const shard::JobOutcome outcome = shard::execute_job(job, {});
    if (outcome.status != "ok") {
      std::cerr << "perfbench: job " << job.id << " failed: "
                << outcome.failure << "\n";
      return 1;
    }
    char line[160];
    std::snprintf(line, sizeof(line), "%llu %016llx %s\n",
                  static_cast<unsigned long long>(job.seed),
                  static_cast<unsigned long long>(outcome_digest(outcome)),
                  job.scenario.c_str());
    out << line;
  }
  return out ? 0 : 1;
}

void run_campaign(const Options& o, Result& r) {
  const std::size_t rep_seeds = o.short_mode ? kShortRepSeeds : kRepSeeds;

  // Set-up: manifest, pinned references, and one warm-up job that pays the
  // one-time costs (page faults, lazy tables). The warm-up job is the same
  // for every seed, so set-up time does not depend on the draw. Repeated;
  // the median counts.
  std::vector<double> setup_s;      // at the reference speed
  std::vector<double> setup_raw_s;  // CPU time as measured
  shard::Manifest manifest;
  Reference reference;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::uint64_t t0 = thread_cpu_ns();
    manifest = make_manifest(o.seed, rep_seeds);
    reference = load_reference(o.reference);
    const shard::JobOutcome warm = shard::execute_job(
        shard::table2_manifest(shard::default_seed_series(1), 1, kIterations)
            .jobs.front(),
        {});
    if (warm.status != "ok") throw std::runtime_error("warm-up job failed");
    const double raw_s = static_cast<double>(thread_cpu_ns() - t0) * 1e-9;
    setup_raw_s.push_back(raw_s);
    setup_s.push_back(raw_s * kReferenceKernelNs / kernel_median_ns());
  }

  Checker checker{reference, r};
  Tracer tracer(o.trace);
  const shard::ExecConfig exec;
  const std::uint64_t budget_ns = static_cast<std::uint64_t>(o.seconds * 1e9);

  // Untraced jobs: the end-to-end samples (the whole run with --trace 0;
  // the first quarter of a traced run, as the overhead baseline). A job's
  // time is the worker thread's CPU time, and one kernel run follows each
  // job (common.h "Host-speed calibration"); the run ends by the wall
  // clock.
  std::vector<double> job_raw_ms;  // run order
  std::vector<std::uint64_t> job_end;
  SpeedTrack speed;
  FleetSamples fleet;  // lag: gap between one job's end and the next start
  const std::uint64_t start = now_ns();
  const std::uint64_t untraced_end =
      start + (o.trace ? budget_ns / 4 : budget_ns);
  std::size_t next = 0;
  std::uint64_t end = start;
  while (end < untraced_end || job_raw_ms.empty()) {
    const shard::ManifestJob& job = manifest.jobs[next % manifest.jobs.size()];
    const std::uint64_t t0 = now_ns();
    if (next > 0) fleet.lag_us.add(static_cast<double>(t0 - end) * 1e-3);
    const std::uint64_t c0 = thread_cpu_ns();
    shard::JobOutcome outcome = shard::execute_job(job, exec);
    job_raw_ms.push_back(static_cast<double>(thread_cpu_ns() - c0) * 1e-6);
    end = now_ns();
    job_end.push_back(end);
    speed.add(end, kernel_ns());
    checker.check(job, std::move(outcome),
                  o.plant == "alter-outcome" && next == 0);
    ++next;
  }
  const double wall_s = static_cast<double>(end - start) * 1e-9;
  // Job times at the reference speed; call once `speed` is finished.
  const auto at_reference = [&speed](const std::vector<double>& raw_ms,
                                     const std::vector<std::uint64_t>& ends) {
    Samples ms;
    for (std::size_t i = 0; i < raw_ms.size(); ++i) {
      ms.add(speed.scale(raw_ms[i], ends[i]));
    }
    return ms;
  };

  if (!o.trace) {
    speed.finish();
    const Samples job_ms = at_reference(job_raw_ms, job_end);
    r.add("throughput_per_s",
          static_cast<double>(job_ms.size()) / (job_ms.sum() * 1e-3), "1/s");
    r.add("latency_ms_p50", job_ms.median(), "ms");
    r.add("setup_s", median_of(setup_s), "s");
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    r.detail("workload",
             "campaign: missions per worker CPU-second, job CPU ms, "
             "both at the reference speed");
    r.detail("latency.samples", std::to_string(job_ms.size()));
    r.detail("latency_ms_p90", job_ms.quantile(0.90));
    r.detail("jobs_in_manifest", std::to_string(manifest.jobs.size()));
    r.detail("kernel_us_p50", speed.median() * 1e-3);
    r.detail("raw.latency_ms_p50", median_of(job_raw_ms));
    r.detail("raw.setup_s", median_of(setup_raw_s));
    r.detail("wall.missions_per_s",
             static_cast<double>(job_ms.size()) / wall_s);
    return;
  }

  // Traced jobs: each job is a root span holding the timed execute_job and
  // the per-layer calls on the same (scenario, seed).
  const std::unique_ptr<roboads::eval::Platform> platform =
      scenario::make_platform("khepera");
  const scenario::PlatformTraits traits = scenario::platform_traits("khepera");
  LayerSamples layers;
  std::vector<double> traced_raw_ms;
  std::vector<std::uint64_t> traced_job_end;
  const std::uint64_t traced_end = start + budget_ns;
  while (now_ns() < traced_end || traced_raw_ms.empty()) {
    const shard::ManifestJob& job = manifest.jobs[next % manifest.jobs.size()];
    const RequestId request = RequestId::job(next);
    Timed root(tracer, "campaign.job", 0, request);
    Timed exec_span(tracer, "shard.execute_job", root.id(), request);
    const std::uint64_t c0 = thread_cpu_ns();
    shard::JobOutcome outcome = shard::execute_job(job, exec);
    traced_raw_ms.push_back(static_cast<double>(thread_cpu_ns() - c0) * 1e-6);
    exec_span.stop();
    traced_job_end.push_back(now_ns());
    speed.add(traced_job_end.back(), kernel_ns());

    roboads::eval::ScenarioScore score;
    const roboads::eval::MissionResult mission =
        fly(job.scenario, job.seed, kIterations, *platform, traits, &layers,
            tracer, root.id(), request, &score);
    if (static_cast<std::int64_t>(score.sensor.true_positives) !=
            outcome.sensor_tp ||
        static_cast<std::int64_t>(score.actuator.true_positives) !=
            outcome.actuator_tp) {
      r.fail("layer_mission_differs_from_job");
    }
    checker.check(job, std::move(outcome), false);
    replay_core(*platform, mission, layers, tracer, root.id(), request);
    replay_sessions(*platform, mission, o.seed + next, kDupShare, layers,
                    tracer, root.id(), request);
    replay_fleet_sync(*platform, mission, o.seed + next, kDupShare, fleet,
                      layers, tracer, root.id(), request);
    root.stop();
    ++next;
  }

  add_layer_metrics(layers, r);
  add_fleet_metrics(fleet, layers, r);
  // Detector share of mission time, with its base.
  const double mission_ms = layers.mission_ms.sum();
  r.add("core.detector_share",
        layers.detector_step_us.sum() * 1e-3 / mission_ms, "ratio");
  r.detail("core.detector_share.base_mission_ms_total", mission_ms);
  // Both sides at the reference speed, as the host may drift between them.
  speed.finish();
  const double untraced_ms = at_reference(job_raw_ms, job_end).median();
  const double traced_ms =
      at_reference(traced_raw_ms, traced_job_end).median();
  r.add("trace.overhead_frac", traced_ms / untraced_ms - 1.0, "ratio");
  r.detail("trace.overhead_frac.base_untraced_job_ms", untraced_ms);
  r.detail("trace.overhead_frac.traced_job_ms", traced_ms);

  tracer.write(o.out_dir + "/perfbench-trace-campaign.tsv");
}

}  // namespace perfbench

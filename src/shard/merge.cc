#include "shard/merge.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "stats/metrics.h"

namespace roboads::shard {
namespace {

namespace json = roboads::obs::json;

// Per replication group: folded confusion counts and delay samples. Groups
// are the unit of the confidence intervals — e.g. one group per seed in
// bench/seed_robustness, so the CI measures across-seed spread.
struct GroupStats {
  std::string name;
  std::size_t jobs = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t violations = 0;
  stats::ConfusionCounts counts;  // sensor + actuator folded together
  std::vector<double> delay_seconds;
  std::size_t missed_delays = 0;  // delays never correctly detected

  bool has_metrics() const { return counts.total() > 0; }
};

void fold(GroupStats& g, const JobOutcome& o) {
  ++g.jobs;
  if (o.status == "ok") ++g.ok;
  if (o.status == "failed") ++g.failed;
  if (o.status == "violation") ++g.violations;
  g.counts.true_positives +=
      static_cast<std::size_t>(o.sensor_tp + o.actuator_tp);
  g.counts.false_positives +=
      static_cast<std::size_t>(o.sensor_fp + o.actuator_fp);
  g.counts.true_negatives +=
      static_cast<std::size_t>(o.sensor_tn + o.actuator_tn);
  g.counts.false_negatives +=
      static_cast<std::size_t>(o.sensor_fn + o.actuator_fn);
  for (const OutcomeDelay& d : o.delays) {
    if (d.seconds.has_value()) {
      g.delay_seconds.push_back(*d.seconds);
    } else {
      ++g.missed_delays;
    }
  }
}

void write_counts(std::ostream& os, const char* key,
                  std::int64_t tp, std::int64_t fp, std::int64_t tn,
                  std::int64_t fn) {
  json::write_field_key(os, key);
  json::write_ints(os, {tp, fp, tn, fn});
}

void write_ci_line(std::ostream& os, const char* metric,
                   const std::vector<double>& samples) {
  const stats::MeanCi95 ci = stats::mean_ci95(samples);
  os << '{';
  json::write_field_key(os, "event", /*first=*/true);
  json::write_escaped(os, "ci");
  json::write_field_key(os, "metric");
  json::write_escaped(os, metric);
  json::write_field_key(os, "groups");
  json::write_number(os, static_cast<double>(ci.n));
  json::write_field_key(os, "mean");
  json::write_number(os, ci.mean);
  json::write_field_key(os, "stddev");
  json::write_number(os, ci.stddev);
  json::write_field_key(os, "ci95");
  json::write_doubles(os, {ci.lo, ci.hi});
  os << "}\n";
}

}  // namespace

MergedReport merge_outcomes(const Manifest& manifest,
                            std::vector<JobOutcome> outcomes) {
  std::set<std::string> manifest_ids;
  for (const ManifestJob& job : manifest.jobs) manifest_ids.insert(job.id);

  std::map<std::string, const JobOutcome*> by_id;
  for (const JobOutcome& o : outcomes) {
    if (manifest_ids.count(o.id) == 0) {
      throw ManifestError("outcome \"" + o.id + "\" is not in the manifest");
    }
    if (!by_id.emplace(o.id, &o).second) {
      throw ManifestError("duplicate outcome for job \"" + o.id + "\"");
    }
  }

  MergedReport report;
  report.stats.total_jobs = manifest.jobs.size();
  report.stats.completed = by_id.size();

  // Groups in manifest order (first appearance), folding only recorded
  // outcomes. Missing jobs surface in missing_ids, never as fake zeros.
  std::vector<GroupStats> groups;
  std::map<std::string, std::size_t> group_index;
  stats::ConfusionCounts total_counts;
  std::int64_t s_tp = 0, s_fp = 0, s_tn = 0, s_fn = 0;
  std::int64_t a_tp = 0, a_fp = 0, a_tn = 0, a_fn = 0;
  for (const ManifestJob& job : manifest.jobs) {
    const auto it = by_id.find(job.id);
    if (it == by_id.end()) {
      report.stats.missing_ids.push_back(job.id);
      continue;
    }
    const JobOutcome& o = *it->second;
    if (o.status == "ok") ++report.stats.ok;
    if (o.status == "failed") ++report.stats.failed;
    if (o.status == "violation") ++report.stats.violations;
    const auto inserted =
        group_index.emplace(o.group, groups.size());
    if (inserted.second) {
      groups.emplace_back();
      groups.back().name = o.group;
    }
    fold(groups[inserted.first->second], o);
    s_tp += o.sensor_tp; s_fp += o.sensor_fp;
    s_tn += o.sensor_tn; s_fn += o.sensor_fn;
    a_tp += o.actuator_tp; a_fp += o.actuator_fp;
    a_tn += o.actuator_tn; a_fn += o.actuator_fn;
  }
  report.stats.complete = report.stats.missing_ids.empty();
  total_counts.true_positives = static_cast<std::size_t>(s_tp + a_tp);
  total_counts.false_positives = static_cast<std::size_t>(s_fp + a_fp);
  total_counts.true_negatives = static_cast<std::size_t>(s_tn + a_tn);
  total_counts.false_negatives = static_cast<std::size_t>(s_fn + a_fn);

  std::ostringstream os;

  // Header.
  os << '{';
  json::write_field_key(os, "event", /*first=*/true);
  json::write_escaped(os, "report");
  json::write_field_key(os, "name");
  json::write_escaped(os, "roboads-shard-report");
  json::write_field_key(os, "version");
  json::write_number(os, 1);
  json::write_field_key(os, "jobs");
  json::write_number(os, static_cast<double>(report.stats.total_jobs));
  json::write_field_key(os, "completed");
  json::write_number(os, static_cast<double>(report.stats.completed));
  json::write_field_key(os, "complete");
  os << (report.stats.complete ? "true" : "false");
  os << "}\n";

  // Whole-campaign aggregate.
  os << '{';
  json::write_field_key(os, "event", /*first=*/true);
  json::write_escaped(os, "aggregate");
  json::write_field_key(os, "ok");
  json::write_number(os, static_cast<double>(report.stats.ok));
  json::write_field_key(os, "failed");
  json::write_number(os, static_cast<double>(report.stats.failed));
  json::write_field_key(os, "violations");
  json::write_number(os, static_cast<double>(report.stats.violations));
  write_counts(os, "sensor", s_tp, s_fp, s_tn, s_fn);
  write_counts(os, "actuator", a_tp, a_fp, a_tn, a_fn);
  json::write_field_key(os, "fpr");
  json::write_number(os, total_counts.false_positive_rate());
  json::write_field_key(os, "fnr");
  json::write_number(os, total_counts.false_negative_rate());
  json::write_field_key(os, "f1");
  json::write_number(os, total_counts.f1());
  os << "}\n";

  // 95% confidence intervals across replication groups (groups carrying
  // mission metrics only — a fuzz group contributes no confusion counts).
  std::vector<double> fprs, fnrs, delays;
  for (const GroupStats& g : groups) {
    if (!g.has_metrics()) continue;
    fprs.push_back(g.counts.false_positive_rate());
    fnrs.push_back(g.counts.false_negative_rate());
    if (!g.delay_seconds.empty()) {
      delays.push_back(stats::mean(g.delay_seconds));
    }
  }
  if (!fprs.empty()) {
    write_ci_line(os, "fpr", fprs);
    write_ci_line(os, "fnr", fnrs);
  }
  if (!delays.empty()) write_ci_line(os, "detection_delay", delays);

  // Telemetry: per-group detection-delay distributions as mergeable
  // histograms (obs::HistogramSnapshot over the shared delay bounds). A
  // deterministic function of the outcomes alone — no wall-clock, no worker
  // identity — so the merged report stays byte-identical to the serial
  // reference with telemetry enabled.
  for (const GroupStats& g : groups) {
    if (g.delay_seconds.empty()) continue;
    obs::HistogramSnapshot hist =
        obs::HistogramSnapshot::with_bounds(obs::default_delay_bounds_s());
    for (const double d : g.delay_seconds) hist.record(d);
    os << '{';
    json::write_field_key(os, "event", /*first=*/true);
    json::write_escaped(os, "telemetry");
    json::write_field_key(os, "metric");
    json::write_escaped(os, "detection_delay_s");
    json::write_field_key(os, "group");
    json::write_escaped(os, g.name);
    json::write_field_key(os, "count");
    json::write_number(os, static_cast<double>(hist.count));
    json::write_field_key(os, "mean");
    json::write_number(os, hist.mean());
    json::write_field_key(os, "stddev");
    json::write_number(os, hist.stddev());
    json::write_field_key(os, "ci95");
    json::write_doubles(os, {hist.mean() - hist.ci95_half_width(),
                             hist.mean() + hist.ci95_half_width()});
    json::write_field_key(os, "p50");
    json::write_number(os, hist.quantile(0.50));
    json::write_field_key(os, "p90");
    json::write_number(os, hist.quantile(0.90));
    json::write_field_key(os, "p99");
    json::write_number(os, hist.quantile(0.99));
    json::write_field_key(os, "max");
    json::write_number(os, hist.max);
    json::write_field_key(os, "hist");
    json::write(os, hist);
    os << "}\n";
  }

  // Per-group lines, in manifest first-appearance order.
  for (const GroupStats& g : groups) {
    os << '{';
    json::write_field_key(os, "event", /*first=*/true);
    json::write_escaped(os, "group");
    json::write_field_key(os, "group");
    json::write_escaped(os, g.name);
    json::write_field_key(os, "jobs");
    json::write_number(os, static_cast<double>(g.jobs));
    json::write_field_key(os, "ok");
    json::write_number(os, static_cast<double>(g.ok));
    json::write_field_key(os, "failed");
    json::write_number(os, static_cast<double>(g.failed));
    json::write_field_key(os, "violations");
    json::write_number(os, static_cast<double>(g.violations));
    if (g.has_metrics()) {
      json::write_field_key(os, "fpr");
      json::write_number(os, g.counts.false_positive_rate());
      json::write_field_key(os, "fnr");
      json::write_number(os, g.counts.false_negative_rate());
      json::write_field_key(os, "detection_delay");
      if (g.delay_seconds.empty()) {
        os << "null";
      } else {
        json::write_number(os, stats::mean(g.delay_seconds));
      }
      json::write_field_key(os, "missed_delays");
      json::write_number(os, static_cast<double>(g.missed_delays));
    }
    os << "}\n";
  }

  // Partial coverage is reported, not hidden.
  if (!report.stats.complete) {
    os << '{';
    json::write_field_key(os, "event", /*first=*/true);
    json::write_escaped(os, "missing");
    json::write_field_key(os, "count");
    json::write_number(os,
                       static_cast<double>(report.stats.missing_ids.size()));
    json::write_field_key(os, "ids");
    json::write_strings(os, report.stats.missing_ids);
    os << "}\n";
  }

  // Every outcome, canonically serialized in job-id order. This is the part
  // the chaos test diffs byte-for-byte against the serial reference.
  std::sort(outcomes.begin(), outcomes.end(),
            [](const JobOutcome& a, const JobOutcome& b) { return a.id < b.id; });
  for (const JobOutcome& o : outcomes) {
    os << serialize_outcome(o) << '\n';
  }

  report.text = os.str();
  return report;
}

MergedReport merge_run(const Manifest& manifest, const std::string& dir) {
  return merge_outcomes(manifest, load_run_outcomes(dir));
}

}  // namespace roboads::shard

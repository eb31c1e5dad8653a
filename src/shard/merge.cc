#include "shard/merge.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <tuple>

#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "stats/metrics.h"

namespace roboads::shard {
namespace {

namespace json = roboads::obs::json;

// One channel's confusion counts, written as [tp, fp, tn, fn].
struct Counts {
  std::int64_t tp = 0, fp = 0, tn = 0, fn = 0;
};

// Outcomes folded per replication group, and once for the whole campaign.
// Groups are the unit of the confidence intervals — e.g. one group per seed
// in bench/seed_robustness, so the CI measures across-seed spread.
struct Tally {
  std::string name;
  std::size_t jobs = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t violations = 0;
  Counts sensor, actuator;
  std::vector<double> delay_seconds;
  std::size_t missed_delays = 0;  // delays never correctly detected

  // Sensor and actuator folded together.
  stats::ConfusionCounts counts() const {
    stats::ConfusionCounts c;
    c.true_positives = static_cast<std::size_t>(sensor.tp + actuator.tp);
    c.false_positives = static_cast<std::size_t>(sensor.fp + actuator.fp);
    c.true_negatives = static_cast<std::size_t>(sensor.tn + actuator.tn);
    c.false_negatives = static_cast<std::size_t>(sensor.fn + actuator.fn);
    return c;
  }
  bool has_metrics() const { return counts().total() > 0; }
};

void fold(Tally& t, const JobOutcome& o) {
  ++t.jobs;
  if (o.status == "ok") ++t.ok;
  if (o.status == "failed") ++t.failed;
  if (o.status == "violation") ++t.violations;
  t.sensor.tp += o.sensor_tp; t.sensor.fp += o.sensor_fp;
  t.sensor.tn += o.sensor_tn; t.sensor.fn += o.sensor_fn;
  t.actuator.tp += o.actuator_tp; t.actuator.fp += o.actuator_fp;
  t.actuator.tn += o.actuator_tn; t.actuator.fn += o.actuator_fn;
  for (const OutcomeDelay& d : o.delays) {
    if (d.seconds.has_value()) {
      t.delay_seconds.push_back(*d.seconds);
    } else {
      ++t.missed_delays;
    }
  }
}

// --- report.jsonl lines (obs/jsonl.h record codec), in line order. Nothing
// parses a report back, so these codecs write computed values, and a group
// line carries its metric fields only when the group has confusion counts.

struct ReportHeader {
  const MergeStats& totals;
};

template <class IO>
void codec(IO& io, ReportHeader& h) {
  io.tag("event", "report");
  io.tag("name", "roboads-shard-report");
  io.tag("version", 1);
  io("jobs", h.totals.total_jobs);
  io("completed", h.totals.completed);
  io("complete", h.totals.complete);
}

// The whole campaign: job statuses, each channel's counts, and the rates
// of both channels folded together.
struct Aggregate {
  const Tally& all;
};

template <class IO>
void codec(IO& io, Aggregate& a) {
  const Tally& t = a.all;
  const stats::ConfusionCounts both = t.counts();
  io.tag("event", "aggregate");
  io("ok", t.ok);
  io("failed", t.failed);
  io("violations", t.violations);
  io("sensor", std::tie(t.sensor.tp, t.sensor.fp, t.sensor.tn, t.sensor.fn));
  io("actuator", std::tie(t.actuator.tp, t.actuator.fp, t.actuator.tn,
                          t.actuator.fn));
  io("fpr", both.false_positive_rate());
  io("fnr", both.false_negative_rate());
  io("f1", both.f1());
}

// A 95% confidence interval of one metric across replication groups.
struct CiLine {
  const char* metric;
  stats::MeanCi95 ci;
};

template <class IO>
void codec(IO& io, CiLine& line) {
  io.tag("event", "ci");
  io.tag("metric", line.metric);
  io("groups", line.ci.n);
  io("mean", line.ci.mean);
  io("stddev", line.ci.stddev);
  io("ci95", std::tie(line.ci.lo, line.ci.hi));
}

// One group's detection delays as a mergeable histogram over the shared
// delay bounds.
struct DelayTelemetry {
  const Tally& group;
};

template <class IO>
void codec(IO& io, DelayTelemetry& t) {
  obs::HistogramSnapshot h =
      obs::HistogramSnapshot::with_bounds(obs::default_delay_bounds_s());
  for (const double d : t.group.delay_seconds) h.record(d);
  double lo = h.mean() - h.ci95_half_width();
  double hi = h.mean() + h.ci95_half_width();
  io.tag("event", "telemetry");
  io.tag("metric", "detection_delay_s");
  io("group", t.group.name);
  io("count", h.count);
  io("mean", h.mean());
  io("stddev", h.stddev());
  io("ci95", std::tie(lo, hi));
  io("p50", h.quantile(0.50));
  io("p90", h.quantile(0.90));
  io("p99", h.quantile(0.99));
  io("max", h.max);
  io("hist", h);
}

template <class IO>
void codec(IO& io, Tally& g) {
  io.tag("event", "group");
  io("group", g.name);
  io("jobs", g.jobs);
  io("ok", g.ok);
  io("failed", g.failed);
  io("violations", g.violations);
  if (!g.has_metrics()) return;
  io("fpr", g.counts().false_positive_rate());
  io("fnr", g.counts().false_negative_rate());
  io("detection_delay", g.delay_seconds.empty()
                            ? std::nullopt
                            : std::optional(stats::mean(g.delay_seconds)));
  io("missed_delays", g.missed_delays);
}

struct MissingJobs {
  const std::vector<std::string>& ids;
};

template <class IO>
void codec(IO& io, MissingJobs& m) {
  io.tag("event", "missing");
  io("count", m.ids.size());
  io("ids", m.ids);
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
  std::vector<Tally> groups;
  std::map<std::string, std::size_t> group_index;
  Tally all;
  for (const ManifestJob& job : manifest.jobs) {
    const auto it = by_id.find(job.id);
    if (it == by_id.end()) {
      report.stats.missing_ids.push_back(job.id);
      continue;
    }
    const JobOutcome& o = *it->second;
    const auto inserted =
        group_index.emplace(o.group, groups.size());
    if (inserted.second) {
      groups.emplace_back();
      groups.back().name = o.group;
    }
    fold(groups[inserted.first->second], o);
    fold(all, o);
  }
  report.stats.ok = all.ok;
  report.stats.failed = all.failed;
  report.stats.violations = all.violations;
  report.stats.complete = report.stats.missing_ids.empty();

  std::ostringstream os;
  json::write_line(os, ReportHeader{report.stats});
  json::write_line(os, Aggregate{all});

  // 95% confidence intervals across replication groups (groups carrying
  // mission metrics only — a fuzz group contributes no confusion counts).
  std::vector<double> fprs, fnrs, delays;
  for (const Tally& g : groups) {
    if (!g.has_metrics()) continue;
    fprs.push_back(g.counts().false_positive_rate());
    fnrs.push_back(g.counts().false_negative_rate());
    if (!g.delay_seconds.empty()) {
      delays.push_back(stats::mean(g.delay_seconds));
    }
  }
  if (!fprs.empty()) {
    json::write_line(os, CiLine{"fpr", stats::mean_ci95(fprs)});
    json::write_line(os, CiLine{"fnr", stats::mean_ci95(fnrs)});
  }
  if (!delays.empty()) {
    json::write_line(os,
                     CiLine{"detection_delay", stats::mean_ci95(delays)});
  }

  // Telemetry: per-group detection-delay distributions as mergeable
  // histograms (obs::HistogramSnapshot over the shared delay bounds). A
  // deterministic function of the outcomes alone — no wall-clock, no worker
  // identity — so the merged report stays byte-identical to the serial
  // reference with telemetry enabled.
  for (const Tally& g : groups) {
    if (!g.delay_seconds.empty()) json::write_line(os, DelayTelemetry{g});
  }

  // Per-group lines, in manifest first-appearance order.
  for (const Tally& g : groups) json::write_line(os, g);

  // Partial coverage is reported, not hidden.
  if (!report.stats.complete) {
    json::write_line(os, MissingJobs{report.stats.missing_ids});
  }

  // Every outcome, canonically serialized in job-id order. This is the part
  // the chaos test diffs byte-for-byte against the serial reference.
  std::sort(outcomes.begin(), outcomes.end(),
            [](const JobOutcome& a, const JobOutcome& b) { return a.id < b.id; });
  for (const JobOutcome& o : outcomes) json::write_line(os, o);

  report.text = os.str();
  return report;
}

MergedReport merge_run(const Manifest& manifest, const std::string& dir) {
  return merge_outcomes(manifest, load_run_outcomes(dir));
}

void write_report(const std::string& path, const MergedReport& report) {
  std::ofstream os(path, std::ios::binary);
  if (!(os << report.text) || !os.flush()) {
    throw ManifestError("cannot write report " + path);
  }
}

}  // namespace roboads::shard
